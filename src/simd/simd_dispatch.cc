#include "simd/simd_dispatch.h"

#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace alid {

// Each ISA translation unit always compiles; where its target flags are
// missing it defines its accessor to return nullptr, so this file never
// needs to know what the toolchain could do.
const SimdKernelOps* GetScalarSimdOps();
const SimdKernelOps* GetAvx2SimdOps();
const SimdKernelOps* GetNeonSimdOps();

namespace {

bool CpuSupports(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return true;
    case SimdIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdIsa::kNeon:
      // NEON is baseline on AArch64: compiled-in implies supported.
      return true;
  }
  return false;
}

const SimdKernelOps* CompiledOpsFor(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return GetScalarSimdOps();
    case SimdIsa::kAvx2:
      return GetAvx2SimdOps();
    case SimdIsa::kNeon:
      return GetNeonSimdOps();
  }
  return nullptr;
}

SimdIsa ParseIsaName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return SimdIsa::kScalar;
  if (std::strcmp(name, "avx2") == 0) return SimdIsa::kAvx2;
  if (std::strcmp(name, "neon") == 0) return SimdIsa::kNeon;
  // Unknown names, the retired "avx512" among them, force the safe fallback.
  return SimdIsa::kScalar;
}

SimdIsa BestIsa() {
  // The host architecture's one vector path: AVX2 on x86, NEON on AArch64.
  // The choice follows measurement, not register width: the same kernels on
  // AVX-512 (one tile per register) ran slower than AVX2 on a 4-core AVX-512
  // Xeon, in eq1_sum at every dim, lsh_hash at dim 64 and 128, and the
  // serve_mixed and shard_embedding throughput, so x86 has no wider path.
  for (SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    if (SimdOpsFor(isa) != nullptr) return isa;
  }
  return SimdIsa::kScalar;
}

struct Dispatch {
  const SimdKernelOps* ops;
  SimdIsa isa;
};

Dispatch ResolveDispatch() {
  SimdIsa isa = BestIsa();
  if (const char* pin = std::getenv("ALID_SIMD");
      pin != nullptr && *pin != '\0' && std::strcmp(pin, "auto") != 0) {
    const SimdIsa pinned = ParseIsaName(pin);
    // An unsatisfiable pin degrades to scalar — never to a *different*
    // vector ISA, so ALID_SIMD=scalar CI legs and width-pinned repro runs
    // get exactly what they named or the one always-valid fallback.
    isa = SimdOpsFor(pinned) != nullptr ? pinned : SimdIsa::kScalar;
  }
  return {CompiledOpsFor(isa), isa};
}

// Resolved once at first use (thread-safe magic static); the test override
// swaps the pointers and restores them.
Dispatch& ActiveDispatch() {
  static Dispatch dispatch = ResolveDispatch();
  return dispatch;
}

}  // namespace

const SimdKernelOps* SimdOpsFor(SimdIsa isa) {
  const SimdKernelOps* ops = CompiledOpsFor(isa);
  return (ops != nullptr && CpuSupports(isa)) ? ops : nullptr;
}

const SimdKernelOps* ActiveSimdOps() { return ActiveDispatch().ops; }

SimdIsa ActiveSimdIsa() { return ActiveDispatch().isa; }

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
  }
  return "unknown";
}

std::vector<SimdIsa> AvailableSimdIsas() {
  std::vector<SimdIsa> isas{SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    if (SimdOpsFor(isa) != nullptr) isas.push_back(isa);
  }
  return isas;
}

ScopedSimdIsaOverride::ScopedSimdIsaOverride(SimdIsa isa) {
  Dispatch& dispatch = ActiveDispatch();
  previous_ = dispatch.ops;
  previous_isa_ = dispatch.isa;
  const SimdKernelOps* ops = SimdOpsFor(isa);
  ALID_CHECK_MSG(ops != nullptr,
                 "ScopedSimdIsaOverride: ISA not available on this host");
  dispatch.ops = ops;
  dispatch.isa = isa;
}

ScopedSimdIsaOverride::~ScopedSimdIsaOverride() {
  Dispatch& dispatch = ActiveDispatch();
  dispatch.ops = previous_;
  dispatch.isa = previous_isa_;
}

}  // namespace alid
