#ifndef ALID_COMMON_CHECK_H_
#define ALID_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>

// Contract-violation macros. The library does not use exceptions across its
// public API: programmer errors abort with a source location, and runtime
// fallibility is expressed with std::optional / status booleans.

#define ALID_CHECK(cond)                                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "ALID_CHECK failed: %s at %s:%d\n", #cond,        \
                   __FILE__, __LINE__);                                      \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

#define ALID_CHECK_MSG(cond, msg)                                            \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "ALID_CHECK failed: %s (%s) at %s:%d\n", #cond,   \
                   (msg), __FILE__, __LINE__);                               \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

// Cheap checks that should stay on in release builds use ALID_CHECK; debug
// only checks (inner loops) use ALID_DCHECK.
#ifdef NDEBUG
#define ALID_DCHECK(cond) \
  do {                    \
  } while (0)
#else
#define ALID_DCHECK(cond) ALID_CHECK(cond)
#endif

#endif  // ALID_COMMON_CHECK_H_
