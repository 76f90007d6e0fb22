#ifndef ALID_CORE_LID_H_
#define ALID_CORE_LID_H_

#include <unordered_map>
#include <vector>

#include "affinity/lazy_affinity_oracle.h"
#include "common/types.h"

namespace alid {

/// Options of the Localized Infection Immunization Dynamics (Algorithm 1).
struct LidOptions {
  /// Upper limit T on infection/immunization iterations per LID run.
  int max_iterations = 2000;
  /// Convergence tolerance on max |pi(s_i - x, x)| over the local range: when
  /// no vertex is infective (and no support vertex is weak) beyond this, the
  /// local infective set gamma_beta(x) is empty (Theorem 1).
  double tolerance = 1e-10;
  /// Weights below this are snapped to exactly zero after an invasion.
  double weight_epsilon = 1e-14;
};

/// Localized Infection Immunization Dynamics (Step 1 of ALID, Algorithm 1).
///
/// Maintains a subgraph x on the simplex over a *local range* beta (a small
/// set of global vertex indices) and iterates the invasion model
/// z = (1-eps) x + eps y (Eq. 5) with the optimal infective vertex/co-vertex
/// selection S(x) (Eq. 6/8) and invasion share eps_y(x) (Eq. 9) until x is
/// immune against every vertex of beta.
///
/// Only the columns A_{beta, i} of vertices that are actually invaded are
/// computed (through the LazyAffinityOracle), and the running products
/// (A_{beta,alpha} x_alpha) are updated incrementally per Eq. 14 — one column
/// per iteration, never the full local matrix A_{beta,beta}.
///
/// The instance also implements the Eq. 17 range update used by Step 3
/// (CIVS): beta' = alpha ∪ psi, with (A x) rows extended to the new members.
class Lid {
 public:
  /// Starts from the single-vertex subgraph x = s_seed, beta = {seed}.
  Lid(const LazyAffinityOracle& oracle, Index seed, LidOptions options = {});

  ~Lid();

  Lid(const Lid&) = delete;
  Lid& operator=(const Lid&) = delete;
  /// Movable: the memory charge transfers with the column memo.
  Lid(Lid&& other) noexcept;
  Lid& operator=(Lid&&) = delete;

  /// Runs Algorithm 1 until gamma_beta(x) is empty or max_iterations is hit.
  /// Returns the number of invasions performed.
  int Run();

  /// Current graph density pi(x) = x^T A x.
  Scalar Density() const;

  /// True if the last Run() terminated with gamma_beta(x) empty.
  bool converged() const { return converged_; }

  /// The local range beta (global indices).
  const IndexList& beta() const { return beta_; }

  /// Global indices of the support alpha = { i in beta : x_i > 0 },
  /// ascending.
  IndexList Support() const;

  /// (global index, weight) pairs of the support.
  std::vector<std::pair<Index, Scalar>> SupportWeights() const;

  /// Weight of global vertex g (0 if outside beta).
  Scalar WeightOf(Index g) const;

  /// pi(s_j, x) for an arbitrary *global* vertex j: the average affinity
  /// between j and the subgraph. O(|alpha|) kernel evaluations. Used by the
  /// global-immunity check and by CIVS-retrieved candidate screening.
  Scalar AverageAffinityTo(Index global_j) const;

  /// Eq. 17: replaces the local range with alpha ∪ new_candidates, extending
  /// the maintained (A x) products to the new rows. Candidates already in
  /// beta are ignored. Rows of beta outside the support are dropped (their
  /// weight is zero, so x is unchanged).
  void UpdateRange(const IndexList& new_candidates);

  /// Total invasions across all Run() calls.
  int total_iterations() const { return total_iterations_; }

 private:
  // Ensures columns_[g] holds A_{beta, g}; returns a reference to it.
  const std::vector<Scalar>& EnsureColumn(Index g);
  // Re-account the column-memo footprint with the oracle.
  void Recharge();

  const LazyAffinityOracle* oracle_;
  LidOptions options_;

  IndexList beta_;                       // global indices of the local range
  std::unordered_map<Index, int> pos_;   // global index -> position in beta_
  std::vector<Scalar> x_;                // weights, parallel to beta_
  std::vector<Scalar> ax_;               // (A_{beta,alpha} x_alpha), parallel
  // Per-run column memo: A_{beta, g} for invaded vertices, parallel to
  // beta_ — the O(a*(a*+delta)) structure of the paper's space bound.
  std::unordered_map<Index, std::vector<Scalar>> columns_;

  bool converged_ = false;
  int total_iterations_ = 0;
  int64_t charged_bytes_ = 0;
};

}  // namespace alid

#endif  // ALID_CORE_LID_H_
