#ifndef ALID_CORE_LID_H_
#define ALID_CORE_LID_H_

#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "affinity/lazy_affinity_oracle.h"
#include "common/types.h"

namespace alid {

/// Convergence tolerance on max |pi(s_i - x, x)| over the local range: when
/// no vertex is infective (and no support vertex is weak) beyond this, the
/// local infective set gamma_beta(x) is empty (Theorem 1).
inline constexpr double kLidTolerance = 1e-10;
/// Weights below this are snapped to exactly zero after an invasion.
inline constexpr double kLidWeightEpsilon = 1e-14;

/// The extremes of (A x) that the Eq. 6 selection reads: `hi` is the first
/// argmax of (A x)_i over the whole local range, `lo` the first argmin over
/// the support (x_i > 0; -1 when no support entry is below +inf). NaN
/// entries are never taken; `top` and `bottom` are the values at hi and lo.
struct LidExtremes {
  int hi = 0;
  int lo = -1;
  Scalar top = -std::numeric_limits<Scalar>::infinity();
  Scalar bottom = std::numeric_limits<Scalar>::infinity();

  void Observe(int i, Scalar ax_i, Scalar x_i) {
    if (ax_i > top) {
      top = ax_i;
      hi = i;
    }
    if (x_i > 0.0 && ax_i < bottom) {
      bottom = ax_i;
      lo = i;
    }
  }
};

/// One scan of (A x) and x for their LidExtremes.
LidExtremes LidFindExtremes(std::span<const Scalar> ax,
                            std::span<const Scalar> x);

/// The Eq. 6 vertex selection M(x) as a full scan: the first index with the
/// largest |r_i| > kLidTolerance, r_i = fl((A x)_i - pi), over
///   C1 = { i : r_i > 0 }  (infective vertices) and
///   C2 = { i : r_i < 0, x_i > 0 }  (weak support vertices).
/// Returns -1 when both are empty (gamma_beta(x) is empty, Theorem 1).
int LidSelectByScan(std::span<const Scalar> ax, std::span<const Scalar> x,
                    Scalar pi);

/// The same selection, bit for bit, from the extremes alone: r1 =
/// fl(top - pi) is the largest r_i and r2 = fl(pi - bottom) the largest
/// |r_i| of C2 (fl(x - y) is monotone in x), and the larger one over
/// kLidTolerance wins; on r1 == r2 the smaller index does, as the scan's
/// strict comparison keeps the first. The scan keeps the first index of
/// equal r_i, and that is hi (or lo) only when equal r_i means equal
/// (A x)_i: by Sterbenz's lemma fl((A x)_i - pi) is exact for
/// pi/2 <= (A x)_i <= 2 pi, which covers every candidate that could tie an
/// extreme when top <= 2 pi and bottom >= pi/2. Outside that guard (pi = 0,
/// pi infinite, NaN) it falls back to LidSelectByScan and sets *scanned.
int LidSelect(std::span<const Scalar> ax, std::span<const Scalar> x,
              Scalar pi, const LidExtremes& extremes, bool* scanned);

/// Options of the Localized Infection Immunization Dynamics (Algorithm 1).
struct LidOptions {
  /// Upper limit T on infection/immunization iterations per LID run.
  int max_iterations = 2000;
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
/// An iteration makes two passes over beta: the invasion update of x with
/// the sum that renormalizes it, then the renormalization with Eq. 14, the
/// next pi(x) and the LidExtremes of the new (A x). The invariant: at the
/// top of every iteration the kept hi and lo are what LidFindExtremes
/// returns on the current (A x) and x. The Eq. 6 choice is made from hi,
/// lo and pi alone (LidSelect), so no pass selects; the Sterbenz guard
/// sends the few iterations where an extreme could round into a tie with
/// another vertex back to the full scan, and every trajectory is the
/// three-pass one bit for bit.
///
/// Eq. 1 is symmetric bit for bit (a_ij == a_ji), so a detection evaluates
/// each unordered pair at most once: a new column copies a_{beta_i, g} from
/// beta_i's memo column when that is held, sets the diagonal a_gg = 0
/// without asking the oracle, and sends only the remaining rows to one
/// oracle Column call. The candidate rows evaluated by Screen() become the
/// new rows of the next UpdateRange instead of being evaluated again.
///
/// The instance also implements the Eq. 17 range update used by Step 3
/// (CIVS): beta' = alpha ∪ psi, with (A x) rows extended to the new members.
class Lid {
 public:
  /// Starts from the single-vertex subgraph x = s_seed, beta = {seed}.
  Lid(const LazyAffinityOracle& oracle, Index seed, LidOptions options = {});

  /// Warm start from a weighted support: x is `weights` renormalized on
  /// `members`, and beta is `members` followed by `extra` (each extra vertex
  /// enters at weight 0). A_{beta, alpha} is computed once up front; it
  /// seeds the column memo and the (A x) products (the Eq. 14 state), so
  /// Run() resumes the dynamics from x instead of rebuilding it from a seed.
  /// `members` and `extra` must be disjoint and duplicate-free.
  Lid(const LazyAffinityOracle& oracle, const IndexList& members,
      const std::vector<Scalar>& weights, const IndexList& extra,
      LidOptions options = {});

  ~Lid();

  Lid(const Lid&) = delete;
  Lid& operator=(const Lid&) = delete;
  /// Movable: the memory charge transfers with the column memo.
  Lid(Lid&& other) noexcept;
  Lid& operator=(Lid&&) = delete;

  /// Runs Algorithm 1 until gamma_beta(x) is empty or max_iterations is hit.
  /// Returns the number of invasions performed. One scan finds the
  /// extremes of (A x) before the first iteration; from then on the Eq. 14
  /// pass keeps them, so each iteration makes two passes over beta (see
  /// the class comment). Adds the run's totals to the global registry's
  /// `lid_iterations`, `lid_iteration_entries` (iterations times |beta|)
  /// and `lid_select_scans` (selections the guard sent to the full scan),
  /// and 1 to `lid_capped_runs` when it stops at max_iterations without
  /// converging.
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
  /// between j and the subgraph, from one oracle Column call over the
  /// support (|alpha| kernel evaluations, |alpha| - 1 when j is itself in
  /// the support).
  Scalar AverageAffinityTo(Index global_j) const;

  /// CIVS candidate screening: returns, in order, the candidates j with
  /// pi(s_j, x) > threshold (each pi as AverageAffinityTo computes it, bit
  /// for bit). Their support rows A_{alpha, j} are kept, and charged to the
  /// oracle, until the next Run() or UpdateRange(); an UpdateRange on
  /// exactly the returned list takes them as its new rows.
  IndexList Screen(const IndexList& candidates, Scalar threshold);

  /// Eq. 17: replaces the local range with alpha ∪ new_candidates, extending
  /// the maintained (A x) products to the new rows. Candidates already in
  /// beta are ignored. Rows of beta outside the support are dropped (their
  /// weight is zero, so x is unchanged). Rows kept by Screen() are reused,
  /// so only pairs no earlier call evaluated reach the oracle.
  void UpdateRange(const IndexList& new_candidates);

 private:
  // Ensures columns_[p] holds all of A_{beta, beta_p}; returns it.
  const std::vector<Scalar>& EnsureColumn(int p);
  // Extends columns_[p] from the rows it holds to all of beta: row i is
  // copied from columns_[i] when that holds row p (a_ij == a_ji), the
  // diagonal is 0, and the other rows go to one oracle Column call.
  void FillColumn(int p);
  // Global indices of the support alpha, in beta order.
  IndexList SupportInBetaOrder() const;
  // A_{alpha, j} over `support` (SupportInBetaOrder()): one oracle Column
  // call, the diagonal left out of it when j is in the support.
  std::vector<Scalar> SupportRow(const IndexList& support, Index j) const;
  // sum_i x_i * row_i over the support, ascending.
  Scalar SupportAverage(const std::vector<Scalar>& row) const;
  // Drops the rows kept by Screen().
  void DropScreened();
  // Re-account the footprint with the oracle.
  void Recharge();

  const LazyAffinityOracle* oracle_;
  LidOptions options_;

  IndexList beta_;                       // global indices of the local range
  std::unordered_map<Index, int> pos_;   // global index -> position in beta_
  std::vector<Scalar> x_;                // weights, parallel to beta_
  std::vector<Scalar> ax_;               // (A_{beta,alpha} x_alpha), parallel
  // Per-run column memo, parallel to beta_: columns_[i] holds the first
  // columns_[i].size() rows of A_{beta, beta_i} — all of them for invaded
  // and support vertices, none for the others (a psi vertex holds its
  // screened alpha rows only inside UpdateRange) — the O(a*(a*+delta))
  // structure of the paper's space bound.
  std::vector<std::vector<Scalar>> columns_;
  // Candidates kept by the last Screen() and their support rows.
  IndexList screened_;
  std::vector<std::vector<Scalar>> screened_rows_;
  // Scalars held by columns_ and screened_rows_, kept up to date where
  // they grow or are dropped.
  int64_t memo_scalars_ = 0;

  bool converged_ = false;
  int64_t charged_bytes_ = 0;
};

}  // namespace alid

#endif  // ALID_CORE_LID_H_
