#include "core/lid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"

namespace alid {

namespace {

// Process-lifetime LID totals on the global registry, added once per Run():
// `iterations` the invasions, `iteration_entries` the (iteration, beta
// entry) steps of the two passes, `select_scans` the selections the
// Sterbenz guard sent to the full scan, `capped_runs` the runs that stopped
// at max_iterations unconverged.
struct LidCounters {
  obs::Counter* iterations;
  obs::Counter* iteration_entries;
  obs::Counter* select_scans;
  obs::Counter* capped_runs;
};

LidCounters& GlobalLidCounters() {
  static LidCounters* counters = [] {
    auto* c = new LidCounters();
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    c->iterations = r.AddCounter("lid_iterations");
    c->iteration_entries = r.AddCounter("lid_iteration_entries");
    c->select_scans = r.AddCounter("lid_select_scans");
    c->capped_runs = r.AddCounter("lid_capped_runs");
    return c;
  }();
  return *counters;
}

}  // namespace

LidExtremes LidFindExtremes(std::span<const Scalar> ax,
                            std::span<const Scalar> x) {
  LidExtremes e;
  for (size_t i = 0; i < ax.size(); ++i) {
    e.Observe(static_cast<int>(i), ax[i], x[i]);
  }
  return e;
}

int LidSelectByScan(std::span<const Scalar> ax, std::span<const Scalar> x,
                    Scalar pi) {
  int best = -1;
  Scalar best_abs = kLidTolerance;
  for (size_t i = 0; i < ax.size(); ++i) {
    const Scalar r = ax[i] - pi;  // Eq. 10
    if (r > 0.0 || (r < 0.0 && x[i] > 0.0)) {
      const Scalar a = std::abs(r);
      if (a > best_abs) {
        best_abs = a;
        best = static_cast<int>(i);
      }
    }
  }
  return best;
}

int LidSelect(std::span<const Scalar> ax, std::span<const Scalar> x,
              Scalar pi, const LidExtremes& extremes, bool* scanned) {
  const Scalar top = extremes.top;
  const Scalar bottom = extremes.bottom;
  // Doubling is exact short of overflow, and an overflowed side still
  // compares as the exact one would; a NaN anywhere fails a comparison.
  if (!(top <= 2.0 * pi && 2.0 * bottom >= pi &&
        pi <= std::numeric_limits<Scalar>::max())) {
    *scanned = true;
    return LidSelectByScan(ax, x, pi);
  }
  const Scalar r1 = top - pi;
  const Scalar r2 = pi - bottom;
  if (r1 > kLidTolerance &&
      (r1 > r2 || (r1 == r2 && extremes.hi < extremes.lo))) {
    return extremes.hi;
  }
  if (r2 > kLidTolerance) return extremes.lo;
  return -1;
}

Lid::Lid(const LazyAffinityOracle& oracle, Index seed, LidOptions options)
    : oracle_(&oracle), options_(options) {
  ALID_CHECK(seed >= 0 && seed < oracle.size());
  beta_.push_back(seed);
  pos_[seed] = 0;
  x_.push_back(1.0);
  ax_.push_back(0.0);  // a_ii = 0 (Algorithm 2, line 1)
  columns_.emplace_back();
}

Lid::Lid(const LazyAffinityOracle& oracle, const IndexList& members,
         const std::vector<Scalar>& weights, const IndexList& extra,
         LidOptions options)
    : oracle_(&oracle), options_(options) {
  ALID_CHECK(!members.empty() && weights.size() == members.size());
  Scalar total = 0.0;
  for (Scalar w : weights) {
    ALID_CHECK(w >= 0.0);
    total += w;
  }
  ALID_CHECK_MSG(total > 0.0, "warm LID start without weight");
  beta_.reserve(members.size() + extra.size());
  beta_.insert(beta_.end(), members.begin(), members.end());
  beta_.insert(beta_.end(), extra.begin(), extra.end());
  for (size_t i = 0; i < beta_.size(); ++i) {
    ALID_CHECK(beta_[i] >= 0 && beta_[i] < oracle.size());
    const bool fresh = pos_.emplace(beta_[i], static_cast<int>(i)).second;
    ALID_CHECK_MSG(fresh, "warm LID start lists a vertex twice");
  }
  x_.assign(beta_.size(), 0.0);
  for (size_t a = 0; a < members.size(); ++a) x_[a] = weights[a] / total;
  // A_{beta, alpha}, one column per member (each copies the rows of the
  // members filled before it); (A x) is their weighted sum, accumulated in
  // member order.
  ax_.assign(beta_.size(), 0.0);
  columns_.resize(beta_.size());
  for (size_t a = 0; a < members.size(); ++a) {
    FillColumn(static_cast<int>(a));
    const std::vector<Scalar>& col = columns_[a];
    for (size_t i = 0; i < beta_.size(); ++i) ax_[i] += x_[a] * col[i];
  }
  Recharge();
}

Lid::~Lid() {
  if (charged_bytes_ != 0) oracle_->Discharge(charged_bytes_);
}

Lid::Lid(Lid&& other) noexcept
    : oracle_(other.oracle_),
      options_(other.options_),
      beta_(std::move(other.beta_)),
      pos_(std::move(other.pos_)),
      x_(std::move(other.x_)),
      ax_(std::move(other.ax_)),
      columns_(std::move(other.columns_)),
      screened_(std::move(other.screened_)),
      screened_rows_(std::move(other.screened_rows_)),
      memo_scalars_(other.memo_scalars_),
      converged_(other.converged_),
      charged_bytes_(other.charged_bytes_) {
  other.charged_bytes_ = 0;
}

Scalar Lid::Density() const {
  // pi(x) = x^T A x = sum_i x_i (A x)_i, all within beta.
  Scalar pi = 0.0;
  for (size_t i = 0; i < x_.size(); ++i) pi += x_[i] * ax_[i];
  return pi;
}

IndexList Lid::Support() const {
  IndexList out;
  for (size_t i = 0; i < x_.size(); ++i) {
    if (x_[i] > 0.0) out.push_back(beta_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<Index, Scalar>> Lid::SupportWeights() const {
  std::vector<std::pair<Index, Scalar>> out;
  for (size_t i = 0; i < x_.size(); ++i) {
    if (x_[i] > 0.0) out.emplace_back(beta_[i], x_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Scalar Lid::WeightOf(Index g) const {
  auto it = pos_.find(g);
  return it == pos_.end() ? 0.0 : x_[it->second];
}

IndexList Lid::SupportInBetaOrder() const {
  IndexList support;
  for (size_t i = 0; i < x_.size(); ++i) {
    if (x_[i] > 0.0) support.push_back(beta_[i]);
  }
  return support;
}

std::vector<Scalar> Lid::SupportRow(const IndexList& support, Index j) const {
  const auto it = pos_.find(j);
  if (it == pos_.end() || !(x_[it->second] > 0.0)) {
    return oracle_->Column(support, j);
  }
  const auto self = std::find(support.begin(), support.end(), j);
  IndexList others(support.begin(), self);
  others.insert(others.end(), self + 1, support.end());
  std::vector<Scalar> row = oracle_->Column(others, j);
  row.insert(row.begin() + (self - support.begin()), 0.0);  // a_jj = 0
  return row;
}

Scalar Lid::SupportAverage(const std::vector<Scalar>& row) const {
  Scalar s = 0.0;
  size_t k = 0;
  for (size_t i = 0; i < x_.size(); ++i) {
    if (x_[i] > 0.0) s += x_[i] * row[k++];
  }
  return s;
}

Scalar Lid::AverageAffinityTo(Index global_j) const {
  return SupportAverage(SupportRow(SupportInBetaOrder(), global_j));
}

IndexList Lid::Screen(const IndexList& candidates, Scalar threshold) {
  DropScreened();
  const IndexList support = SupportInBetaOrder();
  for (Index j : candidates) {
    std::vector<Scalar> row = SupportRow(support, j);
    if (SupportAverage(row) > threshold) {
      memo_scalars_ += static_cast<int64_t>(row.size());
      screened_.push_back(j);
      screened_rows_.push_back(std::move(row));
    }
  }
  Recharge();
  return screened_;
}

void Lid::DropScreened() {
  for (const auto& row : screened_rows_) {
    memo_scalars_ -= static_cast<int64_t>(row.size());
  }
  screened_.clear();
  screened_rows_.clear();
}

void Lid::FillColumn(int p) {
  std::vector<Scalar>& col = columns_[p];
  const size_t b = beta_.size();
  const size_t from = col.size();
  col.resize(b);
  IndexList rows;
  std::vector<size_t> at;
  for (size_t i = from; i < b; ++i) {
    if (static_cast<int>(i) == p) {
      col[i] = 0.0;  // a_ii = 0 (Eq. 1)
    } else if (columns_[i].size() > static_cast<size_t>(p)) {
      col[i] = columns_[i][p];
    } else {
      rows.push_back(beta_[i]);
      at.push_back(i);
    }
  }
  if (!rows.empty()) {
    const std::vector<Scalar> fresh = oracle_->Column(rows, beta_[p]);
    for (size_t k = 0; k < at.size(); ++k) col[at[k]] = fresh[k];
  }
  memo_scalars_ += static_cast<int64_t>(b - from);
}

const std::vector<Scalar>& Lid::EnsureColumn(int p) {
  if (columns_[p].size() < beta_.size()) {
    FillColumn(p);
    Recharge();
  }
  return columns_[p];
}

void Lid::Recharge() {
  const int64_t bytes =
      static_cast<int64_t>(sizeof(Scalar)) * memo_scalars_ +
      static_cast<int64_t>((x_.size() + ax_.size()) * sizeof(Scalar) +
                           beta_.size() * sizeof(Index));
  if (bytes != charged_bytes_) {
    oracle_->Charge(bytes - charged_bytes_);
    charged_bytes_ = bytes;
  }
}

int Lid::Run() {
  DropScreened();
  Recharge();
  const int b = static_cast<int>(beta_.size());
  converged_ = false;
  int iters = 0;
  int64_t scans = 0;
  Scalar pi = Density();
  LidExtremes extremes = LidFindExtremes(ax_, x_);
  for (; iters < options_.max_iterations; ++iters) {
    // Vertex selection M(x) (Eq. 6), from the extremes the last pass kept.
    bool scanned = false;
    const int best = LidSelect(ax_, x_, pi, extremes, &scanned);
    scans += scanned;
    if (best < 0) {
      converged_ = true;  // gamma_beta(x) is empty (Theorem 1)
      break;
    }

    const Scalar r = ax_[best] - pi;           // pi(s_i - x, x)
    const Scalar pi_si_minus_x = -2.0 * ax_[best] + pi;  // Eq. 11 (a_ii = 0)
    const std::vector<Scalar>& col = EnsureColumn(best);

    // "mu" is the effective share of s_best mixed into x:
    //   infection:     z = (1 - eps) x + eps s_i          => mu = eps
    //   immunization:  z = (1 - mu) x + mu s_i with
    //                  mu = eps * x_i / (x_i - 1) < 0     (Eq. 7/12)
    Scalar mu;
    if (r > 0.0) {
      // Case 1: infection by the strongest infective vertex (Eq. 9).
      Scalar eps = 1.0;
      if (pi_si_minus_x < 0.0) eps = std::min(-r / pi_si_minus_x, 1.0);
      mu = eps;
    } else {
      // Case 2: immunization by the co-vertex s_i(x) (Eq. 12 into Eq. 9).
      const Scalar ratio = x_[best] / (x_[best] - 1.0);  // in (-inf, 0)
      const Scalar num = ratio * r;                      // pi(s_i(x)-x, x) > 0
      const Scalar den = ratio * ratio * pi_si_minus_x;  // pi(s_i(x)-x)
      Scalar eps = 1.0;
      if (den < 0.0) eps = std::min(-num / den, 1.0);
      mu = eps * ratio;
    }

    // Pass 1, the invasion model (Eq. 13): x <- (1 - mu) x + mu s_i, with
    // numerical hygiene: tiny/negative weights snap to zero before the sum
    // that renormalizes x.
    Scalar sum = 0.0;
    for (int i = 0; i < b; ++i) {
      x_[i] *= (1.0 - mu);
      if (i == best) x_[i] += mu;
      if (x_[i] < kLidWeightEpsilon) x_[i] = 0.0;
      sum += x_[i];
    }
    ALID_CHECK_MSG(sum > 0.0, "LID lost all weight");
    const Scalar inv = 1.0 / sum;

    // Pass 2: renormalize x; Eq. 14: (A x) <- (A x) + mu ([A]_col - (A x)),
    // then the same renormalization (A x is linear in x); the next
    // pi(x) = sum_i x_i (A x)_i, accumulated ascending as Density() does;
    // and the extremes of the new (A x) for the next selection.
    pi = 0.0;
    extremes = LidExtremes();
    for (int i = 0; i < b; ++i) {
      const Scalar xi = x_[i] * inv;
      const Scalar axi = (ax_[i] + mu * (col[i] - ax_[i])) * inv;
      x_[i] = xi;
      ax_[i] = axi;
      pi += xi * axi;
      extremes.Observe(i, axi, xi);
    }
  }
  if (iters > 0) {
    LidCounters& counters = GlobalLidCounters();
    counters.iterations->Add(iters);
    counters.iteration_entries->Add(static_cast<int64_t>(iters) * b);
  }
  if (scans > 0) GlobalLidCounters().select_scans->Add(scans);
  if (!converged_) GlobalLidCounters().capped_runs->Add(1);
  return iters;
}

void Lid::UpdateRange(const IndexList& new_candidates) {
  const bool reuse_screened = !screened_.empty();
  ALID_CHECK_MSG(!reuse_screened || screened_ == new_candidates,
                 "UpdateRange after Screen() must take the screened list");
  // Gather the support (alpha) with its weights, (A x) rows and columns.
  IndexList new_beta;
  std::vector<Scalar> new_x;
  std::vector<Scalar> new_ax;
  std::vector<std::vector<Scalar>> new_columns;
  std::vector<int> old_pos;  // alpha's positions in the old beta_
  for (size_t i = 0; i < beta_.size(); ++i) {
    if (x_[i] > 0.0) {
      new_beta.push_back(beta_[i]);
      new_x.push_back(x_[i]);
      new_ax.push_back(ax_[i]);
      new_columns.emplace_back();
      old_pos.push_back(static_cast<int>(i));
    }
  }
  const size_t alpha_size = new_beta.size();
  // Keep the alpha rows of every materialized support column.
  for (size_t a = 0; a < alpha_size; ++a) {
    const std::vector<Scalar>& old_col = columns_[old_pos[a]];
    if (old_col.empty()) continue;
    new_columns[a].resize(alpha_size);
    for (size_t i = 0; i < alpha_size; ++i) {
      new_columns[a][i] = old_col[old_pos[i]];
    }
  }
  for (size_t k = 0; k < new_candidates.size(); ++k) {
    const Index g = new_candidates[k];
    if (pos_.count(g) != 0 && x_[pos_[g]] > 0.0) continue;  // already in alpha
    // Candidates outside the old beta OR non-support members being re-added.
    if (std::find(new_beta.begin(), new_beta.end(), g) != new_beta.end()) {
      continue;
    }
    new_beta.push_back(g);
    new_x.push_back(0.0);
    new_ax.push_back(0.0);  // filled below
    // A screened candidate's support row is the alpha prefix of its column.
    new_columns.push_back(reuse_screened ? std::move(screened_rows_[k])
                                         : std::vector<Scalar>{});
  }

  beta_ = std::move(new_beta);
  x_ = std::move(new_x);
  ax_ = std::move(new_ax);
  columns_ = std::move(new_columns);
  pos_.clear();
  for (size_t i = 0; i < beta_.size(); ++i) {
    pos_[beta_[i]] = static_cast<int>(i);
  }
  screened_.clear();
  screened_rows_.clear();

  // Complete every support column on the new range (psi rows from the
  // screened prefixes, the rest once from the oracle), then drop the psi
  // prefixes: the support columns now hold the same entries, and the memo
  // is exactly alpha_size full columns. The weighted sum of the support
  // columns fills the new (A x) entries (Eq. 17).
  for (size_t a = 0; a < alpha_size; ++a) FillColumn(static_cast<int>(a));
  for (size_t i = alpha_size; i < beta_.size(); ++i) {
    std::vector<Scalar>().swap(columns_[i]);
    Scalar s = 0.0;
    for (size_t a = 0; a < alpha_size; ++a) s += x_[a] * columns_[a][i];
    ax_[i] = s;
  }
  memo_scalars_ = static_cast<int64_t>(alpha_size * beta_.size());
  converged_ = false;
  Recharge();
}

}  // namespace alid
