#include "core/lid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace alid {

Lid::Lid(const LazyAffinityOracle& oracle, Index seed, LidOptions options)
    : oracle_(&oracle), options_(options) {
  ALID_CHECK(seed >= 0 && seed < oracle.size());
  beta_.push_back(seed);
  pos_[seed] = 0;
  x_.push_back(1.0);
  ax_.push_back(0.0);  // a_ii = 0 (Algorithm 2, line 1)
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
  // A_{beta, alpha}, one column per member; (A x) is their weighted sum,
  // accumulated in member order.
  ax_.assign(beta_.size(), 0.0);
  for (size_t a = 0; a < members.size(); ++a) {
    std::vector<Scalar> col = oracle.Column(beta_, members[a]);
    for (size_t i = 0; i < beta_.size(); ++i) ax_[i] += x_[a] * col[i];
    columns_.emplace(members[a], std::move(col));
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
      converged_(other.converged_),
      total_iterations_(other.total_iterations_),
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

Scalar Lid::AverageAffinityTo(Index global_j) const {
  Scalar s = 0.0;
  for (size_t i = 0; i < x_.size(); ++i) {
    if (x_[i] == 0.0) continue;
    s += x_[i] * oracle_->Entry(beta_[i], global_j);
  }
  return s;
}

const std::vector<Scalar>& Lid::EnsureColumn(Index g) {
  auto it = columns_.find(g);
  if (it != columns_.end()) return it->second;
  std::vector<Scalar> col = oracle_->Column(beta_, g);
  auto [ins, ok] = columns_.emplace(g, std::move(col));
  Recharge();
  return ins->second;
}

void Lid::Recharge() {
  int64_t bytes = 0;
  for (const auto& [g, col] : columns_) {
    bytes += static_cast<int64_t>(col.size() * sizeof(Scalar));
  }
  bytes += static_cast<int64_t>(
      (x_.size() + ax_.size()) * sizeof(Scalar) + beta_.size() * sizeof(Index));
  if (bytes != charged_bytes_) {
    oracle_->Charge(bytes - charged_bytes_);
    charged_bytes_ = bytes;
  }
}

int Lid::Run() {
  const int b = static_cast<int>(beta_.size());
  converged_ = false;
  int iters = 0;
  for (; iters < options_.max_iterations; ++iters) {
    const Scalar pi = Density();
    // Vertex selection M(x) (Eq. 6): maximize |pi(s_i - x, x)| over
    //   C1 = { i : pi(s_i - x, x) > 0 }  (infective vertices)
    //   C2 = { i : pi(s_i - x, x) < 0, x_i > 0 }  (weak support vertices)
    int best = -1;
    Scalar best_abs = options_.tolerance;
    for (int i = 0; i < b; ++i) {
      const Scalar r = ax_[i] - pi;  // Eq. 10
      if (r > 0.0 || (r < 0.0 && x_[i] > 0.0)) {
        const Scalar a = std::abs(r);
        if (a > best_abs) {
          best_abs = a;
          best = i;
        }
      }
    }
    if (best < 0) {
      converged_ = true;  // gamma_beta(x) is empty (Theorem 1)
      break;
    }

    const Scalar r = ax_[best] - pi;           // pi(s_i - x, x)
    const Scalar pi_si_minus_x = -2.0 * ax_[best] + pi;  // Eq. 11 (a_ii = 0)
    const Index g = beta_[best];
    const std::vector<Scalar>& col = EnsureColumn(g);

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

    // Invasion model (Eq. 13): x <- (1 - mu) x + mu s_i.
    for (int i = 0; i < b; ++i) x_[i] *= (1.0 - mu);
    x_[best] += mu;
    // Numerical hygiene: snap tiny/negative weights to zero and renormalize.
    Scalar sum = 0.0;
    for (int i = 0; i < b; ++i) {
      if (x_[i] < options_.weight_epsilon) x_[i] = 0.0;
      sum += x_[i];
    }
    ALID_CHECK_MSG(sum > 0.0, "LID lost all weight");
    const Scalar inv = 1.0 / sum;
    for (int i = 0; i < b; ++i) x_[i] *= inv;

    // Eq. 14: (A x) <- (A x) + mu ([A]_col - (A x)), then the same
    // renormalization applied to x (A x is linear in x).
    for (int i = 0; i < b; ++i) {
      ax_[i] = (ax_[i] + mu * (col[i] - ax_[i])) * inv;
    }
  }
  total_iterations_ += iters;
  return iters;
}

void Lid::UpdateRange(const IndexList& new_candidates) {
  // Gather the support (alpha) with its weights and (A x) rows.
  IndexList new_beta;
  std::vector<Scalar> new_x;
  std::vector<Scalar> new_ax;
  std::vector<int> old_pos;  // position in old beta_, -1 for fresh candidates
  for (size_t i = 0; i < beta_.size(); ++i) {
    if (x_[i] > 0.0) {
      new_beta.push_back(beta_[i]);
      new_x.push_back(x_[i]);
      new_ax.push_back(ax_[i]);
      old_pos.push_back(static_cast<int>(i));
    }
  }
  const size_t alpha_size = new_beta.size();
  for (Index g : new_candidates) {
    if (pos_.count(g) != 0 && x_[pos_[g]] > 0.0) continue;  // already in alpha
    // Candidates outside the old beta OR non-support members being re-added.
    if (std::find(new_beta.begin(), new_beta.end(), g) != new_beta.end()) {
      continue;
    }
    new_beta.push_back(g);
    new_x.push_back(0.0);
    new_ax.push_back(0.0);  // filled below
    old_pos.push_back(-1);
  }

  // Rebuild the support columns on the new range: keep the alpha rows we
  // already have, compute the psi rows fresh; their weighted sum fills the
  // new (A x) entries (Eq. 17).
  std::unordered_map<Index, std::vector<Scalar>> new_columns;
  IndexList psi(new_beta.begin() + alpha_size, new_beta.end());
  for (size_t a = 0; a < alpha_size; ++a) {
    const Index ga = new_beta[a];
    auto it = columns_.find(ga);
    std::vector<Scalar> col(new_beta.size());
    if (it != columns_.end()) {
      for (size_t i = 0; i < alpha_size; ++i) col[i] = it->second[old_pos[i]];
    } else {
      // Support vertex whose column was never materialized (e.g., the seed
      // before its first immunization): compute the alpha rows now.
      IndexList alpha_rows(new_beta.begin(), new_beta.begin() + alpha_size);
      std::vector<Scalar> frag = oracle_->Column(alpha_rows, ga);
      for (size_t i = 0; i < alpha_size; ++i) col[i] = frag[i];
    }
    if (!psi.empty()) {
      std::vector<Scalar> frag = oracle_->Column(psi, ga);
      for (size_t i = 0; i < psi.size(); ++i) col[alpha_size + i] = frag[i];
    }
    new_columns.emplace(ga, std::move(col));
  }
  // (A x) rows for the fresh candidates: sum over support columns.
  for (size_t i = alpha_size; i < new_beta.size(); ++i) {
    Scalar s = 0.0;
    for (size_t a = 0; a < alpha_size; ++a) {
      s += new_x[a] * new_columns[new_beta[a]][i];
    }
    new_ax[i] = s;
  }

  beta_ = std::move(new_beta);
  x_ = std::move(new_x);
  ax_ = std::move(new_ax);
  columns_ = std::move(new_columns);
  pos_.clear();
  for (size_t i = 0; i < beta_.size(); ++i) {
    pos_[beta_[i]] = static_cast<int>(i);
  }
  converged_ = false;
  Recharge();
}

}  // namespace alid
