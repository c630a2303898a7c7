#include "pointprocess/estimate.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace craqr {
namespace pp {

namespace {

using Vec4 = std::array<double, 4>;

double Dot(const Vec4& a, const Vec4& b) {
  return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3];
}

double MaxNorm(const Vec4& a) {
  double m = 0.0;
  for (double v : a) {
    m = std::max(m, std::fabs(v));
  }
  return m;
}

/// Solves the 4x4 system M x = b by Gaussian elimination with partial
/// pivoting. Returns false when M is (numerically) singular.
bool Solve4x4(std::array<Vec4, 4> m, Vec4 b, Vec4* x) {
  constexpr int n = 4;
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int row = col + 1; row < n; ++row) {
      if (std::fabs(m[row][col]) > std::fabs(m[pivot][col])) {
        pivot = row;
      }
    }
    if (std::fabs(m[pivot][col]) < 1e-300) {
      return false;
    }
    std::swap(m[col], m[pivot]);
    std::swap(b[col], b[pivot]);
    for (int row = col + 1; row < n; ++row) {
      const double factor = m[row][col] / m[col][col];
      for (int k = col; k < n; ++k) {
        m[row][k] -= factor * m[col][k];
      }
      b[row] -= factor * b[col];
    }
  }
  for (int row = n - 1; row >= 0; --row) {
    double sum = b[row];
    for (int k = row + 1; k < n; ++k) {
      sum -= m[row][k] * (*x)[k];
    }
    (*x)[row] = sum / m[row][row];
  }
  return true;
}

/// Normalised-coordinate frame for a window: coordinates are centred at the
/// window centroid and scaled by the half-extents, so features lie in
/// [-1, 1] and the window centroid maps to the origin.
struct Frame {
  double tc, xc, yc;
  double st, sx, sy;

  explicit Frame(const SpaceTimeWindow& w)
      : tc((w.t_begin + w.t_end) / 2.0),
        xc((w.space.x_min() + w.space.x_max()) / 2.0),
        yc((w.space.y_min() + w.space.y_max()) / 2.0),
        st(std::max(w.Duration() / 2.0, 1e-12)),
        sx(std::max(w.space.Width() / 2.0, 1e-12)),
        sy(std::max(w.space.Height() / 2.0, 1e-12)) {}

  Vec4 Features(const geom::SpaceTimePoint& p) const {
    return Vec4{1.0, (p.t - tc) / st, (p.x - xc) / sx, (p.y - yc) / sy};
  }

  /// Converts normalised parameters `a` back to raw-coordinate theta.
  LinearIntensity::Theta ToRawTheta(const Vec4& a) const {
    LinearIntensity::Theta theta;
    theta[1] = a[1] / st;
    theta[2] = a[2] / sx;
    theta[3] = a[3] / sy;
    theta[0] = a[0] - theta[1] * tc - theta[2] * xc - theta[3] * yc;
    return theta;
  }
};

/// One point's normalised features `phi` and the upper-triangle products
/// `phi[i] * phi[j]` (j >= i, row-major) its Hessian terms scale. The
/// products depend only on the point, so a fit forms them once.
struct FeatureRow {
  Vec4 phi;
  std::array<double, 10> outer;
};

/// Exact log-likelihood in the normalised frame,
/// `sum_i log(a . phi_i) - V * a0` (the integral of the linear intensity
/// over the window is Volume * value-at-centroid = V * a0), storing each
/// point's intensity `a . phi_i` in `rates` for the derivative sums.
/// Returns -inf when the intensity is non-positive at any point; with
/// `stop_at_nonpositive` the pass ends there, leaving `rates` partial.
double LogLikelihood(const std::vector<FeatureRow>& rows, double volume,
                     const Vec4& a, bool stop_at_nonpositive, double* rates) {
  double ll = -volume * a[0];
  bool nonpositive = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double rate = Dot(a, rows[i].phi);
    rates[i] = rate;
    if (rate <= 0.0) {
      nonpositive = true;
      if (stop_at_nonpositive) {
        break;
      }
    } else {
      ll += std::log(rate);
    }
  }
  return nonpositive ? -std::numeric_limits<double>::infinity() : ll;
}

/// Gradient and negated Hessian `sum_i phi_i phi_i^T / rate_i^2` of the
/// log-likelihood from the intensities LogLikelihood stored. Each Hessian
/// term is `(phi[i] * phi[j]) * inv2` as if formed per evaluation; the
/// upper triangle is summed in point order and mirrored, which is exact
/// since `phi[i] * phi[j] == phi[j] * phi[i]`. The loop calls nothing,
/// so the fourteen sums stay in registers.
void Derivatives(const std::vector<FeatureRow>& rows, const double* rates,
                 double volume, Vec4* grad, std::array<Vec4, 4>* hess) {
  Vec4 g{-volume, 0.0, 0.0, 0.0};
  std::array<double, 10> upper{};
  for (std::size_t n = 0; n < rows.size(); ++n) {
    const FeatureRow& row = rows[n];
    const double inv = 1.0 / rates[n];
    const double inv2 = inv * inv;
    for (int i = 0; i < 4; ++i) {
      g[i] += row.phi[i] * inv;
    }
    for (int k = 0; k < 10; ++k) {
      upper[k] += row.outer[k] * inv2;
    }
  }
  for (int i = 0, k = 0; i < 4; ++i) {
    for (int j = i; j < 4; ++j, ++k) {
      (*hess)[i][j] = upper[k];
      (*hess)[j][i] = upper[k];
    }
  }
  *grad = g;
}

}  // namespace

Result<LinearFit> FitLinearMle(const std::vector<geom::SpaceTimePoint>& points,
                               const SpaceTimeWindow& window,
                               const LinearMleOptions& options) {
  return FitLinearMle(
      Span<const geom::SpaceTimePoint>(points.data(), points.size()), window,
      options);
}

Result<LinearFit> FitLinearMle(Span<const geom::SpaceTimePoint> points,
                               const SpaceTimeWindow& window,
                               const LinearMleOptions& options) {
  if (!window.IsValid()) {
    return Status::InvalidArgument("window must have positive volume");
  }
  if (points.empty()) {
    return Status::InvalidArgument(
        "linear MLE requires at least one observed point");
  }
  if (options.max_iterations <= 0 || !(options.tolerance > 0.0)) {
    return Status::InvalidArgument("invalid MLE options");
  }

  const Frame frame(window);
  const double volume = window.Volume();
  // Reused per thread: a fit allocates nothing once the scratch has grown
  // to the largest batch seen.
  thread_local std::vector<FeatureRow> rows;
  thread_local std::vector<double> rates;
  thread_local std::vector<double> candidate_rates;
  const std::size_t n = points.size();
  rows.resize(n);
  rates.resize(n);
  candidate_rates.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    FeatureRow& row = rows[p];
    row.phi = frame.Features(points[p]);
    for (int i = 0, k = 0; i < 4; ++i) {
      for (int j = i; j < 4; ++j, ++k) {
        row.outer[k] = row.phi[i] * row.phi[j];
      }
    }
  }

  // Initialise at the homogeneous MLE: a = (n / V, 0, 0, 0), which has
  // positive intensity at every point.
  Vec4 a{static_cast<double>(n) / volume, 0.0, 0.0, 0.0};
  double ll = LogLikelihood(rows, volume, a, /*stop_at_nonpositive=*/false,
                            rates.data());

  LinearFit fit;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    fit.iterations = iter + 1;
    // Gradient and Hessian of the exact log-likelihood at `a`, from the
    // intensities the evaluation that accepted `a` stored.
    Vec4 grad;
    std::array<Vec4, 4> hess;  // -H, positive definite
    Derivatives(rows, rates.data(), volume, &grad, &hess);
    if (MaxNorm(grad) < options.tolerance * (1.0 + std::fabs(ll))) {
      fit.converged = true;
      break;
    }
    // Newton ascent direction: delta = (-H)^{-1} grad.
    Vec4 delta{};
    const bool solved = Solve4x4(hess, grad, &delta);
    if (!solved) {
      // Singular Hessian: fall back to a (scaled) gradient step.
      const double scale = 1.0 / std::max(1.0, MaxNorm(grad));
      for (int i = 0; i < 4; ++i) {
        delta[i] = grad[i] * scale;
      }
    }
    // Backtracking line search on the exact objective; rejects steps that
    // make any point's intensity non-positive (LL = -inf).
    double step = 1.0;
    bool improved = false;
    for (int bt = 0; bt < 60; ++bt) {
      Vec4 candidate = a;
      for (int i = 0; i < 4; ++i) {
        candidate[i] += step * delta[i];
      }
      if (candidate == a) {
        // The step rounds away, and so will every shorter one: the
        // remaining candidates all evaluate to `ll` and are rejected.
        break;
      }
      const double candidate_ll =
          LogLikelihood(rows, volume, candidate, /*stop_at_nonpositive=*/true,
                        candidate_rates.data());
      if (candidate_ll > ll) {
        a = candidate;
        ll = candidate_ll;
        rates.swap(candidate_rates);
        improved = true;
        break;
      }
      step *= 0.5;
    }
    if (!improved) {
      // No ascent possible along the search direction: declare convergence
      // at the current point.
      fit.converged = MaxNorm(grad) < 1e-4 * (1.0 + std::fabs(ll));
      break;
    }
  }

  fit.theta = frame.ToRawTheta(a);
  fit.log_likelihood = ll;
  return fit;
}

// ---------------------------------------------------------------------------
// SgdEstimator

SgdEstimator::SgdEstimator(const SpaceTimeWindow& domain,
                           const Options& options)
    : domain_(domain), options_(options) {
  const Frame frame(domain);
  tc_ = frame.tc;
  xc_ = frame.xc;
  yc_ = frame.yc;
  st_ = frame.st;
  sx_ = frame.sx;
  sy_ = frame.sy;
  // Start from a weakly-informative homogeneous guess: one point per unit
  // volume, flat in space and time.
  a_ = {1.0, 0.0, 0.0, 0.0};
  last_t_ = domain.t_begin;
}

Result<SgdEstimator> SgdEstimator::Make(const SpaceTimeWindow& domain,
                                        const Options& options) {
  if (!domain.IsValid()) {
    return Status::InvalidArgument("SGD domain must have positive volume");
  }
  if (!(options.eta0 > 0.0) || !(options.decay >= 0.0) ||
      !(options.min_rate > 0.0)) {
    return Status::InvalidArgument("invalid SGD options");
  }
  return SgdEstimator(domain, options);
}

std::array<double, 4> SgdEstimator::Features(
    const geom::SpaceTimePoint& p) const {
  const double u =
      options_.use_time_feature ? (p.t - tc_) / st_ : 0.0;
  return {1.0, u, (p.x - xc_) / sx_, (p.y - yc_) / sy_};
}

void SgdEstimator::Update(const geom::SpaceTimePoint& p) {
  const double t = std::max(p.t, last_t_);
  const double dt = t - last_t_;
  last_t_ = t;
  ++updates_;

  const auto phi = Features(p);
  const double rate = std::max(Dot(a_, phi), options_.min_rate);

  // Compensator increment over the elapsed slab [last_t, t] x space:
  // integral of the linear intensity = area * dt * (a0 + a1 * u_mid) where
  // u_mid is the slab's normalised mid-time (spatial terms integrate to 0
  // over the centred rectangle).
  const double u_mid = ((t - dt / 2.0) - tc_) / st_;
  const double dv = domain_.space.Area() * dt;

  Vec4 grad;
  grad[0] = phi[0] / rate - dv;
  grad[1] = options_.use_time_feature ? phi[1] / rate - dv * u_mid : 0.0;
  grad[2] = phi[2] / rate;
  grad[3] = phi[3] / rate;

  const double eta =
      options_.eta0 /
      (1.0 + options_.eta0 * options_.decay * static_cast<double>(updates_));
  for (int i = 0; i < 4; ++i) {
    a_[i] += eta * grad[i];
  }
  // Keep the baseline level positive so RateAt stays usable.
  a_[0] = std::max(a_[0], options_.min_rate);
}

LinearIntensity::Theta SgdEstimator::theta() const {
  LinearIntensity::Theta theta;
  theta[1] = a_[1] / st_;
  theta[2] = a_[2] / sx_;
  theta[3] = a_[3] / sy_;
  theta[0] = a_[0] - theta[1] * tc_ - theta[2] * xc_ - theta[3] * yc_;
  return theta;
}

double SgdEstimator::RateAt(const geom::SpaceTimePoint& p) const {
  return std::max(Dot(a_, Features(p)), options_.min_rate);
}

// ---------------------------------------------------------------------------
// Histogram estimator

Result<IntensityPtr> FitPiecewiseConstant(
    const std::vector<geom::SpaceTimePoint>& points,
    const SpaceTimeWindow& window, std::size_t rows, std::size_t cols) {
  if (!window.IsValid()) {
    return Status::InvalidArgument("window must have positive volume");
  }
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("rows and cols must be >= 1");
  }
  const double cell_w = window.space.Width() / static_cast<double>(cols);
  const double cell_h = window.space.Height() / static_cast<double>(rows);
  const double cell_volume = cell_w * cell_h * window.Duration();
  std::vector<double> rates(rows * cols, 0.0);
  for (const auto& p : points) {
    if (!window.Contains(p)) {
      continue;
    }
    auto col = static_cast<std::size_t>((p.x - window.space.x_min()) / cell_w);
    auto row = static_cast<std::size_t>((p.y - window.space.y_min()) / cell_h);
    col = std::min(col, cols - 1);
    row = std::min(row, rows - 1);
    rates[row * cols + col] += 1.0;
  }
  for (double& r : rates) {
    r /= cell_volume;
  }
  return PiecewiseConstantIntensity::Make(window.space, rows, cols,
                                          std::move(rates));
}

}  // namespace pp
}  // namespace craqr
