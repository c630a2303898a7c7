#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "pointprocess/estimate.h"
#include "pointprocess/simulate.h"

namespace craqr {
namespace pp {
namespace {

SpaceTimeWindow FitWindow() {
  return SpaceTimeWindow{0.0, 30.0, geom::Rect(0, 0, 5, 5)};
}

TEST(LinearMleTest, ValidatesInputs) {
  const SpaceTimeWindow w = FitWindow();
  EXPECT_FALSE(FitLinearMle(std::vector<geom::SpaceTimePoint>{}, w).ok());
  EXPECT_FALSE(FitLinearMle({{1.0, 1.0, 1.0}},
                            SpaceTimeWindow{0.0, 0.0, geom::Rect(0, 0, 1, 1)})
                   .ok());
  LinearMleOptions bad;
  bad.max_iterations = 0;
  EXPECT_FALSE(FitLinearMle({{1.0, 1.0, 1.0}}, w, bad).ok());
}

TEST(LinearMleTest, HomogeneousDataRecoversConstantRate) {
  Rng rng(11);
  const SpaceTimeWindow w = FitWindow();
  const auto points = SimulateHomogeneous(&rng, 4.0, w);
  ASSERT_TRUE(points.ok());
  const auto fit = FitLinearMle(*points, w);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged);
  // Rate at the centroid should be close to the true rate; slope terms
  // should be small relative to the base rate.
  const auto c = w.Centroid();
  const double rate_at_centroid = fit->theta[0] + fit->theta[1] * c.t +
                                  fit->theta[2] * c.x + fit->theta[3] * c.y;
  EXPECT_NEAR(rate_at_centroid, 4.0, 0.4);
}

/// Parameter-recovery sweep over distinct ground-truth thetas.
struct MleCase {
  std::array<double, 4> theta;
  const char* name;
};

class LinearMleRecoveryTest : public ::testing::TestWithParam<MleCase> {};

TEST_P(LinearMleRecoveryTest, RecoversGroundTruth) {
  const MleCase test_case = GetParam();
  const SpaceTimeWindow w = FitWindow();
  const auto model = LinearIntensity::Make(test_case.theta);
  ASSERT_TRUE(model.ok());
  Rng rng(12);
  // Pool several replicates for a tight estimate.
  std::vector<geom::SpaceTimePoint> points;
  for (int rep = 0; rep < 5; ++rep) {
    const auto sample = SimulateInhomogeneous(&rng, **model, w);
    ASSERT_TRUE(sample.ok());
    points.insert(points.end(), sample->begin(), sample->end());
  }
  const auto fit = FitLinearMle(points, w);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->converged) << test_case.name;
  // Compare intensity surfaces (scaled by the replicate count) at probe
  // points rather than raw parameters: the surface is what matters.
  const auto truth = [&](const geom::SpaceTimePoint& p) {
    return 5.0 * (test_case.theta[0] + test_case.theta[1] * p.t +
                  test_case.theta[2] * p.x + test_case.theta[3] * p.y);
  };
  const auto fitted = [&](const geom::SpaceTimePoint& p) {
    return fit->theta[0] + fit->theta[1] * p.t + fit->theta[2] * p.x +
           fit->theta[3] * p.y;
  };
  for (const auto& probe :
       {geom::SpaceTimePoint{5.0, 1.0, 1.0}, geom::SpaceTimePoint{15.0, 2.5, 2.5},
        geom::SpaceTimePoint{25.0, 4.0, 4.0}}) {
    const double t = truth(probe);
    EXPECT_NEAR(fitted(probe) / t, 1.0, 0.15)
        << test_case.name << " at t=" << probe.t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GroundTruths, LinearMleRecoveryTest,
    ::testing::Values(MleCase{{2.0, 0.0, 0.0, 0.0}, "flat"},
                      MleCase{{1.0, 0.05, 0.0, 0.0}, "time_ramp"},
                      MleCase{{1.0, 0.0, 0.6, 0.0}, "x_gradient"},
                      MleCase{{1.0, 0.0, 0.0, 0.6}, "y_gradient"},
                      MleCase{{0.5, 0.03, 0.4, 0.3}, "all_slopes"}));

TEST(LinearMleTest, LogLikelihoodImprovesOverHomogeneousInit) {
  Rng rng(13);
  const SpaceTimeWindow w = FitWindow();
  const auto model = LinearIntensity::Make({0.5, 0.0, 1.0, 0.0});
  ASSERT_TRUE(model.ok());
  const auto points = SimulateInhomogeneous(&rng, **model, w);
  ASSERT_TRUE(points.ok());
  ASSERT_GT(points->size(), 10u);
  const auto fit = FitLinearMle(*points, w);
  ASSERT_TRUE(fit.ok());
  // The homogeneous LL with rate n/V.
  const double n = static_cast<double>(points->size());
  const double homogeneous_ll = n * std::log(n / w.Volume()) - n;
  EXPECT_GT(fit->log_likelihood, homogeneous_ll);
}

TEST(LinearMleTest, ToIntensityBuildsModel) {
  Rng rng(14);
  const SpaceTimeWindow w = FitWindow();
  const auto points = SimulateHomogeneous(&rng, 2.0, w);
  ASSERT_TRUE(points.ok());
  const auto fit = FitLinearMle(*points, w);
  ASSERT_TRUE(fit.ok());
  const auto intensity = fit->ToIntensity();
  ASSERT_TRUE(intensity.ok());
  EXPECT_GT((*intensity)->Rate(w.Centroid()), 0.0);
}

TEST(SgdEstimatorTest, ValidatesOptions) {
  SgdOptions bad;
  bad.eta0 = 0.0;
  EXPECT_FALSE(SgdEstimator::Make(FitWindow(), bad).ok());
  EXPECT_FALSE(
      SgdEstimator::Make(SpaceTimeWindow{0.0, 0.0, geom::Rect(0, 0, 1, 1)})
          .ok());
}

TEST(SgdEstimatorTest, ConvergesToHomogeneousRate) {
  Rng rng(15);
  const SpaceTimeWindow w{0.0, 200.0, geom::Rect(0, 0, 5, 5)};
  const auto points = SimulateHomogeneous(&rng, 3.0, w);
  ASSERT_TRUE(points.ok());
  auto estimator = SgdEstimator::Make(w);
  ASSERT_TRUE(estimator.ok());
  for (const auto& p : *points) {
    estimator->Update(p);
  }
  EXPECT_EQ(estimator->num_updates(), points->size());
  EXPECT_NEAR(estimator->RateAt(w.Centroid()), 3.0, 0.75);
}

TEST(SgdEstimatorTest, TracksSpatialGradientDirection) {
  Rng rng(16);
  const SpaceTimeWindow w{0.0, 300.0, geom::Rect(0, 0, 4, 4)};
  const auto model = LinearIntensity::Make({0.5, 0.0, 1.5, 0.0});
  ASSERT_TRUE(model.ok());
  const auto points = SimulateInhomogeneous(&rng, **model, w);
  ASSERT_TRUE(points.ok());
  auto estimator = SgdEstimator::Make(w);
  ASSERT_TRUE(estimator.ok());
  for (const auto& p : *points) {
    estimator->Update(p);
  }
  // The x-slope must come out positive and dominate the y-slope.
  const auto theta = estimator->theta();
  EXPECT_GT(theta[2], 0.0);
  EXPECT_GT(theta[2], std::fabs(theta[3]));
  // The estimated surface must be higher at large x.
  EXPECT_GT(estimator->RateAt({150.0, 3.5, 2.0}),
            estimator->RateAt({150.0, 0.5, 2.0}));
}

TEST(SgdEstimatorTest, RateStaysPositive) {
  const SpaceTimeWindow w = FitWindow();
  auto estimator = SgdEstimator::Make(w);
  ASSERT_TRUE(estimator.ok());
  // Feed adversarial corner-only points.
  for (int i = 0; i < 100; ++i) {
    estimator->Update({static_cast<double>(i) * 0.01, 0.0, 0.0});
  }
  EXPECT_GT(estimator->RateAt({0.5, 4.9, 4.9}), 0.0);
}

TEST(PiecewiseConstantEstimatorTest, RecoversCellRates) {
  Rng rng(17);
  const SpaceTimeWindow w{0.0, 100.0, geom::Rect(0, 0, 2, 2)};
  // Left half rate 1, right half rate 5.
  const auto model = PiecewiseConstantIntensity::Make(
      geom::Rect(0, 0, 2, 2), 1, 2, {1.0, 5.0});
  ASSERT_TRUE(model.ok());
  const auto points = SimulateInhomogeneous(&rng, **model, w);
  ASSERT_TRUE(points.ok());
  const auto fitted = FitPiecewiseConstant(*points, w, 1, 2);
  ASSERT_TRUE(fitted.ok());
  EXPECT_NEAR((*fitted)->Rate({50.0, 0.5, 1.0}), 1.0, 0.25);
  EXPECT_NEAR((*fitted)->Rate({50.0, 1.5, 1.0}), 5.0, 0.5);
}

TEST(PiecewiseConstantEstimatorTest, ValidatesInputs) {
  EXPECT_FALSE(FitPiecewiseConstant(
                   {}, SpaceTimeWindow{0.0, 0.0, geom::Rect(0, 0, 1, 1)}, 2, 2)
                   .ok());
  EXPECT_FALSE(FitPiecewiseConstant({}, FitWindow(), 0, 2).ok());
}

TEST(PiecewiseConstantEstimatorTest, IgnoresPointsOutsideWindow) {
  const SpaceTimeWindow w{0.0, 10.0, geom::Rect(0, 0, 2, 2)};
  const std::vector<geom::SpaceTimePoint> points = {
      {5.0, 1.0, 1.0}, {50.0, 1.0, 1.0}, {5.0, 10.0, 1.0}};
  const auto fitted = FitPiecewiseConstant(points, w, 1, 1);
  ASSERT_TRUE(fitted.ok());
  // Only the first point is inside: rate = 1 / (4 km^2 * 10 min).
  EXPECT_NEAR((*fitted)->Rate({5.0, 1.0, 1.0}), 1.0 / 40.0, 1e-9);
}

// ---------------------------------------------------------------------------
// FitLinearMle vs the two-pass reference, bit for bit.

/// The two-pass damped-Newton fit FitLinearMle replaced, kept verbatim as
/// the bit-exactness reference: a separate log-likelihood pass per
/// line-search candidate and a separate gradient/Hessian pass (all
/// sixteen Hessian entries) per Newton iteration. Counts the corner paths
/// a sweep must reach to cover the fit.
namespace reference {

struct Paths {
  /// Newton iterations that took the singular-Hessian gradient fallback.
  int fallbacks = 0;
  /// Line searches that rejected all 60 candidates.
  int failed_searches = 0;
};

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

double LogLikelihood(const std::vector<Vec4>& features, double volume,
                     const Vec4& a) {
  double ll = -volume * a[0];
  for (const auto& phi : features) {
    const double rate = Dot(a, phi);
    if (rate <= 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    ll += std::log(rate);
  }
  return ll;
}

LinearFit Fit(const std::vector<geom::SpaceTimePoint>& points,
              const SpaceTimeWindow& window, Paths* paths) {
  const double tc = (window.t_begin + window.t_end) / 2.0;
  const double xc = (window.space.x_min() + window.space.x_max()) / 2.0;
  const double yc = (window.space.y_min() + window.space.y_max()) / 2.0;
  const double st = std::max(window.Duration() / 2.0, 1e-12);
  const double sx = std::max(window.space.Width() / 2.0, 1e-12);
  const double sy = std::max(window.space.Height() / 2.0, 1e-12);
  const LinearMleOptions options;
  const double volume = window.Volume();
  std::vector<Vec4> features;
  for (const auto& p : points) {
    features.push_back(
        Vec4{1.0, (p.t - tc) / st, (p.x - xc) / sx, (p.y - yc) / sy});
  }
  Vec4 a{static_cast<double>(points.size()) / volume, 0.0, 0.0, 0.0};
  double ll = LogLikelihood(features, volume, a);
  LinearFit fit;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    fit.iterations = iter + 1;
    Vec4 grad{-volume, 0.0, 0.0, 0.0};
    std::array<Vec4, 4> hess{};
    for (const auto& phi : features) {
      const double rate = Dot(a, phi);
      const double inv = 1.0 / rate;
      const double inv2 = inv * inv;
      for (int i = 0; i < 4; ++i) {
        grad[i] += phi[i] * inv;
        for (int j = 0; j < 4; ++j) {
          hess[i][j] += phi[i] * phi[j] * inv2;
        }
      }
    }
    if (MaxNorm(grad) < options.tolerance * (1.0 + std::fabs(ll))) {
      fit.converged = true;
      break;
    }
    Vec4 delta{};
    if (!Solve4x4(hess, grad, &delta)) {
      ++paths->fallbacks;
      const double scale = 1.0 / std::max(1.0, MaxNorm(grad));
      for (int i = 0; i < 4; ++i) {
        delta[i] = grad[i] * scale;
      }
    }
    double step = 1.0;
    bool improved = false;
    for (int bt = 0; bt < 60; ++bt) {
      Vec4 candidate = a;
      for (int i = 0; i < 4; ++i) {
        candidate[i] += step * delta[i];
      }
      const double candidate_ll = LogLikelihood(features, volume, candidate);
      if (candidate_ll > ll) {
        a = candidate;
        ll = candidate_ll;
        improved = true;
        break;
      }
      step *= 0.5;
    }
    if (!improved) {
      ++paths->failed_searches;
      fit.converged = MaxNorm(grad) < 1e-4 * (1.0 + std::fabs(ll));
      break;
    }
  }
  fit.theta[1] = a[1] / st;
  fit.theta[2] = a[2] / sx;
  fit.theta[3] = a[3] / sy;
  fit.theta[0] = a[0] - fit.theta[1] * tc - fit.theta[2] * xc -
                 fit.theta[3] * yc;
  fit.log_likelihood = ll;
  return fit;
}

}  // namespace reference

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The point-set shapes of the sweep, each a known corner of the fit.
enum class PointShape {
  kUniform,        // generic interior scatter
  kInhomogeneous,  // a sample of a sloped linear intensity
  kClustered,      // a few tight clusters
  kSingleInstant,  // every point at one time, Flatten's degenerate window
  kCollinear,      // every point on one line in space
  kWindowEdge,     // coordinates exactly on the window's faces
  kFlatPlane,      // every point at the centre time and x: singular Hessian
  kNumShapes
};

/// Draws `n` points of `shape` and the window they are fitted over.
void DrawBatch(Rng* rng, PointShape shape, std::size_t n,
               std::vector<geom::SpaceTimePoint>* points,
               SpaceTimeWindow* window) {
  const double x0 = rng->Uniform(-5.0, 5.0);
  const double y0 = rng->Uniform(-5.0, 5.0);
  const double t0 = rng->Uniform(0.0, 100.0);
  *window = SpaceTimeWindow{t0, t0 + rng->Uniform(0.5, 30.0),
                            geom::Rect(x0, y0, x0 + rng->Uniform(0.5, 4.0),
                                       y0 + rng->Uniform(0.5, 4.0))};
  const geom::Rect& r = window->space;
  const auto random_point = [&]() {
    return geom::SpaceTimePoint{rng->Uniform(window->t_begin, window->t_end),
                                rng->Uniform(r.x_min(), r.x_max()),
                                rng->Uniform(r.y_min(), r.y_max())};
  };
  points->clear();
  switch (shape) {
    case PointShape::kInhomogeneous: {
      const double base = rng->Uniform(0.5, 2.0);
      const LinearIntensity::Theta theta{
          base, 0.0, rng->Uniform(0.0, 1.0) * base / r.Width(),
          rng->Uniform(-1.0, 0.0) * base / (2.0 * r.Height())};
      const auto model =
          LinearIntensity::Make({theta[0] - theta[2] * r.x_min() -
                                     theta[3] * r.y_max(),
                                 theta[1], theta[2], theta[3]})
              .MoveValue();
      const auto sample = SimulateInhomogeneous(rng, *model, *window);
      if (sample.ok()) {
        for (const auto& p : *sample) {
          if (points->size() < n) {
            points->push_back(p);
          }
        }
      }
      while (points->size() < n) {
        points->push_back(random_point());
      }
      break;
    }
    case PointShape::kClustered: {
      std::vector<geom::SpaceTimePoint> centres(1 + rng->UniformInt(3));
      for (auto& c : centres) {
        c = random_point();
      }
      const double spread = rng->Uniform(1e-6, 0.05);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& c = centres[rng->UniformInt(centres.size())];
        points->push_back(
            {std::clamp(c.t + rng->Uniform(-spread, spread), window->t_begin,
                        window->t_end),
             std::clamp(c.x + rng->Uniform(-spread, spread), r.x_min(),
                        r.x_max()),
             std::clamp(c.y + rng->Uniform(-spread, spread), r.y_min(),
                        r.y_max())});
      }
      break;
    }
    case PointShape::kSingleInstant: {
      // Flatten prices a single-instant batch over [t, t + 1e-6].
      window->t_end = window->t_begin + 1e-6;
      for (std::size_t i = 0; i < n; ++i) {
        auto p = random_point();
        p.t = window->t_begin;
        points->push_back(p);
      }
      break;
    }
    case PointShape::kCollinear: {
      const double slope = rng->Uniform(-1.0, 1.0);
      for (std::size_t i = 0; i < n; ++i) {
        auto p = random_point();
        p.y = std::clamp(r.y_min() + r.Height() / 2.0 +
                             slope * (p.x - r.x_min() - r.Width() / 2.0),
                         r.y_min(), r.y_max());
        points->push_back(p);
      }
      break;
    }
    case PointShape::kWindowEdge: {
      for (std::size_t i = 0; i < n; ++i) {
        auto p = random_point();
        switch (rng->UniformInt(4)) {
          case 0:
            p.x = rng->Bernoulli(0.5) ? r.x_min() : r.x_max();
            break;
          case 1:
            p.y = rng->Bernoulli(0.5) ? r.y_min() : r.y_max();
            break;
          case 2:
            p.t = rng->Bernoulli(0.5) ? window->t_begin : window->t_end;
            break;
          default:
            p = {window->t_end, r.x_max(), r.y_min()};
            break;
        }
        points->push_back(p);
      }
      break;
    }
    case PointShape::kFlatPlane: {
      // Zero time and x features: two all-zero Hessian rows.
      for (std::size_t i = 0; i < n; ++i) {
        auto p = random_point();
        p.t = (window->t_begin + window->t_end) / 2.0;
        p.x = (r.x_min() + r.x_max()) / 2.0;
        points->push_back(p);
      }
      break;
    }
    case PointShape::kUniform:
    case PointShape::kNumShapes:
      for (std::size_t i = 0; i < n; ++i) {
        points->push_back(random_point());
      }
      break;
  }
}

TEST(LinearMleTest, FitIsBitIdenticalToTwoPassReference) {
  constexpr int kBatches = 1400;
  constexpr int kShapes = static_cast<int>(PointShape::kNumShapes);
  Rng rng(0x4D4C45);
  std::vector<geom::SpaceTimePoint> points;
  SpaceTimeWindow window;
  std::array<reference::Paths, kShapes> paths{};
  for (int b = 0; b < kBatches; ++b) {
    const auto shape = static_cast<PointShape>(b % kShapes);
    const std::size_t n = 8 + rng.UniformInt(249);  // 8..256
    DrawBatch(&rng, shape, n, &points, &window);
    SCOPED_TRACE("batch " + std::to_string(b) + " shape " +
                 std::to_string(b % kShapes) + " n " + std::to_string(n));
    const LinearFit expected =
        reference::Fit(points, window, &paths[b % kShapes]);
    const auto fit = FitLinearMle(points, window);
    ASSERT_TRUE(fit.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(SameBits(fit->theta[i], expected.theta[i]))
          << "theta[" << i << "] " << fit->theta[i] << " vs "
          << expected.theta[i];
    }
    ASSERT_TRUE(SameBits(fit->log_likelihood, expected.log_likelihood))
        << fit->log_likelihood << " vs " << expected.log_likelihood;
    ASSERT_EQ(fit->iterations, expected.iterations);
    ASSERT_EQ(fit->converged, expected.converged);
  }
  // The sweep reaches the corner paths it is meant to cover.
  EXPECT_GT(paths[static_cast<int>(PointShape::kFlatPlane)].fallbacks, 0);
  EXPECT_GT(paths[static_cast<int>(PointShape::kSingleInstant)].fallbacks, 0);
  EXPECT_GT(paths[static_cast<int>(PointShape::kInhomogeneous)].failed_searches,
            0);
}


}  // namespace
}  // namespace pp
}  // namespace craqr
