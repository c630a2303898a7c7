/// \file bench_estimation.cc
/// \brief Experiment E5 — conditional-rate estimation quality and cost.
///
/// Paper Section III-A: theta of Eq. (1) is estimated "using techniques
/// like maximum-likelihood estimation [12]" and, over sliding windows,
/// "online parameter estimation algorithms like stochastic gradient
/// descent [13]".  We sweep the sample size and report estimation error
/// (RMS relative intensity error over probe points), Newton iterations
/// and CPU time per fit for the batch MLE (`--json <path>` writes the
/// per-fit times in the BENCH_*.json row format), then compare the online
/// SGD estimator's tracking error and throughput.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "bench_json.h"

#include "common/rng.h"
#include "pointprocess/estimate.h"
#include "pointprocess/simulate.h"

namespace {

using namespace craqr;  // NOLINT

double SurfaceRmsError(const pp::LinearIntensity::Theta& truth,
                       const pp::LinearIntensity::Theta& fitted,
                       const pp::SpaceTimeWindow& window) {
  double sum = 0.0;
  int count = 0;
  for (double ft = 0.1; ft < 1.0; ft += 0.2) {
    for (double fx = 0.1; fx < 1.0; fx += 0.2) {
      for (double fy = 0.1; fy < 1.0; fy += 0.2) {
        const geom::SpaceTimePoint p{
            window.t_begin + ft * window.Duration(),
            window.space.x_min() + fx * window.space.Width(),
            window.space.y_min() + fy * window.space.Height()};
        const double t = truth[0] + truth[1] * p.t + truth[2] * p.x +
                         truth[3] * p.y;
        const double f = fitted[0] + fitted[1] * p.t + fitted[2] * p.x +
                         fitted[3] * p.y;
        const double rel = (f - t) / t;
        sum += rel * rel;
        ++count;
      }
    }
  }
  return std::sqrt(sum / count);
}

/// Calling thread's CPU time: steal and other processes stay out of it.
double ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Independent samples per MLE row, and timed rounds (the fastest is
/// reported).
constexpr std::size_t kPoolSize = 64;
constexpr int kTimedRounds = 5;

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ExtractJsonPath(&argc, argv);
  std::printf("=== E5: theta estimation (batch MLE vs online SGD) ===\n\n");
  const geom::Rect space(0, 0, 5, 5);
  const pp::LinearIntensity::Theta truth{1.0, 0.01, 0.5, 0.3};
  const auto model = pp::LinearIntensity::Make(truth).MoveValue();

  std::printf("ground truth theta = [%.2f, %.3f, %.2f, %.2f]\n\n", truth[0],
              truth[1], truth[2], truth[3]);
  std::printf("--- batch MLE: error and cost vs sample size ---\n");
  std::printf("%-10s %-10s %-14s %-10s %-10s %-12s\n", "target n",
              "mean n", "median rms err", "iters", "conv", "ns/fit");

  // Flatten fits one batch per cell and step, so the small sizes (8 to 32
  // points) are the ones its hot path pays for; the long windows show
  // the estimate converging. Each row times fits cycled over a pool of
  // independent samples of the same window and keeps the fastest round.
  std::vector<benchjson::Entry> entries;
  const double per_minute = model->Integral({0.0, 1.0, space});
  std::vector<double> durations;
  for (const double n : {8.0, 16.0, 32.0}) {
    durations.push_back(n / per_minute);
  }
  for (const double duration : {1.0, 3.0, 10.0, 30.0, 100.0, 300.0}) {
    durations.push_back(duration);
  }
  for (std::size_t d = 0; d < durations.size(); ++d) {
    const pp::SpaceTimeWindow window{0.0, durations[d], space};
    Rng rng(500 + d);
    std::vector<std::vector<geom::SpaceTimePoint>> pool;
    std::size_t total_points = 0;
    while (pool.size() < kPoolSize) {
      auto points = pp::SimulateInhomogeneous(&rng, *model, window).MoveValue();
      if (points.size() >= 2) {
        total_points += points.size();
        pool.push_back(std::move(points));
      }
    }
    const double mean_n =
        static_cast<double>(total_points) / static_cast<double>(pool.size());
    // Median error: a few-point fit can put the surface's zero inside the
    // window, where the relative error of one sample is unbounded.
    std::vector<double> errors;
    double iterations = 0.0;
    std::size_t converged = 0;
    for (const auto& points : pool) {
      const auto fit = pp::FitLinearMle(points, window).MoveValue();
      errors.push_back(SurfaceRmsError(truth, fit.theta, window));
      iterations += fit.iterations;
      converged += fit.converged ? 1 : 0;
    }
    std::nth_element(errors.begin(), errors.begin() + errors.size() / 2,
                     errors.end());
    // Fits per timed round: about 2^21 fitted points, at least the pool.
    const std::size_t fits = std::max<std::size_t>(
        pool.size(), static_cast<std::size_t>((1 << 21) / mean_n));
    double best_ns = 0.0;
    double sink = 0.0;
    for (int round = 0; round < kTimedRounds; ++round) {
      const double start = ThreadCpuNs();
      for (std::size_t i = 0; i < fits; ++i) {
        sink += pp::FitLinearMle(pool[i % pool.size()], window)
                    ->log_likelihood;
      }
      const double ns = (ThreadCpuNs() - start) / static_cast<double>(fits);
      best_ns = round == 0 ? ns : std::min(best_ns, ns);
    }
    const double count = static_cast<double>(pool.size());
    std::printf("%-10.0f %-10.1f %-14.4f %-10.2f %-10.2f %-12.0f\n",
                model->Integral(window), mean_n, errors[errors.size() / 2],
                iterations / count, static_cast<double>(converged) / count,
                best_ns);
    // Reading the sum keeps the timed fits from being optimized away.
    if (!std::isfinite(sink)) {
      std::printf("(non-finite log-likelihood sum)\n");
    }
    char name[64];
    std::snprintf(name, sizeof(name), "BM_LinearMle/n=%.0f",
                  model->Integral(window));
    entries.push_back({name, static_cast<std::uint64_t>(fits), best_ns,
                       mean_n * 1e9 / best_ns});
  }
  if (!json_path.empty()) {
    benchjson::WriteEntries(json_path, entries);
  }

  std::printf("\n--- online SGD: tracking error vs stream length ---\n");
  std::printf("%-10s %-14s %-14s %-12s\n", "n", "rms rel err",
              "tuples/sec", "time (us)");
  for (const double duration : {10.0, 30.0, 100.0, 300.0, 1000.0}) {
    const pp::SpaceTimeWindow window{0.0, duration, space};
    Rng rng(900 + static_cast<std::uint64_t>(duration));
    const auto points =
        pp::SimulateInhomogeneous(&rng, *model, window).MoveValue();
    auto estimator = pp::SgdEstimator::Make(window).MoveValue();
    const auto start = std::chrono::steady_clock::now();
    for (const auto& p : points) {
      estimator.Update(p);
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const double seconds = static_cast<double>(elapsed) / 1e6;
    std::printf("%-10zu %-14.4f %-14.0f %-12lld\n", points.size(),
                SurfaceRmsError(truth, estimator.theta(), window),
                seconds > 0 ? static_cast<double>(points.size()) / seconds
                            : 0.0,
                static_cast<long long>(elapsed));
  }
  std::printf("\nMLE error shrinks roughly as 1/sqrt(n) and converges in a\n"
              "handful of Newton steps; SGD is one pass, rate-limited only\n"
              "by memory bandwidth, and converges to the same surface —\n"
              "which is what makes the sliding-window Flatten mode viable.\n");
  return 0;
}
