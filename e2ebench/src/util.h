#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "ops/tuple.h"

/// \file util.h
/// \brief Measurement helpers of the end-to-end benchmark: a private input
/// PRNG, wall-clock, CPU-clock and resident-memory probes, the benchmark's
/// own span log, registry deltas and the result line.

namespace e2e {

/// Steady-clock nanoseconds.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread in nanoseconds (user and system). It
/// advances only while the thread runs: time the hypervisor steals and time
/// other processes hold the CPU are not in it.
std::uint64_t ThreadCpuNs();

/// A nanosecond clock the timed phase reads: ThreadCpuNs for a workload
/// that runs on the calling thread alone, NowNs for one that waits on
/// worker threads.
using Clock = std::uint64_t (*)();

/// \brief SplitMix64 stream used for every benchmark input. It lives here,
/// not in the library, so no change to the program can alter what a seed
/// feeds it.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform integer in [0, n), n >= 1.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  /// Poisson draw (inversion for small means, normal approximation above).
  std::uint64_t Poisson(double mean);

 private:
  std::uint64_t state_;
};

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Current resident set size in bytes (from /proc/self/statm).
std::size_t ResidentBytes();

/// \brief Peak resident memory above a baseline, sampled at most every
/// `interval_ns` from the caller's loop.
class RssPeak {
 public:
  /// Takes the baseline now.
  RssPeak();
  void Sample();
  /// Samples unconditionally.
  void SampleNow();
  double PeakMb() const;

 private:
  std::size_t baseline_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t last_ns_ = 0;
};

/// \brief The benchmark's own spans around public calls, kept in memory
/// and written as Chrome-trace events at exit. Disabled logs record
/// nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 16);
    }
  }
  bool enabled() const { return enabled_; }
  void Add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t arg) {
    if (enabled_) {
      spans_.push_back({name, start_ns, end_ns, arg});
    }
  }
  /// Comma-separated Chrome "X" events (no surrounding brackets).
  std::string ChromeEvents(int pid) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t arg;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// `after - before` bucket by bucket (count, sum and buckets; max kept from
/// `after`), so process-wide registry histograms can be read per phase.
craqr::obs::HistogramSnapshot HistogramDelta(
    const craqr::obs::HistogramSnapshot& after,
    const craqr::obs::HistogramSnapshot& before);

/// Snapshot of a registry histogram by name (created when absent).
craqr::obs::HistogramSnapshot HistogramByName(const std::string& name);
/// Value of a registry counter by name (created when absent).
std::uint64_t CounterByName(const std::string& name);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricMap& metrics);

/// FNV-1a fold of one delivered tuple (id, t, x, y, attribute, value).
std::uint64_t DigestTuple(std::uint64_t h, const craqr::ops::Tuple& tuple);
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace e2e
