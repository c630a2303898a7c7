#pragma once

#include <cstdint>
#include <string>

#include "util.h"

/// \file workloads.h
/// \brief The three closed-loop workloads of the end-to-end benchmark.

namespace e2e {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Length of the timed phase; whole rounds run until it is reached.
  double seconds = 10.0;
  /// Small sizes that run the same checks in seconds.
  bool smoke = false;
  /// Benchmark spans around public calls plus the program's trace rings.
  bool traced = false;
};

struct RunResult {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap end_to_end;
  MetricMap layers;
  /// Median wall-clock tuples per second over rounds, whatever the run's
  /// clock: the speedup of two shards over one thread compares these.
  double wall_tuples_per_s = 0.0;
  /// Benchmark spans of the run (empty unless traced).
  std::string spans_json;
};

/// CraqrEngine at its default path over a seeded crowd, with churn.
RunResult RunCityEngine(const RunConfig& config);
/// The replayed city stream into one StreamFabricator on one thread.
RunResult RunStreamInproc(const RunConfig& config);
/// The same stream through a two-shard ShardedFabricator, pipelined.
RunResult RunStreamSharded(const RunConfig& config);

}  // namespace e2e
