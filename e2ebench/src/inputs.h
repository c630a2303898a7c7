#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/rect.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"

/// \file inputs.h
/// \brief Seeded inputs of the end-to-end benchmark. Everything a workload
/// feeds the program is drawn here from BenchRng, so the inputs depend on
/// the seed and on this file only.

namespace e2e {

/// One acquisitional query of a workload.
struct QuerySpec {
  craqr::ops::AttributeId attribute = 0;
  craqr::geom::Rect region;
  /// Requested rate in tuples / km^2 / min.
  double rate = 0.0;
};

/// A churn action at the boundary before batch (or step) `at` of a round.
struct ChurnEvent {
  std::uint32_t at = 0;
  bool insert = true;
  /// Index into the round's churn specs.
  std::uint32_t spec = 0;
};

/// Size of the replayed city stream.
struct StreamSize {
  std::uint32_t batches_per_round = 64;
  std::uint32_t standing_queries = 64;
  std::uint32_t bursts_per_round = 4;
  std::uint32_t burst_size = 6;
};

/// \brief One round of the replayed city stream: K one-minute batches over
/// a 16 km x 16 km region on a 16 x 16 grid, three attributes (double
/// `temp`, bool `rain`, categorical string `label`), a uniform background
/// per attribute plus Zipf hot cells, the standing corridor queries and
/// the round's insert/cancel bursts. Every churn query inserted in a round
/// is cancelled in the same round, so rounds replay identically.
struct StreamRound {
  craqr::geom::Rect region;
  std::uint32_t grid_h = 0;
  double dt = 1.0;
  /// Input tuples in (t, id) order; ids are 1..N in that order.
  std::vector<craqr::ops::Tuple> tuples;
  /// Batch b holds tuples [batch_begin[b], batch_begin[b + 1]).
  std::vector<std::uint32_t> batch_begin;
  std::vector<QuerySpec> standing;
  std::vector<QuerySpec> churn_specs;
  /// Sorted by `at`; at a shared boundary cancels come before inserts.
  std::vector<ChurnEvent> churn;
  /// supply[s][b]: tuples of batch b with spec s's attribute inside its
  /// region; s indexes `standing` first, then `churn_specs`.
  std::vector<std::vector<std::uint32_t>> supply;

  std::uint32_t batches() const {
    return static_cast<std::uint32_t>(batch_begin.size() - 1);
  }
};

StreamRound MakeStreamRound(std::uint64_t seed, const StreamSize& size);

/// \brief Replays round r of a StreamRound: ids shift by r * N and times
/// by r * K * dt, so the replayed stream is one monotone city stream.
/// Epochs are 1-based batch numbers across rounds.
class StreamReplay {
 public:
  explicit StreamReplay(const StreamRound* round) : round_(round) {}
  const StreamRound& round() const { return *round_; }
  /// Fills `out` (cleared first) with batch `batch` of round `r`.
  void FillBatch(std::uint64_t r, std::uint32_t batch,
                 craqr::ops::TupleBatch* out) const;
  /// The input tuple with `id` exactly as it was fed, and its epoch.
  bool Find(std::uint64_t id, craqr::ops::Tuple* fed,
            std::uint64_t* epoch) const;
  std::uint64_t Epoch(std::uint64_t r, std::uint32_t batch) const {
    return r * round_->batches() + batch + 1;
  }

 private:
  const StreamRound* round_;
};

/// Size of the city-engine workload.
struct CitySize {
  std::uint32_t sensors = 4000;
  std::uint32_t standing_queries = 24;
  std::uint32_t burst_size = 4;
  /// Steps per churn round: a burst is submitted a quarter into the
  /// round and cancelled three quarters into it.
  std::uint32_t round_steps = 40;
};

/// \brief Parameters of the seeded city the engine workload builds: the
/// crowd's seed and size, the attribute set (device-sensed `temp` and
/// `aqi`, human-sensed `rain`, registered in that order), the standing
/// queries and one churn round.
struct CityPlan {
  std::uint64_t world_seed = 0;
  std::uint32_t sensors = 0;
  craqr::geom::Rect region;
  std::uint32_t grid_h = 0;
  std::vector<std::string> attribute_names;
  std::vector<QuerySpec> standing;
  std::vector<QuerySpec> churn_specs;
  std::uint32_t round_steps = 0;
  std::vector<ChurnEvent> churn;
};

CityPlan MakeCityPlan(std::uint64_t seed, const CitySize& size);

}  // namespace e2e
