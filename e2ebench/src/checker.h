#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "ops/tuple.h"

/// \file checker.h
/// \brief Checks of delivered query streams against the benchmark's own
/// inputs and against properties the method must have. The program's
/// current output is never the reference.

namespace e2e {

/// \brief Tolerance of the delivered count D of a query around its
/// requested volume L = rate * area * live time:
/// L * (1 - below) - z * sqrt(L) <= D <= L * (1 + above) + z * sqrt(L).
/// The z term is the Poisson noise of D; `below` admits the method's own
/// shortfall (F clamps retaining probabilities above 1 on small per-step
/// batches). Applied to queries with L >= `min_expected` whose supply is
/// at least `supply_factor` * L (stream workloads) or whose budget never
/// saturated (city workload).
struct RateTolerance {
  double z = 5.0;
  double below = 0.10;
  double above = 0.03;
  double min_expected = 200.0;
  double supply_factor = 2.0;
};

/// \brief Per-query delivered-stream checker. Queries are keyed by a
/// benchmark-side slot number (the order the workload admitted them), so
/// two execution paths can be compared slot by slot.
class DeliveryChecker {
 public:
  /// With `replay` every delivered tuple must be an input tuple fed while
  /// its query was live; without it (city workload) the checker enforces
  /// region, attribute, value kind, order and id uniqueness only.
  /// `value_kinds[a]` is the payload kind attribute a must carry.
  DeliveryChecker(const StreamReplay* replay,
                  std::vector<craqr::ops::PayloadKind> value_kinds);

  /// Registers a query admitted before epoch `open_epoch` was fed.
  void Open(std::uint64_t slot, const QuerySpec& spec,
            std::uint64_t open_epoch);
  /// The query was cancelled after epoch `last_epoch` was fed.
  void Close(std::uint64_t slot, std::uint64_t last_epoch);
  /// Adds input tuples fed while the query was live that lie in its
  /// region and carry its attribute.
  void AddSupply(std::uint64_t slot, std::uint64_t n);
  /// Marks a query whose acquisition budget saturated (rate check skipped).
  void MarkSaturated(std::uint64_t slot);

  /// Checks one chunk of a query's deliveries, taken from its sink after a
  /// processing step (one ProcessBatch, drain or engine step). Returns
  /// false and keeps the first error on a violation.
  bool Consume(std::uint64_t slot, const std::vector<craqr::ops::Tuple>& chunk);

  /// End-of-run checks: id uniqueness (without replay) and the rate
  /// tolerance. Open queries count as live through `end_epoch`.
  bool Finish(const RateTolerance& tolerance, double dt,
              std::uint64_t end_epoch);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  std::uint64_t delivered() const { return delivered_; }
  /// Order-sensitive FNV digest of every slot's delivered stream.
  std::map<std::uint64_t, std::uint64_t> Digests() const;
  /// Queries the rate tolerance was applied to, and the largest
  /// |D - L| / L seen among them.
  std::size_t rate_checked() const { return rate_checked_; }
  double worst_rate_error() const { return worst_rate_error_; }

 private:
  struct Query {
    QuerySpec spec;
    std::uint64_t open_epoch = 0;
    std::uint64_t last_epoch = 0;  // 0 while live
    std::uint64_t supply = 0;
    std::uint64_t delivered = 0;
    bool saturated = false;
    bool has_last = false;
    double last_t = 0.0;
    std::uint64_t last_id = 0;
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> ids;  // without replay: uniqueness at Finish
  };
  bool Fail(std::uint64_t slot, const std::string& what);

  const StreamReplay* replay_;
  std::vector<craqr::ops::PayloadKind> value_kinds_;
  std::map<std::uint64_t, Query> queries_;
  std::uint64_t delivered_ = 0;
  std::size_t rate_checked_ = 0;
  double worst_rate_error_ = 0.0;
  std::string error_;
};

/// Compares two digest maps; returns an empty string when equal.
std::string CompareDigests(const std::map<std::uint64_t, std::uint64_t>& a,
                           const std::map<std::uint64_t, std::uint64_t>& b);

}  // namespace e2e
