#pragma once

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "geometry/grid.h"
#include "ops/tuple.h"
#include "ops/tuple_batch.h"
#include "sensing/world.h"
#include "server/budget.h"

/// \file handler.h
/// \brief The request/response handler (paper Section IV-A, Fig. 1).
///
/// "The request/response handler has the task of sending data acquisition
/// requests to mobile sensors and collecting their responses."  One
/// subscription exists per (attribute, grid cell) that at least one query
/// touches; each dispatch round sends `budget` requests per subscription
/// and collects the (delayed) responses into time-ordered batches for the
/// stream fabricator.

namespace craqr {
namespace server {

/// \brief Handler parameters.
struct HandlerConfig {
  /// Minutes between dispatch rounds.
  double dispatch_interval = 1.0;
  /// Incentive offered per request (extension hook; see
  /// IncentiveController).
  double default_incentive = 1.0;
};

/// \brief Sends acquisition requests per subscription and delivers arrived
/// responses in time order.
class RequestResponseHandler {
 public:
  /// Creates a handler over a sensor network and a budget manager; both
  /// pointers must outlive the handler.
  static Result<RequestResponseHandler> Make(
      sensing::MobileSensorNetwork* network, BudgetManager* budgets,
      const geom::Grid& grid, const HandlerConfig& config = HandlerConfig());

  /// Activates acquisition for (attribute, cell); idempotent via
  /// reference counting — overlapping queries on the same cell share one
  /// subscription (multi-query sharing).
  Status Subscribe(ops::AttributeId attribute, const geom::CellIndex& cell);

  /// Releases one reference; acquisition stops when the count hits zero.
  Status Unsubscribe(ops::AttributeId attribute, const geom::CellIndex& cell);

  /// Number of live subscriptions.
  std::size_t NumSubscriptions() const { return subscriptions_.size(); }

  /// \brief Runs dispatch rounds up to `now` and appends every response
  /// whose arrival time is <= `now`, in arrival-time order, to `out` — the
  /// batch the fabricator consumes ("when the request/response handler
  /// sends a batch of tuples for attribute A<j> ..."). The batch columns
  /// are built directly (no intermediate tuple vector); `out` is cleared
  /// first and its capacity recycles across steps.
  ///
  /// Pipelining contract: the handler writes only into the caller-owned
  /// `out` and holds no reference to it (or to any previous step's batch)
  /// after returning, so the engine may hand a different recycled batch
  /// each step while earlier ones are still referenced by in-flight shard
  /// work. Dispatch reads the budget/incentive state as of the call — the
  /// engine's epoch contract guarantees that state is identical across
  /// execution modes at every dispatch point.
  Status Step(double now, ops::TupleBatch* out);

  /// Sets the incentive offered on future requests for one attribute
  /// (Section VI incentive extension).
  void SetIncentive(ops::AttributeId attribute, double incentive);

  /// Incentive currently offered for an attribute.
  double GetIncentive(ops::AttributeId attribute) const;

  /// Total acquisition requests sent so far.
  std::uint64_t requests_sent() const { return requests_sent_; }

  /// Total tuples delivered to the fabricator so far.
  std::uint64_t tuples_delivered() const { return tuples_delivered_; }

  /// Responses still in flight (arrival time in the future).
  std::size_t pending_responses() const { return pending_.size(); }

 private:
  RequestResponseHandler(sensing::MobileSensorNetwork* network,
                         BudgetManager* budgets, const geom::Grid& grid,
                         const HandlerConfig& config)
      : network_(network), budgets_(budgets), grid_(grid), config_(config) {}

  struct ArrivalLater {
    bool operator()(const ops::Tuple& a, const ops::Tuple& b) const {
      return a.point.t > b.point.t;  // min-heap on arrival time
    }
  };

  sensing::MobileSensorNetwork* network_;
  BudgetManager* budgets_;
  geom::Grid grid_;
  HandlerConfig config_;
  std::unordered_map<BudgetKey, std::uint32_t, BudgetKeyHash> subscriptions_;
  std::unordered_map<ops::AttributeId, double> incentives_;
  std::priority_queue<ops::Tuple, std::vector<ops::Tuple>, ArrivalLater>
      pending_;
  double next_dispatch_ = 0.0;
  bool dispatched_once_ = false;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t tuples_delivered_ = 0;
};

}  // namespace server
}  // namespace craqr
