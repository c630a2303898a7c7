#include "server/handler.h"

#include <cmath>

#include "common/macros.h"

namespace craqr {
namespace server {

Result<RequestResponseHandler> RequestResponseHandler::Make(
    sensing::MobileSensorNetwork* network, BudgetManager* budgets,
    const geom::Grid& grid, const HandlerConfig& config) {
  if (network == nullptr) {
    return Status::InvalidArgument("handler requires a sensor network");
  }
  if (budgets == nullptr) {
    return Status::InvalidArgument("handler requires a budget manager");
  }
  if (!(config.dispatch_interval > 0.0)) {
    return Status::InvalidArgument("dispatch interval must be > 0");
  }
  return RequestResponseHandler(network, budgets, grid, config);
}

Status RequestResponseHandler::Subscribe(ops::AttributeId attribute,
                                         const geom::CellIndex& cell) {
  if (cell.q >= grid_.CellsPerSide() || cell.r >= grid_.CellsPerSide()) {
    return Status::OutOfRange("cell " + cell.ToString() +
                              " outside the grid");
  }
  ++subscriptions_[BudgetKey{attribute, cell}];
  return Status::OK();
}

Status RequestResponseHandler::Unsubscribe(ops::AttributeId attribute,
                                           const geom::CellIndex& cell) {
  const BudgetKey key{attribute, cell};
  auto it = subscriptions_.find(key);
  if (it == subscriptions_.end()) {
    return Status::NotFound("no subscription for attribute " +
                            std::to_string(attribute) + " on cell " +
                            cell.ToString());
  }
  if (--it->second == 0) {
    subscriptions_.erase(it);
    budgets_->Forget(key);
  }
  return Status::OK();
}

void RequestResponseHandler::SetIncentive(ops::AttributeId attribute,
                                          double incentive) {
  incentives_[attribute] = incentive;
}

double RequestResponseHandler::GetIncentive(ops::AttributeId attribute) const {
  const auto it = incentives_.find(attribute);
  return it == incentives_.end() ? config_.default_incentive : it->second;
}

Status RequestResponseHandler::Step(double now, ops::TupleBatch* out) {
  // Only `out` is touched; all carried state (pending_ and the dispatch
  // clock) is internal, so this call may overlap shard processing of any
  // previously produced batch (see the pipelining contract in handler.h).
  out->Clear();
  if (!dispatched_once_) {
    next_dispatch_ = now;
    dispatched_once_ = true;
  }
  // Run every dispatch round due by `now`.
  while (next_dispatch_ <= now) {
    for (const auto& [key, refcount] : subscriptions_) {
      (void)refcount;
      const double budget = budgets_->GetBudget(key);
      const auto count = static_cast<std::size_t>(std::llround(budget));
      if (count == 0) {
        continue;
      }
      sensing::AcquisitionRequest request;
      request.attribute = key.attribute;
      request.region = grid_.CellRect(key.cell);
      request.count = count;
      request.incentive = GetIncentive(key.attribute);
      request.now = next_dispatch_;
      request.response_spread = config_.dispatch_interval;
      CRAQR_ASSIGN_OR_RETURN(std::vector<ops::Tuple> responses,
                             network_->SendRequests(request));
      requests_sent_ += count;
      for (auto& tuple : responses) {
        pending_.push(tuple);
      }
    }
    next_dispatch_ += config_.dispatch_interval;
  }
  // Deliver everything that has arrived by `now`, in arrival order,
  // scattering straight into the batch columns.
  while (!pending_.empty() && pending_.top().point.t <= now) {
    out->Append(pending_.top());
    pending_.pop();
  }
  tuples_delivered_ += out->size();
  return Status::OK();
}

}  // namespace server
}  // namespace craqr
