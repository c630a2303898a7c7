#include "core/naive.h"

#include "common/macros.h"

namespace craqr {
namespace engine {

Result<std::unique_ptr<NaiveEngine>> NaiveEngine::Make(
    sensing::CrowdWorld world, const EngineConfig& config) {
  if (!(config.step_dt > 0.0)) {
    return Status::InvalidArgument("step_dt must be > 0");
  }
  CRAQR_ASSIGN_OR_RETURN(
      geom::Grid grid,
      geom::Grid::Make(world.population().region(), config.grid_h));
  return std::unique_ptr<NaiveEngine>(
      new NaiveEngine(std::move(world), grid, config));
}

Result<fabric::QueryStream> NaiveEngine::Submit(
    const query::AcquisitionQuery& q) {
  CRAQR_RETURN_NOT_OK(q.Validate());
  CRAQR_ASSIGN_OR_RETURN(const ops::AttributeId attribute,
                         world_.AttributeIdByName(q.attribute));

  CRAQR_ASSIGN_OR_RETURN(server::BudgetManager budgets,
                         server::BudgetManager::Make(config_.budget));
  auto slot = std::make_unique<Slot>(std::move(budgets));
  CRAQR_ASSIGN_OR_RETURN(slot->fabricator,
                         fabric::StreamFabricator::Make(grid_, config_.fabric));
  CRAQR_ASSIGN_OR_RETURN(
      server::RequestResponseHandler handler,
      server::RequestResponseHandler::Make(&world_, &slot->budgets, grid_,
                                           config_.handler));
  slot->handler.emplace(std::move(handler));

  // Private budget tuning loop, one per query — nothing is shared.
  server::BudgetManager* slot_budgets = &slot->budgets;
  slot->fabricator->SetViolationCallback(
      [slot_budgets](ops::AttributeId attr, const geom::CellIndex& cell,
                     const ops::FlattenBatchReport& report) {
        slot_budgets->ReportViolation(server::BudgetKey{attr, cell},
                                      report.violation_percent);
      });

  CRAQR_ASSIGN_OR_RETURN(
      fabric::QueryStream stream,
      slot->fabricator->InsertQuery(attribute, q.region, q.rate));
  slot->local_id = stream.id;
  CRAQR_ASSIGN_OR_RETURN(std::vector<geom::CellIndex> cells,
                         slot->fabricator->QueryCells(stream.id));
  for (const auto& cell : cells) {
    CRAQR_RETURN_NOT_OK(slot->handler->Subscribe(attribute, cell));
  }

  const query::QueryId id = next_id_++;
  stream.id = id;  // expose the engine-level id
  slot->stream = stream;
  slots_.emplace(id, std::move(slot));
  return stream;
}

Status NaiveEngine::Cancel(query::QueryId id) {
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  slots_.erase(it);  // the whole private stack disappears with the slot
  return Status::OK();
}

Status NaiveEngine::Step() {
  now_ += config_.step_dt;
  world_.Advance(config_.step_dt);
  ops::TupleBatch batch;
  for (auto& [id, slot] : slots_) {
    (void)id;
    CRAQR_RETURN_NOT_OK(slot->handler->Step(now_, &batch));
    CRAQR_RETURN_NOT_OK(slot->fabricator->ProcessBatch(batch));
  }
  return Status::OK();
}

Status NaiveEngine::RunFor(double minutes) {
  if (!(minutes >= 0.0)) {
    return Status::InvalidArgument("minutes must be >= 0");
  }
  const double deadline = now_ + minutes;
  while (now_ + 1e-12 < deadline) {
    CRAQR_RETURN_NOT_OK(Step());
  }
  return Status::OK();
}

std::uint64_t NaiveEngine::TotalRequestsSent() const {
  std::uint64_t total = 0;
  for (const auto& [id, slot] : slots_) {
    (void)id;
    total += slot->handler->requests_sent();
  }
  return total;
}

std::uint64_t NaiveEngine::TotalOperatorEvaluations() const {
  std::uint64_t total = 0;
  for (const auto& [id, slot] : slots_) {
    (void)id;
    total += slot->fabricator->TotalOperatorEvaluations();
  }
  return total;
}

std::size_t NaiveEngine::TotalOperators() const {
  std::size_t total = 0;
  for (const auto& [id, slot] : slots_) {
    (void)id;
    total += slot->fabricator->TotalOperators();
  }
  return total;
}

}  // namespace engine
}  // namespace craqr
