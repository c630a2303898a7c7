#pragma once

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "fabric/fabricator.h"
#include "geometry/grid.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "runtime/sharded_fabricator.h"
#include "sensing/world.h"
#include "server/budget.h"
#include "server/handler.h"
#include "server/incentive.h"

/// \file engine.h
/// \brief CrAQR: the complete system of paper Figure 1.
///
/// The engine owns the crowd world (mobile sensors), the request/response
/// handler with its budget manager (and optionally the incentive
/// controller of Section VI), and the crowdsensed stream fabricator.  A
/// stepped simulation loop drives them: sensors move, acquisition requests
/// go out per budget, delayed responses come back, batches flow through
/// the per-cell PMAT topologies, and every live query's sink receives its
/// fabricated MCDS at (approximately) the requested spatio-temporal rate.
///
/// On the sharded runtime the loop is **pipelined**: each step's batch is
/// enqueued to the shard workers and the next step's world simulation and
/// handler dispatch run while they chew, with an epoch-tagged partial
/// drain as the only per-step synchronization. The closed budget/incentive
/// feedback loop follows a fixed epoch contract (see
/// EngineConfig::pipeline_depth) applied identically on the synchronous
/// path, so delivered streams and violation-replay order are byte-exact
/// across shard counts and execution modes.

namespace craqr {
namespace engine {

/// \brief Engine construction parameters.
struct EngineConfig {
  /// Grid granularity h (perfect square; paper Section IV).
  std::uint32_t grid_h = 9;
  /// Minutes advanced per Step().
  double step_dt = 1.0;
  /// Stream-fabricator parameters.
  fabric::FabricConfig fabric;
  /// Budget-tuning parameters.
  server::BudgetConfig budget;
  /// Request/response handler parameters.
  server::HandlerConfig handler;
  /// Section-VI extension: raise incentives once budgets saturate.
  bool enable_incentives = false;
  /// Incentive-policy parameters (used when enable_incentives).
  server::IncentiveConfig incentive;
  /// \brief Execution shards. 1 (the default) keeps today's in-process
  /// single-threaded StreamFabricator; >= 2 routes batches through the
  /// sharded runtime (runtime::ShardedFabricator), one worker thread per
  /// shard. Cell-local operator seeding makes the delivered streams
  /// identical either way for a fixed master seed, and violation reports
  /// replay in completion-time order on both paths, so even the
  /// order-sensitive enable_incentives feedback evolves identically
  /// across shard counts (see sharded_fabricator.h).
  std::size_t num_shards = 1;
  /// Sub-batches each shard queue buffers before back-pressure (used when
  /// num_shards >= 2).
  std::size_t shard_queue_capacity = 64;
  /// \brief Pipeline depth D (>= 1): the engine's step/feedback contract.
  ///
  /// D defines when the closed-loop feedback from step e's batch (F-operator
  /// violation reports driving budgets and incentives) is applied: at step
  /// e + D - 1, after that step's handler dispatch and before that step's
  /// batch is submitted. D = 1 is the classic fully synchronous loop
  /// (feedback applies within its own step, exactly the pre-pipelining
  /// semantics). D >= 2 introduces a fixed (D-1)-step feedback latency —
  /// and, when num_shards >= 2, buys the overlap: Step() enqueues tick t
  /// without waiting and simulates tick t+1 (world advance + handler
  /// dispatch into the next recycled batch of a D-deep ring) while the
  /// shard workers chew, draining only through epoch t-D+2 before each
  /// enqueue and fully at observation points (Stats(), query churn,
  /// RunFor() return, DrainPipeline()).
  ///
  /// The contract is applied on every execution path — the single-threaded
  /// engine emulates the same lag with an internal buffer — so for a fixed
  /// D the delivered streams and the violation-replay order are byte-exact
  /// across num_shards (1 included) and across synchronous vs pipelined
  /// execution. Raising D hides more shard latency per step but delays
  /// budget reactions by D-1 steps; 2 (the default) already overlaps a full
  /// step of world simulation with shard processing.
  std::size_t pipeline_depth = 2;
  /// \brief Span-trace ring capacity (events per ring); 0 (the default)
  /// disables tracing. When > 0 the engine keeps a bounded ring of
  /// per-step phase spans (world / handler / drain / dispatch) and each
  /// shard worker and the router keep rings of their own; dump them all
  /// with obs::Tracer::Global().DumpChromeTrace(path) and load the file
  /// in chrome://tracing or Perfetto. Observation-only: tracing does not
  /// change delivered streams.
  std::size_t trace_capacity = 0;
  /// Credit-based admission / overload-shedding knobs (sharded path only):
  /// shard-queue push policy and the shed policy for credit-exhausted
  /// query subscribers. See runtime::AdmissionConfig.
  runtime::AdmissionConfig admission;
  /// Epoch-barrier checkpoint/restore knobs (sharded path only). Enabling
  /// records per-shard replay logs and lets a crashed shard be rebuilt
  /// byte-exactly. See runtime::CheckpointConfig.
  runtime::CheckpointConfig checkpoint;
  /// \brief Checkpoint cadence (sharded path, implies checkpoint.enabled):
  /// every N steps the engine refreshes the runtime checkpoint at the
  /// step's epoch boundary, bounding both replay-log growth and crash
  /// recovery time. 0 (the default) keeps only the automatic checkpoints
  /// (construction + topology changes).
  std::uint64_t checkpoint_every_steps = 0;
  /// \brief Bounded-memory endurance budget in bytes across the string
  /// pool, recycled batch arenas and shard queues. 0 (the default)
  /// disables memory governance. With a budget set, the governed pool
  /// (fabric.value_pool, or the process-wide pool) switches into
  /// generational mode and the engine polls the memory governor once per
  /// step: crossing the soft watermark triggers value-preserving
  /// reclamation (string re-intern + generation retirement + arena/
  /// scratch trims — delivered streams stay byte-exact), crossing the
  /// hard watermark additionally sheds deliveries and queue pushes
  /// instead of OOMing (sharded path; the single-fabricator path reclaims
  /// but has no shed machinery). See runtime/memory_governor.h.
  std::size_t memory_budget_bytes = 0;
  /// Watermark / hard-shed fine-tuning; its budget_bytes is overridden by
  /// memory_budget_bytes whenever that is non-zero.
  runtime::MemoryGovernorConfig memory;
};

/// \brief The CrAQR engine.
class CraqrEngine {
 public:
  /// Creates an engine over a crowd world. Attributes must already be
  /// registered on the world. The engine is heap-allocated so internal
  /// cross-component pointers stay stable.
  static Result<std::unique_ptr<CraqrEngine>> Make(sensing::CrowdWorld world,
                                                   const EngineConfig& config);

  CraqrEngine(const CraqrEngine&) = delete;
  CraqrEngine& operator=(const CraqrEngine&) = delete;

  /// \brief Submits an acquisitional query; resolves the attribute name,
  /// inserts it into the fabricator and subscribes the handler on every
  /// overlapped grid cell. Returns the live stream handle.
  Result<fabric::QueryStream> Submit(const query::AcquisitionQuery& q);

  /// Parses the declarative syntax and submits (paper Section III):
  /// `ACQUIRE rain FROM REGION(0,0,2,2) RATE 10 PER KM2 PER MIN`.
  Result<fabric::QueryStream> SubmitText(const std::string& text);

  /// Cancels a live query: unsubscribes its cells and removes its
  /// topology (paper Section V "Query Deletions").
  Status Cancel(query::QueryId id);

  /// \brief Advances the simulation by `config.step_dt` minutes: moves
  /// sensors, dispatches acquisition requests, collects arrived responses
  /// and runs them through the fabricator.
  ///
  /// On the pipelined path (num_shards >= 2 and pipeline_depth >= 2) the
  /// step's batch is *enqueued*, not processed: Step() returns while the
  /// shard workers chew and the next Step() overlaps its world simulation
  /// and handler dispatch with them, waiting only for the epoch the
  /// feedback contract makes due (see EngineConfig::pipeline_depth).
  /// Deliveries reach query sinks at drain points — every observation
  /// accessor drains first, so readers never see a partial stream.
  Status Step();

  /// Runs Step() until at least `minutes` of simulated time have passed,
  /// then drains the pipeline so sinks reflect every step. A failing step
  /// is reported with its step index and simulated time.
  Status RunFor(double minutes);

  /// \brief Waits for all in-flight pipelined work and flushes deliveries
  /// into query sinks (feedback beyond its contracted step stays held).
  /// No-op on the synchronous path. Called implicitly by RunFor() and
  /// Stats(); manual Step() drivers reading sinks directly should call it
  /// first.
  Status DrainPipeline();

  /// Current simulated time (minutes).
  double now() const { return now_; }

  /// \name Component access
  ///@{
  const sensing::CrowdWorld& world() const { return world_; }
  sensing::CrowdWorld& world() { return world_; }
  /// The in-process fabricator; only valid when config.num_shards == 1
  /// (IsSharded() false). Aborts with a diagnostic instead of
  /// dereferencing null when the engine is sharded — use the
  /// execution-path-independent aggregates below for code that must work
  /// either way.
  const fabric::StreamFabricator& fabricator() const {
    if (fabricator_ == nullptr) {
      CRAQR_LOG(ERROR) << "CraqrEngine::fabricator() called on a sharded "
                          "engine (num_shards >= 2); use sharded() or the "
                          "aggregate accessors";
      std::abort();
    }
    return *fabricator_;
  }
  /// The sharded runtime; nullptr when config.num_shards == 1.
  const runtime::ShardedFabricator* sharded() const { return sharded_.get(); }
  const server::BudgetManager& budgets() const { return budgets_; }
  const server::RequestResponseHandler& handler() const { return *handler_; }
  const server::IncentiveController& incentives() const {
    return incentives_;
  }
  const geom::Grid& grid() const { return grid_; }
  ///@}

  /// Queries whose requested rate was flagged infeasible at the current
  /// budget ceiling (cleared when re-tuning succeeds is NOT automatic;
  /// this is a monotone event log).
  const std::vector<server::BudgetKey>& infeasible_log() const {
    return infeasible_log_;
  }

  /// True when batches run through the sharded runtime.
  bool IsSharded() const { return sharded_ != nullptr; }

  /// \name Execution-path-independent aggregates
  /// Dispatch to the in-process fabricator or aggregate across shards.
  /// When sharded, every accessor (and Stats()) costs one cross-shard
  /// barrier — and on the pipelined path a full drain first, so the
  /// numbers are consistent with every step taken so far (an observation
  /// point of the epoch contract). Callers needing several counters
  /// should take one Stats() snapshot instead of chaining the scalar
  /// accessors. Stats() also reports ops::ValuePool::Global() growth
  /// (value_pool_bytes) and, when sharded, per-shard load counters.
  ///@{
  runtime::ShardedStats Stats();
  std::uint64_t TuplesRouted();
  std::uint64_t TuplesUnrouted();
  std::uint64_t TotalOperatorEvaluations();
  std::size_t NumLiveQueries() const;
  /// Structural self-check of the Section-V topology rules on whichever
  /// execution path is active.
  Status ValidateTopology() const;
  ///@}

 private:
  CraqrEngine(sensing::CrowdWorld world, const geom::Grid& grid,
              const EngineConfig& config,
              std::unique_ptr<fabric::StreamFabricator> fabricator,
              std::unique_ptr<runtime::ShardedFabricator> sharded,
              server::BudgetManager budgets,
              server::IncentiveController incentives);

  void OnViolationReport(ops::AttributeId attribute,
                         const geom::CellIndex& cell,
                         const ops::FlattenBatchReport& report);
  /// Feeds one report into the budget manager (and incentives); the
  /// feedback half the epoch contract schedules.
  void ApplyFeedback(ops::AttributeId attribute, const geom::CellIndex& cell,
                     const ops::FlattenBatchReport& report);
  /// Applies every deferred report whose contracted step has arrived
  /// (synchronous-path lag emulation; FIFO preserves replay order).
  void ApplyDueFeedback();
  /// Per-step memory-governance poll on the single-fabricator path
  /// (num_shards == 1): assesses pool + operator-scratch accounting and
  /// runs the value-preserving reclamation pass when a watermark is
  /// crossed. The sharded path delegates to
  /// runtime::ShardedFabricator::GovernMemory instead.
  Status GovernSingle();

  sensing::CrowdWorld world_;
  geom::Grid grid_;
  EngineConfig config_;
  /// Exactly one of fabricator_ / sharded_ is set (num_shards == 1 vs >= 2).
  std::unique_ptr<fabric::StreamFabricator> fabricator_;
  std::unique_ptr<runtime::ShardedFabricator> sharded_;
  server::BudgetManager budgets_;
  server::IncentiveController incentives_;
  /// Single-path memory governor (set when num_shards == 1 and a budget
  /// is configured; the sharded runtime owns its own).
  std::unique_ptr<runtime::MemoryGovernor> governor_;
  std::optional<server::RequestResponseHandler> handler_;
  std::vector<server::BudgetKey> infeasible_log_;
  /// Ring of recycled columnar step batches the handler fills and the
  /// execution path consumes (capacity persists across steps). One entry
  /// on the synchronous path; pipeline_depth entries when pipelined, so a
  /// submitted batch is not rewritten for D-1 further steps. (Today
  /// EnqueueBatch consumes its input before returning, so one buffer
  /// would also work — the ring keeps the engine independent of that
  /// runtime implementation detail, e.g. a future zero-copy handoff.)
  std::vector<ops::TupleBatch> step_batches_;
  std::size_t step_cursor_ = 0;
  /// Steps taken so far — the epoch stamped onto pipelined batches.
  std::uint64_t step_count_ = 0;
  /// num_shards >= 2 && pipeline_depth >= 2: Step() enqueues instead of
  /// processing and the runtime holds feedback to the epoch horizon.
  bool pipelined_ = false;
  /// Synchronous path with pipeline_depth >= 2: the engine itself defers
  /// feedback to the contracted step (the runtime applies no lag there).
  bool defer_feedback_ = false;
  /// One report awaiting its contracted step (synchronous lag emulation).
  struct DeferredFeedback {
    std::uint64_t due_step = 0;
    ops::AttributeId attribute = 0;
    geom::CellIndex cell;
    ops::FlattenBatchReport report;
  };
  std::deque<DeferredFeedback> deferred_feedback_;
  double now_ = 0.0;

  /// \name Step-phase telemetry (registry-backed, observation-only).
  /// Histograms of per-step time inside each phase of the loop: world
  /// simulation, handler dispatch, pipeline drain wait, and batch
  /// dispatch (enqueue when pipelined, full ProcessBatch when
  /// synchronous). Shared across engines in one process (histograms
  /// merge); the optional trace ring records the same phases as spans.
  ///@{
  obs::LogHistogram* phase_world_ns_ = nullptr;
  obs::LogHistogram* phase_handler_ns_ = nullptr;
  obs::LogHistogram* phase_drain_ns_ = nullptr;
  obs::LogHistogram* phase_dispatch_ns_ = nullptr;
  obs::Counter* steps_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  ///@}
};

}  // namespace engine
}  // namespace craqr
