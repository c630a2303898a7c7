#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "geometry/grid.h"
#include "ops/extras.h"
#include "ops/flatten.h"
#include "ops/partition.h"
#include "ops/pipeline.h"
#include "ops/thin.h"
#include "ops/union_op.h"
#include "query/query.h"

namespace craqr {
namespace obs {
class Counter;  // obs/metrics.h — sharing telemetry counters
}  // namespace obs
}  // namespace craqr

/// \file fabricator.h
/// \brief The Crowdsensed Stream Fabricator (paper Sections IV-B and V).
///
/// The fabricator maintains a hashmap from grid cells to execution
/// topologies of PMAT operators and simultaneously fabricates the
/// crowdsensed data streams of many acquisitional queries:
///
///  - **map**: each incoming tuple is routed to the topology of the grid
///    cell containing it;
///  - **process**: the cell topology starts with one F operator per
///    attribute (F is the only operator able to homogenise the incoming
///    inhomogeneous MDPP), followed by a chain of T operators kept sorted
///    by descending output rate with the highest-rate T closest to F;
///    queries needing only part of a cell get a P operator to carve out
///    their sub-region;
///  - **merge**: each query's per-cell partial streams are combined by a
///    U operator into the final MCDS, delivered through a reorder buffer
///    (multi-cell queries: restores canonical (t, id) order at each step
///    boundary, so delivery order is identical on every execution path and
///    shard count) and a rate monitor into a sink.
///
/// Execution is batch-native: `ProcessBatch` routes the incoming handler
/// batch into one recycled `ops::TupleBatch` inbox per touched (cell,
/// attribute) chain and drives each chain through `Operator::PushBatch`,
/// so the hot path pays one virtual call per operator per batch instead
/// of per tuple. `ProcessTuple` remains as the tuple-at-a-time reference
/// path; both deliver identical per-query streams (asserted in
/// tests/ops_batch_test.cc). F-operator violation reports are buffered
/// while a batch is in flight and replayed at the batch boundary sorted
/// by `FlattenBatchReport::completed_at` — the canonical simulation-time
/// order that the sharded runtime reproduces for any shard count.
///
/// Query insertion and deletion follow the paper's topology-surgery rules:
/// T chains stay sorted; consecutive T operators with no branching point
/// between them are merged into one; deleting a query removes its stream
/// right-to-left until a branching point, and deletes the hashmap key once
/// a cell's topology empties.

namespace craqr {
namespace fabric {

/// \brief Fabricator tuning parameters.
struct FabricConfig {
  /// F-operator batch size (tuples per estimation batch).
  std::size_t flatten_batch_size = 128;
  /// F-operator estimation mode.
  ops::FlattenMode flatten_mode = ops::FlattenMode::kBatch;
  /// Intensity clamp inside F.
  double flatten_min_rate = 1e-9;
  /// F batches smaller than this skip the MLE (homogeneous fallback); see
  /// FlattenConfig::min_batch_for_estimation.
  std::size_t flatten_min_batch_for_estimation = 8;
  /// F output rate = headroom * (highest query rate in the cell); must be
  /// > 1 so "the output rate of the F-operator is ... greater than the
  /// output rate of the first T-operator" (paper Section V rule 3).
  double headroom = 1.25;
  /// Per-query sink capacity (most recent tuples retained).
  std::size_t sink_capacity = 1 << 20;
  /// Rate-monitor window (minutes).
  double monitor_window = 5.0;
  /// Master seed for operator randomness.
  std::uint64_t seed = 0x5EED5EED;
  /// Pool the fabricator's string payloads live in: checkpoint serde
  /// resolves and re-interns through it, and ReinternStrings evacuates
  /// into it. nullptr means ValuePool::Global() (the default producers
  /// intern into).
  ops::ValuePool* value_pool = nullptr;
  /// \brief Cross-query subplan sharing (the paper's operator-fabric
  /// economy). Equal-rate T stages are always shared (Section V rule 2 —
  /// the chain structure requires it); this flag additionally dedups the
  /// P carve-out stage: queries whose (cell, attribute, operator-prefix
  /// signature, overlap region) match an already-live carve-out tap the
  /// existing P through a ref-counted splitter instead of materializing a
  /// duplicate P that re-scans the full T output. P and the splitter draw
  /// no randomness and T structure/seeds are untouched, so delivered
  /// streams are byte-exact with sharing on or off (pinned in
  /// tests/fabric_sharing_test.cc).
  bool enable_sharing = true;
};

/// \brief The user-facing handle of a fabricated crowdsensed data stream.
struct QueryStream {
  query::QueryId id = 0;
  ops::AttributeId attribute = 0;
  /// The query region clipped to the system region R.
  geom::Rect region;
  /// Requested rate (tuples/km^2/min).
  double rate = 0.0;
  /// Endpoint collecting the fabricated MCDS.
  ops::SinkOperator* sink = nullptr;
  /// Delivered-rate probe in front of the sink.
  ops::RateMonitorOperator* monitor = nullptr;
};

/// \brief Fired whenever an F operator publishes a batch report; carries
/// the percent rate violation N_v used for budget tuning.
using ViolationCallback = std::function<void(
    ops::AttributeId attribute, const geom::CellIndex& cell,
    const ops::FlattenBatchReport& report)>;

/// \brief Sort key of the canonical violation-report replay order:
/// completion time, ties broken by (attribute, cell). Both the
/// single-threaded fabricator and the sharded runtime stable_sort their
/// replay with this one comparator — the shard-count independence of the
/// feedback loop rests on the two paths never diverging here.
struct ViolationReplayKey {
  double completed_at = 0.0;
  ops::AttributeId attribute = 0;
  geom::CellIndex cell;
};

/// Strict weak ordering over ViolationReplayKey (see above).
bool ViolationReplayLess(const ViolationReplayKey& a,
                         const ViolationReplayKey& b);

/// \brief Counter conservation across a merge stage built by
/// BuildMergeStage: along every stage edge from the merge head to the
/// sink, everything one operator emits reaches the next. Shared by both
/// ValidateInvariants implementations (no-op for partial streams, which
/// have no monitor).
Status ValidateMergeStageCounters(const QueryStream& stream,
                                  const ops::Operator& merge_head);

/// \brief Topology label of a merge stage, read from its operators: "U"
/// when the stage unions several cell streams, "Id" otherwise.
const char* MergeStageLabel(const ops::Pipeline& merge_pipeline);

/// \brief Builds a query's merge stage (paper Fig. 2(c)) into `pipeline`.
/// A multi-cell query gets Ord -> U -> Mon -> Sink: a reorder buffer that
/// collects the processing step and flushes it in canonical (t, id)
/// order, the U operator over the per-cell overlap pieces, which
/// therefore runs once per query per step on the sorted batch, a
/// delivered-rate monitor over the clipped region `stream->region`, and
/// the user-facing sink. A single-cell query gets Id -> Mon -> Sink: one
/// cell chain is already time-ordered. Sets the handle's monitor/sink
/// pointers and returns the stage's input operator. Shared by
/// StreamFabricator and the sharded runtime's router so the two
/// execution paths cannot diverge — in content *or* order.
Result<ops::Operator*> BuildMergeStage(
    QueryStream* stream, ops::Pipeline* pipeline,
    const std::vector<geom::CellOverlap>& overlaps, double monitor_window,
    std::size_t sink_capacity);

/// \brief Multi-query stream fabricator over a logical grid.
class StreamFabricator {
 public:
  /// Creates a fabricator; requires headroom > 1 and positive window /
  /// batch parameters. Heap-allocated because F-operator callbacks hold a
  /// stable pointer to the fabricator.
  static Result<std::unique_ptr<StreamFabricator>> Make(
      const geom::Grid& grid, const FabricConfig& config = FabricConfig());

  StreamFabricator(const StreamFabricator&) = delete;
  StreamFabricator& operator=(const StreamFabricator&) = delete;

  /// \brief Inserts an acquisitional query (paper Section V "Query
  /// Insertions") and returns its stream handle. The handle's pointers
  /// stay valid until RemoveQuery.
  Result<QueryStream> InsertQuery(ops::AttributeId attribute,
                                  const geom::Rect& region, double rate);

  /// \brief Inserts a query that materializes taps only for `overlaps` — a
  /// subset of the query region's cell overlaps — and funnels the per-cell
  /// partial streams straight into a delivery-only sink that invokes
  /// `on_deliver` once per delivered batch (active tuples, arrival order).
  /// The caller owns the cross-partition U merge stage; this is the
  /// shard-local half of the sharded runtime (runtime::ShardedFabricator),
  /// and the batch-shaped callback is what lets a shard splice a whole
  /// delivery into its outbox under one mutex acquisition. `region` is the
  /// full clipped query region, recorded on the handle for reference only;
  /// it is not re-validated here.
  Result<QueryStream> InsertQueryPartial(
      ops::AttributeId attribute, const geom::Rect& region, double rate,
      const std::vector<geom::CellOverlap>& overlaps,
      ops::SinkOperator::BatchCallback on_deliver);

  /// \brief Inserts a delivery endpoint with no taps: a partial query
  /// whose per-cell chains are wired in afterwards. RestoreState re-creates
  /// every snapshot query this way before rebuilding the cell topologies
  /// that tap it. Identical delivery semantics to InsertQueryPartial
  /// (batch callback, no monitor).
  Result<QueryStream> InsertQueryShell(
      ops::AttributeId attribute, const geom::Rect& region, double rate,
      ops::SinkOperator::BatchCallback on_deliver);

  /// \brief Deletes a query (paper Section V "Query Deletions"): its
  /// stream is unwired right-to-left until a branching point; emptied
  /// T chains are re-merged, emptied cells are evicted from the hashmap.
  Status RemoveQuery(query::QueryId id);

  /// \name Checkpoint / restore (fault-tolerant runtime)
  ///
  /// SaveState serializes the fabricator's complete live state — every
  /// query record (with its delivery-sink counters) and every cell
  /// topology chain-by-chain (operator names, rates, RNG phases, partial
  /// F batches, shared-carve-out ref counts, throughput counters) — into
  /// a flat byte string. RestoreState rebuilds it on a *fresh* fabricator
  /// constructed over the same grid and config: queries are re-inserted
  /// as delivery shells (the factory supplies each one's batch callback,
  /// keyed by the snapshot's local id), topologies are reconstructed
  /// operator by operator and every saved state is re-applied, so the
  /// restored fabricator continues the exact per-cell random sequences
  /// and buffered batches the snapshot captured — delivered streams are
  /// byte-identical to an uninterrupted run (pinned in
  /// tests/runtime_checkpoint_test.cc).
  ///
  /// Restrictions: supported only for partial-delivery fabricators (every
  /// query inserted via InsertQueryPartial / InsertQueryShell — the shape
  /// ShardedFabricator's shards have); must be called at a batch boundary
  /// with no unreplayed violation reports. String tuple payloads are
  /// saved by value and re-interned on restore (through
  /// FabricConfig::value_pool), so a snapshot is process-independent and
  /// stays valid across pool generation retirement.
  ///@{
  /// Builds the delivery callback for a restored query, keyed by the
  /// query's local id *in the snapshot* (the restoring side translates to
  /// its own routing ids).
  using DeliveryFactory = std::function<ops::SinkOperator::BatchCallback(
      query::QueryId snapshot_local_id)>;
  /// Serializes the fabricator into `out`.
  Status SaveState(std::string* out) const;
  /// Rebuilds from a SaveState blob; `id_map_out` (optional) receives the
  /// snapshot-local -> restored-local query id translation.
  Status RestoreState(
      const std::string& bytes, const DeliveryFactory& make_delivery,
      std::unordered_map<query::QueryId, query::QueryId>* id_map_out);
  ///@}

  /// \brief Routes one crowdsensed tuple to its grid cell's topology (the
  /// map phase). Tuples landing outside every materialized cell or with
  /// an attribute no query asked for are counted and dropped. Violation
  /// reports fired by an F batch boundary crossed here are buffered and
  /// delivered only at the next FlushAll / ProcessBatch — drivers that
  /// use ProcessTuple with a violation callback must flush at their own
  /// batch boundaries (as ProcessBatch does) or no report is replayed.
  Status ProcessTuple(const ops::Tuple& tuple);

  /// \brief Batch-native map phase: a single-pass histogram partition
  /// (per-row flat cell + dense-table bucket resolution, then
  /// count -> prefix-sum -> scatter) groups the batch by (cell,
  /// attribute) chain, column-copies each group into that chain's
  /// recycled TupleBatch inbox in one splice, drives each chain through
  /// PushBatch, then flushes every topology (batch boundary) and replays
  /// buffered violation reports in completion-time order. No per-row
  /// hashmap lookup, no per-row dispatch branch. The batch is consumed
  /// (tuples move into the topologies).
  Status ProcessBatch(ops::TupleBatch& batch);

  /// Copying convenience overload of the batch-native ProcessBatch.
  Status ProcessBatch(const std::vector<ops::Tuple>& batch);

  /// Flushes all cell topologies and query merge stages, then replays
  /// buffered violation reports sorted by completion time.
  Status FlushAll();

  /// \brief Registers the N_v callback consumed by the budget tuner.
  /// Reports fire at batch boundaries (end of ProcessBatch / FlushAll),
  /// sorted by (completed_at, attribute, cell) — the same canonical order
  /// the sharded runtime replays, so feedback consumers evolve
  /// identically on both execution paths.
  void SetViolationCallback(ViolationCallback callback);

  /// The stream handle of a live query.
  Result<QueryStream> GetStream(query::QueryId id) const;

  /// Grid cells a query's region overlaps (for handler subscriptions).
  Result<std::vector<geom::CellIndex>> QueryCells(query::QueryId id) const;

  /// Number of grid cells with materialized topologies ("only the grid
  /// cells that are useful for query processing are materialized").
  std::size_t NumMaterializedCells() const { return cells_.size(); }

  /// Number of live queries.
  std::size_t NumQueries() const { return queries_.size(); }

  /// Total PMAT operators across all cell topologies and merge stages.
  std::size_t TotalOperators() const;

  /// Total operator evaluations (sum of tuples_in over all operators) —
  /// the processing-cost metric of experiment E7.
  std::uint64_t TotalOperatorEvaluations() const;

  /// Tuples routed into some topology so far.
  std::uint64_t tuples_routed() const { return tuples_routed_; }

  /// Tuples dropped in the map phase.
  std::uint64_t tuples_unrouted() const { return tuples_unrouted_; }

  /// \name Sharing telemetry (see FabricConfig::enable_sharing)
  ///@{
  /// Tap insertions that attached to an already-live stage (an equal-rate
  /// T or a shared P carve-out) instead of materializing a duplicate.
  std::uint64_t shared_prefix_hits() const { return shared_prefix_hits_; }
  /// Tap edges detached so far (RemoveTap).
  std::uint64_t taps_detached() const { return taps_detached_; }
  /// Live stages (T nodes or P carve-outs) currently tapped by >= 2
  /// queries — the instantaneous sharing census.
  std::size_t SharedStagesLive() const;
  /// Per-cell shared-stage census: (flat cell, shared-stage count) pairs
  /// for every cell holding at least one stage with >= 2 tappers, sorted
  /// by flat cell (ShardedStats aggregates these across shards).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> SharedStageCensus()
      const;
  ///@}

  /// \name Route-LUT maintenance telemetry
  ///@{
  /// Full rows x cols LUT rebuilds (RebuildRouteTable) so far.
  std::uint64_t route_rebuilds() const { return route_rebuilds_; }
  /// Incremental single-slot LUT patches (chain add/evict) so far.
  std::uint64_t route_patches() const { return route_patches_; }
  ///@}

  /// Human-readable rendering of every cell topology and merge stage —
  /// the executable version of the paper's Figure 2.
  std::string DescribeTopology() const;

  /// Invokes `visitor` on every operator in every cell topology and merge
  /// stage (cost accounting, diagnostics).
  void VisitOperators(
      const std::function<void(const ops::Operator&)>& visitor) const;

  /// \name Memory governance hooks (runtime memory governor)
  ///@{
  /// Re-interns every string payload buffered anywhere in the fabricator
  /// (chain inboxes, F accumulators, reorder buffers, sink storage) into
  /// `pool`'s current tier, so older pool generations hold no live handles
  /// and can be retired. Must be called at a batch boundary; values are
  /// untouched, only handles move, so delivered streams are unaffected.
  void ReinternStrings(ops::ValuePool& pool);
  /// Releases recycled slack: shrinks drained chain inboxes and the
  /// histogram-router scratch columns back to their live size.
  void TrimMemory();
  /// Approximate bytes held by recycled batch storage and router scratch
  /// (chain inboxes + scratch columns) — governor accounting input.
  std::size_t BatchMemoryBytes() const;
  ///@}

  /// \brief Structural self-check of the paper's Section-V topology rules.
  ///
  /// Verifies, for every materialized cell chain: the F target exceeds the
  /// first T's output rate (rule 3); T output rates are strictly
  /// descending with the highest-rate T closest to F (rule 1); no tap-less
  /// T survives (rule 2 / deletion re-merge); every T's configured input
  /// rate matches its upstream's output rate; and every edge F→T, T→T,
  /// T→tap is present. Also checks every query tap resolves to a live cell
  /// chain. Returns the first violated invariant as an Internal error.
  /// Used by the churn property tests and available to embedders as a
  /// debugging probe.
  Status ValidateInvariants() const;

  /// The logical grid.
  const geom::Grid& grid() const { return grid_; }

 private:
  /// \brief A ref-counted shared P carve-out below one T node
  /// (FabricConfig::enable_sharing). All queries whose overlap region and
  /// operator-prefix signature match tap the same P; port 0 (the overlap)
  /// feeds a pass-through splitter that broadcasts the carved sub-stream
  /// to every sharer's merge head. The sharer list is the ref count:
  /// RemoveTap detaches one splitter edge and only tears the P + splitter
  /// down when the last sharer leaves, so query churn never perturbs
  /// surviving queries' delivered bytes.
  struct SharedPartition {
    /// PrefixSignature of the owning T position, extended with the
    /// overlap-region bits — the shared-subplan index key.
    std::uint64_t signature = 0;
    /// The carved overlap region (exact-match guard against collisions).
    geom::Rect region;
    ops::PartitionOperator* op = nullptr;
    /// Broadcast stage on P port 0; one output per sharer.
    ops::PassThroughOperator* splitter = nullptr;
    /// Queries tapping this carve-out (ref count = size()).
    std::vector<query::QueryId> sharers;
  };

  /// One T node in a cell's per-attribute chain.
  struct ThinNode {
    ops::ThinOperator* op = nullptr;
    double out_rate = 0.0;
    /// Queries tapping this T's output.
    std::vector<query::QueryId> tap_queries;
    /// Live shared P carve-outs below this T (enable_sharing only).
    std::vector<SharedPartition> partitions;
  };

  /// Per-(cell, attribute) operator chain: F followed by sorted T's.
  struct Chain {
    ops::FlattenOperator* flatten = nullptr;
    double f_target = 0.0;
    std::vector<ThinNode> thins;  // descending out_rate
    /// Monotone per-chain operator-creation counter; seeds the next F/T
    /// RNG (see OperatorSeed).
    std::uint64_t op_seq = 0;
    /// The owning cell's flat grid index — the chain's row in the dense
    /// route LUT and its key in the shared-stage census.
    std::uint32_t flat_cell = 0;
    /// This chain's bucket in the dense route LUT (0 = not in the table;
    /// live buckets start at 1 — bucket 0 is the unrouted sentinel).
    /// Maintained incrementally by RouteNoteChainAdded/Removed.
    std::uint32_t route_bucket = 0;
    /// Recycled routing inbox ProcessBatch fills for this chain; always
    /// drained before ProcessBatch returns.
    ops::TupleBatch inbox;
  };

  /// Materialized cell topology (one hashmap value).
  struct Cell {
    ops::Pipeline pipeline;
    std::unordered_map<ops::AttributeId, Chain> chains;
  };

  /// A query's attachment in one cell.
  struct Tap {
    geom::CellIndex cell;
    geom::Rect overlap;
    bool covers_cell = false;
    /// The P operator carving out the overlap; nullptr when the query
    /// covers the whole cell.
    ops::PartitionOperator* partition = nullptr;
    /// True when `partition` is a ref-counted SharedPartition: the merge
    /// edge then hangs off its splitter, not off the P itself.
    bool shared = false;
  };

  /// Everything owned per query.
  struct QueryState {
    QueryStream stream;
    ops::Pipeline merge_pipeline;
    /// The operator per-cell streams feed into (Ord or pass-through).
    ops::Operator* merge_head = nullptr;
    std::vector<Tap> taps;
  };

  StreamFabricator(const geom::Grid& grid, const FabricConfig& config)
      : grid_(grid), config_(config) {}

  /// \brief Deterministic RNG seed for the `seq`-th operator ever created
  /// in the (cell, attribute) chain, derived from the master seed.
  ///
  /// Seeding operators by *where they live* rather than by global creation
  /// order makes every per-cell stream a pure function of the master seed
  /// and that cell's own query/tuple history. Two fabricators that own
  /// disjoint cell subsets therefore produce, cell by cell, exactly the
  /// streams a single fabricator owning all cells would — the property the
  /// sharded runtime's equivalence guarantee rests on.
  std::uint64_t OperatorSeed(const geom::CellIndex& index,
                             ops::AttributeId attribute,
                             std::uint64_t seq) const;

  Result<QueryStream> FinishInsert(QueryState qs,
                                   const std::vector<geom::CellOverlap>& overlaps,
                                   double rate);

  Cell* GetOrCreateCell(const geom::CellIndex& index);
  Result<Chain*> GetOrCreateChain(Cell* cell, const geom::CellIndex& index,
                                  ops::AttributeId attribute, double rate);
  /// Points `chain`'s F report callback at this fabricator's violation
  /// buffer — set at chain creation and when RestoreState rebuilds it.
  void BindChainReportCallback(Chain* chain, ops::AttributeId attribute,
                               const geom::CellIndex& index);
  /// Map-phase lookup: the chain owning a tuple at (x, y) with the given
  /// attribute, or nullptr with the routed/unrouted counters updated.
  /// Column-shaped so the batch path reads only the point and attribute
  /// columns.
  Chain* RouteTarget(double x, double y, ops::AttributeId attribute);
  /// \brief Rebuilds the dense routing table the histogram router reads:
  /// one bucket id per (flat cell, attribute slot), with one extra
  /// sentinel row/column so invalid cells and unknown attributes resolve
  /// to the unrouted bucket through the same unconditional load. Called
  /// lazily from ProcessBatch after topology surgery (route_dirty_);
  /// disables the table (falling back to per-row map routing) when the
  /// grid x attribute product would make it unreasonably large.
  void RebuildRouteTable();
  /// \brief Incremental LUT maintenance: a freshly created chain gets the
  /// next bucket id and one LUT slot write instead of marking the whole
  /// table dirty. Falls back to a full rebuild (route_dirty_) when the
  /// chain's attribute has no LUT column yet — the attribute-slot set
  /// changed — or when the table is disabled/dirty anyway.
  void RouteNoteChainAdded(std::uint32_t flat, ops::AttributeId attribute,
                           Chain* chain);
  /// \brief Incremental LUT maintenance for chain eviction:
  /// clears the chain's LUT slot back to the unrouted sentinel and leaves
  /// a bucket hole. Schedules a compacting full rebuild once holes
  /// outnumber live buckets.
  void RouteNoteChainRemoved(Chain* chain, ops::AttributeId attribute);
  /// Per-row map-lookup routing pass — the pre-histogram reference
  /// implementation, kept as the fallback for oversized tables.
  void RouteBatchFallback(ops::TupleBatch& batch);
  /// The routing half of ProcessBatch: materialize, rebuild the LUT if
  /// dirty, group the batch into per-chain inboxes (batch consumed),
  /// update routed/unrouted counters.
  void RouteBatch(ops::TupleBatch& batch);
  /// Replays buffered F reports to the violation callback, sorted by
  /// (completed_at, attribute, cell) — see the class comment.
  void ReplayPendingViolations();
  Status InsertTap(QueryState* qs, const geom::CellOverlap& overlap,
                   double rate);
  Status RemoveTap(QueryState* qs, const Tap& tap);
  /// \brief Canonical operator-prefix signature of chain positions
  /// [0, pos]: an FNV-1a fold over op kinds and rate parameters (F target,
  /// then the descending T output rates down to `pos`). Operator seeds are
  /// position-derived (OperatorSeed), so within one (cell, attribute)
  /// chain an equal signature means a byte-identical subplan — the
  /// shared-subplan index key, extended with the overlap-region bits for
  /// P carve-out dedup (see SharedPartition::signature).
  static std::uint64_t PrefixSignature(const Chain& chain, std::size_t pos);
  /// Input rate of the thin at `index` (F target for the first thin).
  static double ThinInputRate(const Chain& chain, std::size_t index);

  /// An F report captured mid-batch, replayed sorted at the boundary.
  struct PendingViolation {
    ops::AttributeId attribute = 0;
    geom::CellIndex cell;
    ops::FlattenBatchReport report;
  };

  geom::Grid grid_;
  FabricConfig config_;
  std::unordered_map<geom::CellIndex, std::unique_ptr<Cell>,
                     geom::CellIndexHash>
      cells_;
  std::unordered_map<query::QueryId, QueryState> queries_;
  query::QueryId next_query_id_ = 1;
  ViolationCallback violation_callback_;
  /// Chains whose inbox the in-flight ProcessBatch touched, in first-touch
  /// order; empty between calls.
  std::vector<Chain*> batch_touched_;
  /// Guards pending_violations_, which F report callbacks append to.
  /// Uncontended: one thread drives a fabricator at a time.
  std::mutex violations_mu_;
  std::vector<PendingViolation> pending_violations_;
  std::uint64_t tuples_routed_ = 0;
  std::uint64_t tuples_unrouted_ = 0;
  /// \name Sharing telemetry (accessors above). The obs counters mirror
  /// the members process-wide ("craqr.fabric.shared_prefix_hits",
  /// ".stages_shared", ".taps_detached"); per-instance values come from
  /// the members. stages_shared counts share *events* (a stage gaining a
  /// second tapper), the monotone form of the live census.
  ///@{
  std::uint64_t shared_prefix_hits_ = 0;
  std::uint64_t taps_detached_ = 0;
  obs::Counter* obs_prefix_hits_ = nullptr;
  obs::Counter* obs_stages_shared_ = nullptr;
  obs::Counter* obs_taps_detached_ = nullptr;
  ///@}

  /// \name Histogram-router state (see RebuildRouteTable / ProcessBatch)
  ///@{
  /// Set by topology surgery; the next ProcessBatch rebuilds the table.
  bool route_dirty_ = true;
  /// False when the dense table would be oversized; ProcessBatch then
  /// routes through the per-row fallback.
  bool route_lut_enabled_ = false;
  /// Distinct attributes with at least one live chain, sorted (the
  /// table's column space; per-row attribute -> slot is a branch-free
  /// scan of this handful of values).
  std::vector<ops::AttributeId> route_attrs_;
  /// Dense (NumCells()+1) x (route_attrs_.size()+1) bucket table; the
  /// extra row/column map invalid cells / unknown attributes to bucket 0,
  /// the unrouted sentinel. Live chains occupy buckets 1..n so chain
  /// append/evict patches one slot instead of sweeping the table
  /// (RouteNoteChainAdded/Removed).
  std::vector<std::uint32_t> route_lut_;
  /// Bucket id -> chain; index 0 is the unrouted sentinel (nullptr), and
  /// evicted chains leave nullptr holes until the next compacting rebuild.
  /// Rebuilds enumerate in deterministic (flat cell, attribute) order;
  /// incremental appends extend in creation order.
  std::vector<Chain*> route_chains_;
  /// nullptr holes in route_chains_; a rebuild is scheduled when holes
  /// outnumber live buckets.
  std::size_t route_holes_ = 0;
  /// Maintenance telemetry (accessors above).
  std::uint64_t route_rebuilds_ = 0;
  std::uint64_t route_patches_ = 0;
  /// Recycled per-batch scratch columns: per-row flat cell, per-row
  /// bucket, per-bucket end offsets, bucket-grouped row indices.
  std::vector<std::uint32_t> row_cells_;
  std::vector<std::uint32_t> row_buckets_;
  std::vector<std::uint32_t> bucket_counts_;
  std::vector<std::uint32_t> grouped_rows_;
  ///@}
};

}  // namespace fabric
}  // namespace craqr
