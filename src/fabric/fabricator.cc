#include "fabric/fabricator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <tuple>

#include "common/logging.h"
#include "common/macros.h"
#include "common/simd.h"
#include "obs/metrics.h"
#include "ops/reorder.h"

namespace craqr {
namespace fabric {

namespace {

/// Relative tolerance for treating two query rates as equal (tap sharing).
constexpr double kRateEpsilon = 1e-9;

bool RatesEqual(double a, double b) {
  return std::fabs(a - b) <= kRateEpsilon * std::max({1.0, a, b});
}

/// Upper bound on the dense routing table (entries, 4 bytes each). A
/// topology whose grid-cells x attributes product exceeds this keeps the
/// per-row fallback instead of a 16+ MB table.
constexpr std::uint64_t kMaxRouteLutEntries = 1ull << 22;

/// Upper bound on live attributes for the LUT path: the per-row
/// attribute -> slot resolution is a branch-free linear scan over the
/// live attributes, which only beats a hashmap while that list is a
/// handful of values. Beyond this, the per-row fallback's single map
/// lookup wins.
constexpr std::size_t kMaxRouteSlotScan = 16;

/// FNV-1a fold of one 64-bit word (prefix-signature building block).
std::uint64_t Fnv1a64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t Fnv1a64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fnv1a64(h, bits);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Extends a chain-prefix signature with the carve-out region — the full
/// shared-subplan key of one P stage.
std::uint64_t RegionSignature(std::uint64_t prefix, const geom::Rect& r) {
  std::uint64_t h = Fnv1a64(prefix,
                            static_cast<std::uint64_t>(
                                ops::OperatorKind::kPartition));
  h = Fnv1a64(h, r.x_min());
  h = Fnv1a64(h, r.y_min());
  h = Fnv1a64(h, r.x_max());
  h = Fnv1a64(h, r.y_max());
  return h;
}

/// The SharedPartition entry owning `op` under `node`, or nullptr. Const
/// and mutable callers share one template (removal, validation).
template <typename Node>
auto* FindShare(Node& node, const ops::PartitionOperator* op) {
  for (auto& entry : node.partitions) {
    if (entry.op == op) {
      return &entry;
    }
  }
  using Entry = decltype(&node.partitions[0]);
  return static_cast<Entry>(nullptr);
}

}  // namespace

bool ViolationReplayLess(const ViolationReplayKey& a,
                         const ViolationReplayKey& b) {
  if (a.completed_at != b.completed_at) {
    return a.completed_at < b.completed_at;
  }
  if (a.attribute != b.attribute) {
    return a.attribute < b.attribute;
  }
  if (a.cell.q != b.cell.q) {
    return a.cell.q < b.cell.q;
  }
  return a.cell.r < b.cell.r;
}

Status ValidateMergeStageCounters(const QueryStream& stream,
                                  const ops::Operator& merge_head) {
  if (stream.monitor == nullptr) {
    return Status::OK();  // partial stream: bare forwarding sink
  }
  const auto fail = [&stream](const std::string& what) {
    return Status::Internal("merge stage counters violated: query " +
                            std::to_string(stream.id) + " " + what);
  };
  // Every stage edge up to the sink: what one operator emits, the next
  // receives. The reorder buffer sits at the head, so this holds between
  // any two pushes, not only at step boundaries.
  const ops::Operator* op = &merge_head;
  while (op != stream.sink) {
    if (op->outputs().size() != 1) {
      return fail(op->name() + " does not feed exactly one stage operator");
    }
    const ops::Operator* next = op->outputs().front();
    if (next->stats().tuples_in != op->stats().tuples_out) {
      return fail(op->name() + " emits do not all reach " + next->name());
    }
    op = next;
  }
  return Status::OK();
}

const char* MergeStageLabel(const ops::Pipeline& merge_pipeline) {
  for (const auto& op : merge_pipeline.operators()) {
    if (op->kind() == ops::OperatorKind::kUnion) {
      return "U";
    }
  }
  return "Id";
}

Result<ops::Operator*> BuildMergeStage(
    QueryStream* stream, ops::Pipeline* pipeline,
    const std::vector<geom::CellOverlap>& overlaps, double monitor_window,
    std::size_t sink_capacity) {
  std::ostringstream base;
  base << "Q" << stream->id;
  ops::Operator* merge_head = nullptr;
  ops::Operator* pre_monitor = nullptr;  // last operator before the monitor
  if (overlaps.size() >= 2) {
    // Multi-cell merges interleave several upstream chains; the reorder
    // buffer heads the stage and flushes each processing step in
    // canonical (t, id) order, so delivery order is identical on every
    // execution path and shard count, and U (which only forwards and
    // counts) runs once per query per step. Pipelines flush in insertion
    // order: the buffer, added first, releases into U before U, the
    // monitor and the sink flush. Single-cell streams skip both: one
    // chain is already time-ordered.
    CRAQR_ASSIGN_OR_RETURN(
        auto reorder_owned, ops::ReorderOperator::Make(base.str() + "-order"));
    merge_head = pipeline->Add(std::move(reorder_owned));
    std::vector<geom::Rect> pieces;
    pieces.reserve(overlaps.size());
    for (const auto& overlap : overlaps) {
      pieces.push_back(overlap.region);
    }
    CRAQR_ASSIGN_OR_RETURN(
        auto union_owned,
        ops::UnionOperator::Make(base.str() + "-union", std::move(pieces)));
    ops::UnionOperator* union_op = pipeline->Add(std::move(union_owned));
    merge_head->AddOutput(union_op);
    pre_monitor = union_op;
  } else {
    CRAQR_ASSIGN_OR_RETURN(
        auto pass_owned, ops::PassThroughOperator::Make(base.str() + "-merge"));
    merge_head = pipeline->Add(std::move(pass_owned));
    pre_monitor = merge_head;
  }
  CRAQR_ASSIGN_OR_RETURN(
      auto monitor_owned,
      ops::RateMonitorOperator::Make(base.str() + "-monitor", monitor_window,
                                     stream->region.Area()));
  ops::RateMonitorOperator* monitor = pipeline->Add(std::move(monitor_owned));
  CRAQR_ASSIGN_OR_RETURN(
      auto sink_owned,
      ops::SinkOperator::Make(base.str() + "-sink", sink_capacity));
  ops::SinkOperator* sink = pipeline->Add(std::move(sink_owned));
  pre_monitor->AddOutput(monitor);
  monitor->AddOutput(sink);
  stream->monitor = monitor;
  stream->sink = sink;
  return merge_head;
}

std::uint64_t StreamFabricator::OperatorSeed(const geom::CellIndex& index,
                                             ops::AttributeId attribute,
                                             std::uint64_t seq) const {
  std::uint64_t s = SplitMix64(config_.seed);
  s = SplitMix64(s ^ ((static_cast<std::uint64_t>(index.q) << 32) | index.r));
  s = SplitMix64(s ^ attribute);
  return SplitMix64(s ^ seq);
}

Result<std::unique_ptr<StreamFabricator>> StreamFabricator::Make(
    const geom::Grid& grid, const FabricConfig& config) {
  if (!(config.headroom > 1.0)) {
    return Status::InvalidArgument(
        "headroom must be > 1 so the F output rate exceeds the first T "
        "output rate (paper Section V)");
  }
  if (config.flatten_batch_size < 2) {
    return Status::InvalidArgument("flatten batch size must be >= 2");
  }
  if (!(config.monitor_window > 0.0)) {
    return Status::InvalidArgument("monitor window must be > 0");
  }
  if (config.sink_capacity < 1) {
    return Status::InvalidArgument("sink capacity must be >= 1");
  }
  auto fabricator = std::unique_ptr<StreamFabricator>(
      new StreamFabricator(grid, config));
  // Process-wide sharing telemetry (functional: tests and ShardedStats
  // read the per-instance members; the registry counters feed the
  // exporter). stages_shared counts share events — a stage gaining its
  // second tapper — the monotone form of the live census.
  fabricator->obs_prefix_hits_ =
      obs::GetCounter("craqr.fabric.shared_prefix_hits");
  fabricator->obs_stages_shared_ =
      obs::GetCounter("craqr.fabric.stages_shared");
  fabricator->obs_taps_detached_ =
      obs::GetCounter("craqr.fabric.taps_detached");
  return fabricator;
}

void StreamFabricator::SetViolationCallback(ViolationCallback callback) {
  violation_callback_ = std::move(callback);
}

StreamFabricator::Cell* StreamFabricator::GetOrCreateCell(
    const geom::CellIndex& index) {
  auto it = cells_.find(index);
  if (it == cells_.end()) {
    it = cells_.emplace(index, std::make_unique<Cell>()).first;
  }
  return it->second.get();
}

Result<StreamFabricator::Chain*> StreamFabricator::GetOrCreateChain(
    Cell* cell, const geom::CellIndex& index, ops::AttributeId attribute,
    double rate) {
  auto it = cell->chains.find(attribute);
  if (it != cell->chains.end()) {
    return &it->second;
  }
  // "If the key is absent, it is created and a F-operator is added to it.
  // The first operator is always the F-operator, as ... this is the only
  // operator that has the capability of converting an inhomogeneous MDPP
  // to a homogeneous MDPP."
  ops::FlattenConfig fc;
  fc.region = grid_.CellRect(index);
  fc.target_rate = config_.headroom * rate;
  fc.target_mode = ops::FlattenTargetMode::kRatePerVolume;
  fc.mode = config_.flatten_mode;
  fc.batch_size = config_.flatten_batch_size;
  fc.min_rate = config_.flatten_min_rate;
  fc.min_batch_for_estimation = config_.flatten_min_batch_for_estimation;
  std::ostringstream name;
  name << "F[a" << attribute << "]" << index.ToString();
  Chain chain;
  CRAQR_ASSIGN_OR_RETURN(
      auto flatten,
      ops::FlattenOperator::Make(
          name.str(), fc, Rng(OperatorSeed(index, attribute, chain.op_seq++))));
  chain.flatten = cell->pipeline.Add(std::move(flatten));
  chain.f_target = fc.target_rate;
  chain.flat_cell = grid_.FlatIndex(index);
  auto emplaced = cell->chains.emplace(attribute, std::move(chain));
  Chain* inserted = &emplaced.first->second;
  BindChainReportCallback(inserted, attribute, index);
  RouteNoteChainAdded(inserted->flat_cell, attribute, inserted);
  return inserted;
}

void StreamFabricator::BindChainReportCallback(Chain* chain,
                                               ops::AttributeId attribute,
                                               const geom::CellIndex& index) {
  // Reports are buffered and replayed at the batch boundary in
  // completion-time order (ReplayPendingViolations), so feedback consumers
  // see the same canonical order on every execution path. The buffer's
  // mutex is uncontended: one thread drives a fabricator at a time.
  chain->flatten->SetReportCallback(
      [this, attribute, index](const ops::FlattenBatchReport& report) {
        if (violation_callback_) {
          std::lock_guard<std::mutex> lock(violations_mu_);
          pending_violations_.push_back({attribute, index, report});
        }
      });
}

double StreamFabricator::ThinInputRate(const Chain& chain, std::size_t index) {
  return index == 0 ? chain.f_target : chain.thins[index - 1].out_rate;
}

std::uint64_t StreamFabricator::PrefixSignature(const Chain& chain,
                                                std::size_t pos) {
  std::uint64_t h =
      Fnv1a64(kFnvOffset,
              static_cast<std::uint64_t>(ops::OperatorKind::kFlatten));
  h = Fnv1a64(h, chain.f_target);
  for (std::size_t i = 0; i <= pos && i < chain.thins.size(); ++i) {
    h = Fnv1a64(h, static_cast<std::uint64_t>(ops::OperatorKind::kThin));
    h = Fnv1a64(h, chain.thins[i].out_rate);
  }
  return h;
}

Status StreamFabricator::InsertTap(QueryState* qs,
                                   const geom::CellOverlap& overlap,
                                   double rate) {
  const geom::CellIndex index = overlap.cell;
  Cell* cell = GetOrCreateCell(index);
  CRAQR_ASSIGN_OR_RETURN(
      Chain * chain,
      GetOrCreateChain(cell, index, qs->stream.attribute, rate));

  // Locate the insertion point: chains are sorted by descending output
  // rate with the highest-rate T closest to F (paper Section V rule 1).
  std::size_t pos = 0;
  ThinNode* shared = nullptr;
  for (; pos < chain->thins.size(); ++pos) {
    if (RatesEqual(chain->thins[pos].out_rate, rate)) {
      shared = &chain->thins[pos];
      break;
    }
    if (chain->thins[pos].out_rate < rate) {
      break;
    }
  }

  ops::ThinOperator* tap_source = nullptr;
  if (shared != nullptr) {
    // An equal-rate T already exists; the new query taps the same T —
    // equivalent to the paper's rule 2 (never two consecutive T's without
    // a branching point; equal-rate demand never creates a second T).
    // This is a shared-prefix hit: the whole F -> ... -> T prefix is
    // reused instead of duplicated.
    ++shared_prefix_hits_;
    if (obs_prefix_hits_ != nullptr) {
      obs_prefix_hits_->Increment();
    }
    if (obs_stages_shared_ != nullptr && shared->tap_queries.size() == 1) {
      obs_stages_shared_->Increment();  // stage transitions to shared
    }
    shared->tap_queries.push_back(qs->stream.id);
    tap_source = shared->op;
  } else {
    // If the new T would become the first, make sure the F output rate
    // stays above it (rule 3).
    if (pos == 0 && chain->f_target <= rate * (1.0 + kRateEpsilon)) {
      const double new_target = config_.headroom * rate;
      CRAQR_RETURN_NOT_OK(chain->flatten->SetTargetRate(new_target));
      chain->f_target = new_target;
      if (!chain->thins.empty()) {
        // The old first T now receives the raised F rate... once the new T
        // is spliced in it will receive the new T's output instead; its
        // input is fixed below.
        CRAQR_RETURN_NOT_OK(chain->thins[0].op->UpdateRates(
            new_target, chain->thins[0].out_rate));
      }
    }
    const double input_rate = ThinInputRate(*chain, pos);
    std::ostringstream name;
    name << "T[a" << qs->stream.attribute << "]" << index.ToString() << "("
         << input_rate << "->" << rate << ")";
    CRAQR_ASSIGN_OR_RETURN(
        auto thin_owned,
        ops::ThinOperator::Make(
            name.str(), input_rate, rate,
            Rng(OperatorSeed(index, qs->stream.attribute, chain->op_seq++))));
    ops::ThinOperator* thin = cell->pipeline.Add(std::move(thin_owned));
    ops::Operator* prev =
        pos == 0 ? static_cast<ops::Operator*>(chain->flatten)
                 : static_cast<ops::Operator*>(chain->thins[pos - 1].op);
    if (pos < chain->thins.size()) {
      // Splice before the next T: its input drops to the new T's output.
      ops::ThinOperator* next = chain->thins[pos].op;
      prev->RemoveOutput(next);
      thin->AddOutput(next);
      CRAQR_RETURN_NOT_OK(
          next->UpdateRates(rate, chain->thins[pos].out_rate));
    }
    prev->AddOutput(thin);
    ThinNode node;
    node.op = thin;
    node.out_rate = rate;
    node.tap_queries.push_back(qs->stream.id);
    chain->thins.insert(chain->thins.begin() + static_cast<std::ptrdiff_t>(pos),
                        std::move(node));
    tap_source = thin;
  }

  // Wire the tap into the query's merge stage, through a P operator when
  // the query only needs part of the cell ("P-operators are required only
  // for Q3, since Q1 and Q2 perfectly overlap the grid cells").
  Tap tap;
  tap.cell = index;
  tap.overlap = overlap.region;
  tap.covers_cell = overlap.covers_cell;
  if (overlap.covers_cell) {
    tap_source->AddOutput(qs->merge_head);
  } else if (config_.enable_sharing) {
    // Shared-subplan index lookup: an identical carve-out below the same
    // canonical prefix (this T node) is tapped instead of duplicated. The
    // sharer list is the ref count; the splitter broadcasts P port 0 to
    // every sharer's merge head. P and the splitter draw no randomness,
    // so sharing cannot change delivered bytes.
    const std::size_t node_pos =
        static_cast<std::size_t>(std::find_if(chain->thins.begin(),
                                              chain->thins.end(),
                                              [&](const ThinNode& n) {
                                                return n.op == tap_source;
                                              }) -
                                 chain->thins.begin());
    ThinNode& node = chain->thins[node_pos];
    SharedPartition* entry = nullptr;
    for (auto& candidate : node.partitions) {
      if (candidate.region == overlap.region) {
        entry = &candidate;
        break;
      }
    }
    if (entry != nullptr) {
      ++shared_prefix_hits_;
      if (obs_prefix_hits_ != nullptr) {
        obs_prefix_hits_->Increment();
      }
      if (obs_stages_shared_ != nullptr && entry->sharers.size() == 1) {
        obs_stages_shared_->Increment();  // carve-out transitions to shared
      }
    } else {
      const std::uint64_t signature =
          RegionSignature(PrefixSignature(*chain, node_pos), overlap.region);
      const geom::Rect cell_rect = grid_.CellRect(index);
      std::vector<geom::Rect> regions;
      regions.push_back(overlap.region);
      for (const auto& piece :
           geom::Rect::Subtract(cell_rect, overlap.region)) {
        regions.push_back(piece);
      }
      // Named by the subplan key, not by a query: the stage outlives any
      // individual sharer.
      std::ostringstream name;
      name << "P[x" << std::hex << signature << std::dec << "]"
           << index.ToString();
      CRAQR_ASSIGN_OR_RETURN(
          auto partition_owned,
          ops::PartitionOperator::Make(name.str(), std::move(regions)));
      ops::PartitionOperator* partition =
          cell->pipeline.Add(std::move(partition_owned));
      CRAQR_ASSIGN_OR_RETURN(
          auto splitter_owned,
          ops::PassThroughOperator::Make(name.str() + "-split"));
      ops::PassThroughOperator* splitter =
          cell->pipeline.Add(std::move(splitter_owned));
      tap_source->AddOutput(partition);
      // Port 0 is the overlap region; the complement ports stay
      // unconnected (their tuples are not part of any sharer's stream).
      partition->AddOutput(splitter);
      node.partitions.push_back(
          {signature, overlap.region, partition, splitter, {}});
      entry = &node.partitions.back();
    }
    entry->sharers.push_back(qs->stream.id);
    entry->splitter->AddOutput(qs->merge_head);
    tap.partition = entry->op;
    tap.shared = true;
  } else {
    const geom::Rect cell_rect = grid_.CellRect(index);
    std::vector<geom::Rect> regions;
    regions.push_back(overlap.region);
    for (const auto& piece : geom::Rect::Subtract(cell_rect, overlap.region)) {
      regions.push_back(piece);
    }
    std::ostringstream name;
    name << "P[q" << qs->stream.id << "]" << index.ToString();
    CRAQR_ASSIGN_OR_RETURN(
        auto partition_owned,
        ops::PartitionOperator::Make(name.str(), std::move(regions)));
    ops::PartitionOperator* partition =
        cell->pipeline.Add(std::move(partition_owned));
    tap_source->AddOutput(partition);
    // Port 0 is the overlap region; the complement ports stay unconnected
    // (their tuples are not part of this query's stream).
    partition->AddOutput(qs->merge_head);
    tap.partition = partition;
  }
  qs->taps.push_back(tap);
  return Status::OK();
}

Result<QueryStream> StreamFabricator::InsertQuery(ops::AttributeId attribute,
                                                  const geom::Rect& region,
                                                  double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    return Status::InvalidArgument("query rate must be > 0");
  }
  CRAQR_RETURN_NOT_OK(grid_.ValidateQueryRegion(region));
  CRAQR_ASSIGN_OR_RETURN(std::vector<geom::CellOverlap> overlaps,
                         grid_.Overlaps(region));
  const auto clipped = grid_.region().Intersection(region);
  if (!clipped.has_value()) {
    return Status::InvalidArgument(
        "query region does not intersect the system region");
  }

  const query::QueryId id = next_query_id_++;
  QueryState qs;
  qs.stream.id = id;
  qs.stream.attribute = attribute;
  qs.stream.region = *clipped;
  qs.stream.rate = rate;

  CRAQR_ASSIGN_OR_RETURN(
      qs.merge_head,
      BuildMergeStage(&qs.stream, &qs.merge_pipeline, overlaps,
                      config_.monitor_window, config_.sink_capacity));

  return FinishInsert(std::move(qs), overlaps, rate);
}

Result<QueryStream> StreamFabricator::FinishInsert(
    QueryState qs, const std::vector<geom::CellOverlap>& overlaps,
    double rate) {
  // Process stage: one tap per overlapped cell.
  for (const auto& overlap : overlaps) {
    CRAQR_RETURN_NOT_OK(InsertTap(&qs, overlap, rate));
  }

  const QueryStream handle = qs.stream;
  queries_.emplace(handle.id, std::move(qs));
  return handle;
}

Result<QueryStream> StreamFabricator::InsertQueryPartial(
    ops::AttributeId attribute, const geom::Rect& region, double rate,
    const std::vector<geom::CellOverlap>& overlaps,
    ops::SinkOperator::BatchCallback on_deliver) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    return Status::InvalidArgument("query rate must be > 0");
  }
  if (overlaps.empty()) {
    return Status::InvalidArgument("partial query needs at least one cell");
  }

  const query::QueryId id = next_query_id_++;
  QueryState qs;
  qs.stream.id = id;
  qs.stream.attribute = attribute;
  qs.stream.region = region;
  qs.stream.rate = rate;

  // No U merge and no rate monitor here: the per-cell partial streams of
  // this fabricator converge in a delivery-only sink, and the caller
  // merges across fabricators (paper Fig. 2(c)'s U stage, lifted one level
  // up by the sharded runtime). Whole batches leave via the callback.
  std::ostringstream base;
  base << "Q" << id;
  CRAQR_ASSIGN_OR_RETURN(
      auto sink_owned,
      ops::SinkOperator::MakeBatched(base.str() + "-partial-sink",
                                     std::move(on_deliver)));
  ops::SinkOperator* sink = qs.merge_pipeline.Add(std::move(sink_owned));
  qs.merge_head = sink;
  qs.stream.sink = sink;
  qs.stream.monitor = nullptr;

  return FinishInsert(std::move(qs), overlaps, rate);
}

Result<QueryStream> StreamFabricator::InsertQueryShell(
    ops::AttributeId attribute, const geom::Rect& region, double rate,
    ops::SinkOperator::BatchCallback on_deliver) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    return Status::InvalidArgument("query rate must be > 0");
  }
  const query::QueryId id = next_query_id_++;
  QueryState qs;
  qs.stream.id = id;
  qs.stream.attribute = attribute;
  qs.stream.region = region;
  qs.stream.rate = rate;
  // Same delivery endpoint as InsertQueryPartial, but zero taps: the
  // caller (RestoreState) rebuilds the per-cell chains and wires them in.
  std::ostringstream base;
  base << "Q" << id;
  CRAQR_ASSIGN_OR_RETURN(
      auto sink_owned,
      ops::SinkOperator::MakeBatched(base.str() + "-partial-sink",
                                     std::move(on_deliver)));
  ops::SinkOperator* sink = qs.merge_pipeline.Add(std::move(sink_owned));
  qs.merge_head = sink;
  qs.stream.sink = sink;
  qs.stream.monitor = nullptr;
  const QueryStream handle = qs.stream;
  queries_.emplace(id, std::move(qs));
  return handle;
}

Status StreamFabricator::RemoveTap(QueryState* qs, const Tap& tap) {
  auto cell_it = cells_.find(tap.cell);
  if (cell_it == cells_.end()) {
    return Status::Internal("tap references unmaterialized cell " +
                            tap.cell.ToString());
  }
  Cell* cell = cell_it->second.get();
  auto chain_it = cell->chains.find(qs->stream.attribute);
  if (chain_it == cell->chains.end()) {
    return Status::Internal("tap references missing chain in cell " +
                            tap.cell.ToString());
  }
  Chain* chain = &chain_it->second;

  // Find the T this query taps.
  std::size_t pos = chain->thins.size();
  for (std::size_t i = 0; i < chain->thins.size(); ++i) {
    auto& queries = chain->thins[i].tap_queries;
    const auto it = std::find(queries.begin(), queries.end(), qs->stream.id);
    if (it != queries.end()) {
      queries.erase(it);
      pos = i;
      break;
    }
  }
  if (pos == chain->thins.size()) {
    return Status::Internal("query tap not found in chain");
  }
  ThinNode& node = chain->thins[pos];

  // Unwire the tap edge (right-to-left: stream endpoint first).
  ++taps_detached_;
  if (obs_taps_detached_ != nullptr) {
    obs_taps_detached_->Increment();
  }
  if (tap.partition != nullptr) {
    SharedPartition* entry =
        tap.shared ? FindShare(node, tap.partition) : nullptr;
    if (tap.shared && entry == nullptr) {
      return Status::Internal("shared tap lost its carve-out record");
    }
    if (entry != nullptr) {
      // Ref-counted shared carve-out: detach only this sharer's splitter
      // edge — the unshared suffix. The P + splitter survive (and keep
      // every other sharer's stream untouched) until the last sharer
      // leaves.
      entry->splitter->RemoveOutput(qs->merge_head);
      const auto sharer = std::find(entry->sharers.begin(),
                                    entry->sharers.end(), qs->stream.id);
      if (sharer == entry->sharers.end()) {
        return Status::Internal("shared carve-out missing its sharer record");
      }
      entry->sharers.erase(sharer);
      if (entry->sharers.empty()) {
        node.op->RemoveOutput(entry->op);
        entry->op->RemoveOutput(entry->splitter);
        cell->pipeline.Remove(entry->splitter);
        cell->pipeline.Remove(entry->op);
        node.partitions.erase(
            node.partitions.begin() + (entry - node.partitions.data()));
      }
    } else {
      node.op->RemoveOutput(tap.partition);
      cell->pipeline.Remove(tap.partition);
    }
  } else {
    node.op->RemoveOutput(qs->merge_head);
  }

  // "If two consecutive T-operators are created in this process, then they
  // are merged to form a single T-operator" — a tap-less T either merges
  // with its successor or, when last, disappears.
  if (node.tap_queries.empty()) {
    ops::Operator* prev =
        pos == 0 ? static_cast<ops::Operator*>(chain->flatten)
                 : static_cast<ops::Operator*>(chain->thins[pos - 1].op);
    const double input_rate = ThinInputRate(*chain, pos);
    if (pos + 1 < chain->thins.size()) {
      ThinNode& next = chain->thins[pos + 1];
      node.op->RemoveOutput(next.op);
      prev->RemoveOutput(node.op);
      prev->AddOutput(next.op);
      CRAQR_RETURN_NOT_OK(next.op->UpdateRates(input_rate, next.out_rate));
    } else {
      prev->RemoveOutput(node.op);
    }
    cell->pipeline.Remove(node.op);
    chain->thins.erase(chain->thins.begin() +
                       static_cast<std::ptrdiff_t>(pos));
  }

  if (chain->thins.empty()) {
    // Continue right-to-left: the F operator and finally the hashmap key.
    RouteNoteChainRemoved(chain, qs->stream.attribute);
    cell->pipeline.Remove(chain->flatten);
    cell->chains.erase(chain_it);
    if (cell->chains.empty()) {
      cells_.erase(cell_it);
    }
    return Status::OK();
  }

  // Optionally relax the F target down to the new first T (keeps the
  // acquisition budget honest after high-rate queries leave).
  const double desired_target = config_.headroom * chain->thins[0].out_rate;
  if (desired_target < chain->f_target) {
    CRAQR_RETURN_NOT_OK(chain->flatten->SetTargetRate(desired_target));
    chain->f_target = desired_target;
    CRAQR_RETURN_NOT_OK(chain->thins[0].op->UpdateRates(
        desired_target, chain->thins[0].out_rate));
  }
  return Status::OK();
}

Status StreamFabricator::RemoveQuery(query::QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  QueryState& qs = it->second;
  for (const Tap& tap : qs.taps) {
    CRAQR_RETURN_NOT_OK(RemoveTap(&qs, tap));
  }
  queries_.erase(it);
  return Status::OK();
}

StreamFabricator::Chain* StreamFabricator::RouteTarget(
    double x, double y, ops::AttributeId attribute) {
  const auto index = grid_.CellContaining(x, y);
  if (!index.has_value()) {
    return nullptr;
  }
  const auto cell_it = cells_.find(*index);
  if (cell_it == cells_.end()) {
    return nullptr;
  }
  const auto chain_it = cell_it->second->chains.find(attribute);
  if (chain_it == cell_it->second->chains.end()) {
    return nullptr;
  }
  return &chain_it->second;
}

Status StreamFabricator::ProcessTuple(const ops::Tuple& tuple) {
  Chain* chain = RouteTarget(tuple.point.x, tuple.point.y, tuple.attribute);
  if (chain == nullptr) {
    ++tuples_unrouted_;
    return Status::OK();
  }
  ++tuples_routed_;
  return chain->flatten->Push(tuple);
}

void StreamFabricator::RebuildRouteTable() {
  route_dirty_ = false;
  ++route_rebuilds_;
  route_attrs_.clear();
  route_chains_.clear();
  route_lut_.clear();
  route_holes_ = 0;
  // Deterministic bucket enumeration: (flat cell, attribute) ascending,
  // independent of hashmap iteration order, so the dispatch order of the
  // routed groups is reproducible run to run.
  std::vector<std::tuple<std::uint32_t, ops::AttributeId, Chain*>> entries;
  for (auto& [index, cell] : cells_) {
    for (auto& [attribute, chain] : cell->chains) {
      entries.emplace_back(grid_.FlatIndex(index), attribute, &chain);
      route_attrs_.push_back(attribute);
    }
  }
  std::sort(route_attrs_.begin(), route_attrs_.end());
  route_attrs_.erase(std::unique(route_attrs_.begin(), route_attrs_.end()),
                     route_attrs_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              return std::make_pair(std::get<0>(a), std::get<1>(a)) <
                     std::make_pair(std::get<0>(b), std::get<1>(b));
            });
  // Live chains occupy buckets 1..n on both routers; bucket 0 is the
  // unrouted sentinel. Appending a chain later is one bucket push
  // (RouteNoteChainAdded), not a re-enumeration.
  route_chains_.assign(1, nullptr);
  route_chains_.reserve(entries.size() + 1);
  for (const auto& entry : entries) {
    Chain* chain = std::get<2>(entry);
    chain->route_bucket = static_cast<std::uint32_t>(route_chains_.size());
    route_chains_.push_back(chain);
  }
  const std::uint64_t rows = static_cast<std::uint64_t>(grid_.NumCells()) + 1;
  const std::uint64_t cols = route_attrs_.size() + 1;
  route_lut_enabled_ = !entries.empty() &&
                       rows * cols <= kMaxRouteLutEntries &&
                       route_attrs_.size() <= kMaxRouteSlotScan;
  if (!route_lut_enabled_) {
    return;
  }
  // Every slot starts as bucket 0; the sentinel row (invalid cell) and
  // column (unknown attribute) stay that way, so the router resolves every
  // row with one unconditional load.
  route_lut_.assign(rows * cols, 0u);
  for (const auto& [flat, attribute, chain] : entries) {
    const auto slot = static_cast<std::uint32_t>(
        std::lower_bound(route_attrs_.begin(), route_attrs_.end(),
                         attribute) -
        route_attrs_.begin());
    route_lut_[flat * cols + slot] = chain->route_bucket;
  }
}

void StreamFabricator::RouteNoteChainAdded(std::uint32_t flat,
                                           ops::AttributeId attribute,
                                           Chain* chain) {
  if (route_dirty_) {
    return;  // a full rebuild is already pending
  }
  if (!route_lut_enabled_) {
    // Either no table yet (first chain ever) or the fallback router is
    // active; let the next batch decide with a full rebuild.
    route_dirty_ = true;
    return;
  }
  const auto slot_it = std::lower_bound(route_attrs_.begin(),
                                        route_attrs_.end(), attribute);
  if (slot_it == route_attrs_.end() || *slot_it != attribute) {
    // Attribute-slot-set change: the table needs a new column — the one
    // case the incremental path cannot patch.
    route_dirty_ = true;
    return;
  }
  const auto slot = static_cast<std::uint32_t>(slot_it - route_attrs_.begin());
  const std::uint32_t cols =
      static_cast<std::uint32_t>(route_attrs_.size()) + 1;
  chain->route_bucket = static_cast<std::uint32_t>(route_chains_.size());
  route_chains_.push_back(chain);
  route_lut_[flat * cols + slot] = chain->route_bucket;
  ++route_patches_;
}

void StreamFabricator::RouteNoteChainRemoved(Chain* chain,
                                             ops::AttributeId attribute) {
  if (route_dirty_) {
    return;  // nothing live to patch
  }
  const auto slot_it = std::lower_bound(route_attrs_.begin(),
                                        route_attrs_.end(), attribute);
  const std::uint32_t bucket = chain->route_bucket;
  if (slot_it == route_attrs_.end() || *slot_it != attribute ||
      bucket == 0 || bucket >= route_chains_.size() ||
      route_chains_[bucket] != chain) {
    // Inconsistent incremental state; resynchronize with a full rebuild.
    route_dirty_ = true;
    return;
  }
  if (route_lut_enabled_) {
    const auto slot =
        static_cast<std::uint32_t>(slot_it - route_attrs_.begin());
    const std::uint32_t cols =
        static_cast<std::uint32_t>(route_attrs_.size()) + 1;
    route_lut_[chain->flat_cell * cols + slot] = 0;
  }
  route_chains_[bucket] = nullptr;
  chain->route_bucket = 0;
  ++route_holes_;
  ++route_patches_;
  // Compact once holes dominate: the histogram pass costs O(buckets) per
  // batch, so a mostly-hole table wastes count/prefix-sum work.
  if (route_holes_ * 2 > route_chains_.size() && route_chains_.size() > 64) {
    route_dirty_ = true;
  }
}

void StreamFabricator::RouteBatchFallback(const ops::TupleBatch& batch) {
  // Per-row map routing: each row's bucket is its chain's bucket.
  const auto n = static_cast<std::uint32_t>(batch.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    const geom::SpaceTimePoint& p = batch.point_at(i);
    const Chain* chain = RouteTarget(p.x, p.y, batch.attribute_at(i));
    row_buckets_[i] = chain == nullptr ? 0u : chain->route_bucket;
  }
}

Status StreamFabricator::RouteBatch(ops::TupleBatch& batch) {
  // Single-pass histogram routing over the point/attribute columns:
  // (1) resolve every row's flat cell (branch-free column sweep), (2)
  // resolve every row's bucket with one load from the dense
  // (cell, attribute) table, (3) count -> prefix-sum -> scatter groups
  // the row indices by bucket, and (4) each touched chain's F receives
  // the step batch itself with its group adopted as the selection — no
  // routed row is copied here. No per-row hashmap lookup, no per-row
  // dispatch branch. Only step (2) falls back to per-row map lookups,
  // when the dense table would be oversized.
  batch.Materialize();
  if (route_dirty_) {
    RebuildRouteTable();
  }
  const auto n = static_cast<std::uint32_t>(batch.size());
  if (n == 0 || route_chains_.size() <= 1) {
    tuples_unrouted_ += n;
    return Status::OK();
  }
  row_buckets_.resize(n);
  if (!route_lut_enabled_) {
    // Expected only for oversized grid x attribute tables; worth a
    // (rate-limited) heads-up because per-row routing is much slower.
    CRAQR_LOG_EVERY_N(WARNING, 4096)
        << "histogram route LUT disabled; using per-row fallback routing";
    RouteBatchFallback(batch);
  } else {
    const Span<const geom::SpaceTimePoint> points = batch.Points();
    const Span<const ops::AttributeId> attrs = batch.Attributes();
    row_cells_.resize(n);
    grid_.FillFlatCells(points, row_cells_.data(),
                        /*invalid_value=*/grid_.NumCells());
    const auto nslots = static_cast<std::uint32_t>(route_attrs_.size());
    const std::uint32_t cols = nslots + 1;
    const ops::AttributeId* slot_attrs = route_attrs_.data();
    for (std::uint32_t i = 0; i < n; ++i) {
      const ops::AttributeId attribute = attrs[i];
      // Branch-free slot scan over the handful of live attributes;
      // misses keep the sentinel column.
      std::uint32_t slot = nslots;
      for (std::uint32_t s = 0; s < nslots; ++s) {
        slot = slot_attrs[s] == attribute ? s : slot;
      }
      row_buckets_[i] = route_lut_[row_cells_[i] * cols + slot];
    }
  }
  const auto nbuckets = static_cast<std::uint32_t>(route_chains_.size());
  bucket_counts_.assign(nbuckets, 0);
  grouped_rows_.resize(n);
  simd::HistogramGroup({row_buckets_.data(), n},
                       {bucket_counts_.data(), nbuckets},
                       grouped_rows_.data());
  // Bucket 0 groups the unrouted rows (sentinel slots and the cleared
  // slots of evicted chains); live chains follow in buckets 1..n. Each
  // group is ascending (the scatter is stable), as a selection must be.
  const std::uint32_t unrouted = bucket_counts_[0];
  tuples_routed_ += n - unrouted;
  tuples_unrouted_ += unrouted;
  std::uint32_t begin = unrouted;
  for (std::uint32_t b = 1; b < nbuckets; ++b) {
    const std::uint32_t end = bucket_counts_[b];
    if (end != begin) {
      route_selection_.assign(grouped_rows_.data() + begin,
                              grouped_rows_.data() + end);
      batch.AdoptSelection(&route_selection_);
      CRAQR_RETURN_NOT_OK(route_chains_[b]->flatten->PushBatch(batch));
    }
    begin = end;
  }
  return Status::OK();
}

Status StreamFabricator::ProcessBatch(ops::TupleBatch& batch) {
  const Status status = RouteBatch(batch);
  batch.Clear();
  CRAQR_RETURN_NOT_OK(status);
  return FlushAll();
}

Status StreamFabricator::ProcessBatch(const std::vector<ops::Tuple>& batch) {
  // Convenience path (tests, benches): one scatter, then the hot overload.
  ops::TupleBatch columns(batch);
  return ProcessBatch(columns);
}

Status StreamFabricator::FlushAll() {
  for (auto& [index, cell] : cells_) {
    (void)index;
    CRAQR_RETURN_NOT_OK(cell->pipeline.FlushAll());
  }
  for (auto& [id, qs] : queries_) {
    (void)id;
    CRAQR_RETURN_NOT_OK(qs.merge_pipeline.FlushAll());
  }
  ReplayPendingViolations();
  return Status::OK();
}

void StreamFabricator::ReplayPendingViolations() {
  std::vector<PendingViolation> events;
  {
    std::lock_guard<std::mutex> lock(violations_mu_);
    events.swap(pending_violations_);
  }
  if (events.empty()) {
    return;
  }
  // Canonical replay order (ViolationReplayLess). Stable, so one F
  // operator's reports keep their firing order. The sharded runtime
  // sorts its cross-shard replay with the same comparator, which is what
  // makes feedback consumers (budget tuning, incentives) evolve
  // identically for every shard count.
  std::stable_sort(events.begin(), events.end(),
                   [](const PendingViolation& a, const PendingViolation& b) {
                     return ViolationReplayLess(
                         {a.report.completed_at, a.attribute, a.cell},
                         {b.report.completed_at, b.attribute, b.cell});
                   });
  // The callback is user code and may re-enter the fabricator (the local
  // copy of the event list keeps the replay safe).
  const ViolationCallback callback = violation_callback_;
  if (callback) {
    for (const PendingViolation& event : events) {
      callback(event.attribute, event.cell, event.report);
    }
  }
}

Result<QueryStream> StreamFabricator::GetStream(query::QueryId id) const {
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  return it->second.stream;
}

Result<std::vector<geom::CellIndex>> StreamFabricator::QueryCells(
    query::QueryId id) const {
  const auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("query " + std::to_string(id) + " is not live");
  }
  std::vector<geom::CellIndex> cells;
  cells.reserve(it->second.taps.size());
  for (const Tap& tap : it->second.taps) {
    cells.push_back(tap.cell);
  }
  return cells;
}

std::size_t StreamFabricator::SharedStagesLive() const {
  std::size_t shared = 0;
  for (const auto& [index, cell] : cells_) {
    (void)index;
    for (const auto& [attribute, chain] : cell->chains) {
      (void)attribute;
      for (const ThinNode& node : chain.thins) {
        if (node.tap_queries.size() >= 2) {
          ++shared;
        }
        for (const SharedPartition& entry : node.partitions) {
          if (entry.sharers.size() >= 2) {
            ++shared;
          }
        }
      }
    }
  }
  return shared;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
StreamFabricator::SharedStageCensus() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> census;
  for (const auto& [index, cell] : cells_) {
    (void)index;
    std::uint32_t shared = 0;
    std::uint32_t flat = 0;
    for (const auto& [attribute, chain] : cell->chains) {
      (void)attribute;
      flat = chain.flat_cell;
      for (const ThinNode& node : chain.thins) {
        if (node.tap_queries.size() >= 2) {
          ++shared;
        }
        for (const SharedPartition& entry : node.partitions) {
          if (entry.sharers.size() >= 2) {
            ++shared;
          }
        }
      }
    }
    if (shared > 0) {
      census.emplace_back(flat, shared);
    }
  }
  std::sort(census.begin(), census.end());
  return census;
}

std::size_t StreamFabricator::TotalOperators() const {
  std::size_t total = 0;
  for (const auto& [index, cell] : cells_) {
    (void)index;
    total += cell->pipeline.size();
  }
  for (const auto& [id, qs] : queries_) {
    (void)id;
    total += qs.merge_pipeline.size();
  }
  return total;
}

std::uint64_t StreamFabricator::TotalOperatorEvaluations() const {
  std::uint64_t total = 0;
  for (const auto& [index, cell] : cells_) {
    (void)index;
    total += cell->pipeline.TotalOperatorEvaluations();
  }
  for (const auto& [id, qs] : queries_) {
    (void)id;
    total += qs.merge_pipeline.TotalOperatorEvaluations();
  }
  return total;
}

void StreamFabricator::VisitOperators(
    const std::function<void(const ops::Operator&)>& visitor) const {
  for (const auto& [index, cell] : cells_) {
    (void)index;
    for (const auto& op : cell->pipeline.operators()) {
      visitor(*op);
    }
  }
  for (const auto& [id, qs] : queries_) {
    (void)id;
    for (const auto& op : qs.merge_pipeline.operators()) {
      visitor(*op);
    }
  }
}

void StreamFabricator::ReinternStrings(ops::ValuePool& pool) {
  for (auto& [index, cell] : cells_) {
    (void)index;
    for (const auto& op : cell->pipeline.operators()) {
      op->ReinternStrings(pool);
    }
  }
  for (auto& [id, qs] : queries_) {
    (void)id;
    for (const auto& op : qs.merge_pipeline.operators()) {
      op->ReinternStrings(pool);
    }
  }
}

void StreamFabricator::TrimMemory() {
  row_cells_.shrink_to_fit();
  row_buckets_.shrink_to_fit();
  bucket_counts_.shrink_to_fit();
  grouped_rows_.shrink_to_fit();
  route_selection_.shrink_to_fit();
}

std::size_t StreamFabricator::BatchMemoryBytes() const {
  return (row_cells_.capacity() + row_buckets_.capacity() +
          bucket_counts_.capacity() + grouped_rows_.capacity() +
          route_selection_.capacity()) *
         sizeof(std::uint32_t);
}

namespace {

bool HasEdge(const ops::Operator* from, const ops::Operator* to) {
  for (const ops::Operator* out : from->outputs()) {
    if (out == to) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status StreamFabricator::ValidateInvariants() const {
  const auto fail = [](const std::string& what) {
    return Status::Internal("topology invariant violated: " + what);
  };
  for (const auto& [index, cell] : cells_) {
    if (cell->chains.empty()) {
      return fail("cell " + index.ToString() +
                  " is materialized but has no chains");
    }
    for (const auto& [attribute, chain] : cell->chains) {
      const std::string where =
          "cell " + index.ToString() + " A<" + std::to_string(attribute) + ">";
      if (chain.flatten == nullptr) {
        return fail(where + " has no F operator");
      }
      if (chain.thins.empty()) {
        return fail(where + " has an F but no T (should have been evicted)");
      }
      if (std::fabs(chain.flatten->target_rate() - chain.f_target) >
          1e-9 * std::max(1.0, chain.f_target)) {
        return fail(where + " F target drifted from the chain record");
      }
      // Rule 3: F output rate strictly above the first T's output rate.
      if (!(chain.f_target > chain.thins[0].out_rate)) {
        return fail(where + " F target does not exceed the first T rate");
      }
      if (!HasEdge(chain.flatten, chain.thins[0].op)) {
        return fail(where + " missing F -> first T edge");
      }
      for (std::size_t i = 0; i < chain.thins.size(); ++i) {
        const ThinNode& node = chain.thins[i];
        // Rule 1: strictly descending output rates.
        if (i + 1 < chain.thins.size() &&
            !(node.out_rate > chain.thins[i + 1].out_rate)) {
          return fail(where + " T chain is not strictly descending");
        }
        // Rule 2 / deletion re-merge: no tap-less T survives.
        if (node.tap_queries.empty()) {
          return fail(where + " has a T with no query taps");
        }
        const double expected_input = ThinInputRate(chain, i);
        if (std::fabs(node.op->input_rate() - expected_input) >
            1e-9 * std::max(1.0, expected_input)) {
          return fail(where + " T input rate mismatches its upstream");
        }
        if (std::fabs(node.op->output_rate() - node.out_rate) >
            1e-9 * std::max(1.0, node.out_rate)) {
          return fail(where + " T output rate drifted from the chain record");
        }
        const bool has_next = i + 1 < chain.thins.size();
        if (has_next && !HasEdge(node.op, chain.thins[i + 1].op)) {
          return fail(where + " missing T -> T edge");
        }
        // Shared carve-outs: every entry is one T output edge no matter
        // how many queries share it, and its ref count (the sharer list)
        // must stay consistent with the node's tap registry.
        std::size_t shared_sharers = 0;
        for (const SharedPartition& entry : node.partitions) {
          if (entry.op == nullptr || entry.splitter == nullptr) {
            return fail(where + " shared carve-out missing its P/splitter");
          }
          if (entry.sharers.empty()) {
            return fail(where + " shared carve-out with zero ref count");
          }
          if (!HasEdge(node.op, entry.op)) {
            return fail(where + " missing T -> shared P edge");
          }
          if (!HasEdge(entry.op, entry.splitter)) {
            return fail(where + " missing shared P -> splitter edge");
          }
          if (entry.splitter->outputs().size() != entry.sharers.size()) {
            return fail(where + " splitter fan-out mismatches the ref count");
          }
          for (const query::QueryId id : entry.sharers) {
            if (std::find(node.tap_queries.begin(), node.tap_queries.end(),
                          id) == node.tap_queries.end()) {
              return fail(where + " shared carve-out sharer is not a tapper");
            }
          }
          shared_sharers += entry.sharers.size();
        }
        // Each sharer reaches the merge stage through its entry's single
        // T -> P edge; every other tapper (covering or unshared-partial)
        // holds one direct edge.
        const std::size_t expected_outputs = node.tap_queries.size() -
                                             shared_sharers +
                                             node.partitions.size() +
                                             (has_next ? 1u : 0u);
        if (node.op->outputs().size() != expected_outputs) {
          return fail(where + " T has " +
                      std::to_string(node.op->outputs().size()) +
                      " outputs, expected " +
                      std::to_string(expected_outputs));
        }
        for (const query::QueryId id : node.tap_queries) {
          if (queries_.find(id) == queries_.end()) {
            return fail(where + " taps a dead query");
          }
        }
      }
    }
  }
  // Every live query's taps must resolve to live chains with live edges.
  for (const auto& [id, qs] : queries_) {
    for (const Tap& tap : qs.taps) {
      const auto cell_it = cells_.find(tap.cell);
      if (cell_it == cells_.end()) {
        return fail("query " + std::to_string(id) +
                    " taps unmaterialized cell " + tap.cell.ToString());
      }
      const auto chain_it =
          cell_it->second->chains.find(qs.stream.attribute);
      if (chain_it == cell_it->second->chains.end()) {
        return fail("query " + std::to_string(id) +
                    " taps a missing chain in " + tap.cell.ToString());
      }
      const ThinNode* source = nullptr;
      for (const ThinNode& node : chain_it->second.thins) {
        if (std::find(node.tap_queries.begin(), node.tap_queries.end(), id) !=
            node.tap_queries.end()) {
          source = &node;
          break;
        }
      }
      if (source == nullptr) {
        return fail("query " + std::to_string(id) + " has no tap T in " +
                    tap.cell.ToString());
      }
      const ops::Operator* hop =
          tap.partition != nullptr
              ? static_cast<const ops::Operator*>(tap.partition)
              : static_cast<const ops::Operator*>(qs.merge_head);
      if (!HasEdge(source->op, hop)) {
        return fail("query " + std::to_string(id) + " missing tap edge in " +
                    tap.cell.ToString());
      }
      if (tap.shared) {
        // Shared carve-out: the query reaches its merge head through the
        // entry's splitter, and must be on the entry's sharer list.
        const SharedPartition* entry = nullptr;
        for (const SharedPartition& candidate : source->partitions) {
          if (candidate.op == tap.partition) {
            entry = &candidate;
            break;
          }
        }
        if (entry == nullptr) {
          return fail("query " + std::to_string(id) +
                      " shared tap has no carve-out entry in " +
                      tap.cell.ToString());
        }
        if (std::find(entry->sharers.begin(), entry->sharers.end(), id) ==
            entry->sharers.end()) {
          return fail("query " + std::to_string(id) +
                      " missing from its carve-out ref count in " +
                      tap.cell.ToString());
        }
        if (!HasEdge(entry->splitter, qs.merge_head)) {
          return fail("query " + std::to_string(id) +
                      " missing splitter -> merge edge in " +
                      tap.cell.ToString());
        }
      } else if (tap.partition != nullptr &&
                 !HasEdge(tap.partition, qs.merge_head)) {
        return fail("query " + std::to_string(id) +
                    " missing P -> merge edge in " + tap.cell.ToString());
      }
    }
  }
  // Counter conservation: the batch path must account tuples_in/out
  // exactly like the per-tuple path on every operator...
  Status stats_status = Status::OK();
  VisitOperators([&stats_status](const ops::Operator& op) {
    if (stats_status.ok()) {
      stats_status = ops::ValidateStatsConservation(op);
    }
  });
  CRAQR_RETURN_NOT_OK(stats_status);
  // ...and across merge-stage edges, which are created atomically with
  // the stage (ValidateMergeStageCounters).
  for (const auto& [id, qs] : queries_) {
    (void)id;
    CRAQR_RETURN_NOT_OK(ValidateMergeStageCounters(qs.stream, *qs.merge_head));
  }
  return Status::OK();
}

std::string StreamFabricator::DescribeTopology() const {
  std::ostringstream os;
  // Deterministic ordering for tests and the Fig-2 bench.
  std::map<std::pair<std::uint32_t, std::uint32_t>, const Cell*> ordered;
  for (const auto& [index, cell] : cells_) {
    ordered.emplace(std::make_pair(index.q, index.r), cell.get());
  }
  for (const auto& [qr, cell] : ordered) {
    os << "cell (" << qr.first << "," << qr.second << "):\n";
    std::map<ops::AttributeId, const Chain*> chains;
    for (const auto& [attribute, chain] : cell->chains) {
      chains.emplace(attribute, &chain);
    }
    for (const auto& [attribute, chain] : chains) {
      os << "  A<" << attribute << ">: F(out=" << chain->f_target << ")";
      for (const auto& node : chain->thins) {
        os << " -> T(->" << node.out_rate << ")[";
        for (std::size_t i = 0; i < node.tap_queries.size(); ++i) {
          os << (i > 0 ? "," : "") << "Q" << node.tap_queries[i];
        }
        os << "]";
        for (const SharedPartition& entry : node.partitions) {
          os << "{P " << entry.region.ToString() << " <-";
          for (std::size_t i = 0; i < entry.sharers.size(); ++i) {
            os << (i > 0 ? "," : "") << "Q" << entry.sharers[i];
          }
          os << "}";
        }
      }
      os << "\n";
    }
  }
  std::map<query::QueryId, const QueryState*> ordered_queries;
  for (const auto& [id, qs] : queries_) {
    ordered_queries.emplace(id, &qs);
  }
  for (const auto& [id, qs] : ordered_queries) {
    os << "Q" << id << ": " << qs->taps.size() << " cell stream(s) -> "
       << MergeStageLabel(qs->merge_pipeline)
       << " -> Mon -> Sink, rate=" << qs->stream.rate << " on "
       << qs->stream.region.ToString() << "\n";
  }
  return os.str();
}

}  // namespace fabric
}  // namespace craqr
