#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/state_io.h"
#include "fabric/fabricator.h"
#include "ops/state_serde.h"

/// \file checkpoint.cc
/// \brief StreamFabricator::SaveState / RestoreState — the fabric half of
/// the runtime's epoch-barrier checkpoint (runtime/sharded_fabricator.cc).
///
/// The serializer walks queries and cells in a deterministic order
/// (queries ascending by local id; cells ascending by flat index; chains
/// ascending by attribute; thins, carve-outs and taps in chain position
/// order, i.e. F first, then the T's in descending output rate), so equal
/// fabricator states produce equal blobs. The deserializer re-creates
/// each operator through its validating factory with a placeholder RNG,
/// then overwrites the full mutable state (RNG phase, buffers, counters)
/// from the blob.

namespace craqr {
namespace fabric {

namespace {

/// Bumped whenever the blob layout changes; a mismatch means the snapshot
/// was written by a different build of the serializer. Version 2: string
/// payloads by value (re-interned on restore) instead of ValueId handles.
constexpr std::uint32_t kFabricStateVersion = 2;

}  // namespace

Status StreamFabricator::SaveState(std::string* out) const {
  if (out == nullptr) {
    return Status::InvalidArgument("SaveState needs an output string");
  }
  StateWriter w;
  w.set_value_pool(config_.value_pool);
  w.WriteU32(kFabricStateVersion);

  // Query records, ascending by local id.
  std::vector<query::QueryId> qids;
  qids.reserve(queries_.size());
  for (const auto& [qid, qs] : queries_) {
    (void)qs;
    qids.push_back(qid);
  }
  std::sort(qids.begin(), qids.end());
  w.WriteU64(qids.size());
  for (const query::QueryId qid : qids) {
    const QueryState& qs = queries_.at(qid);
    if (qs.stream.monitor != nullptr || qs.merge_head != qs.stream.sink) {
      return Status::Unimplemented(
          "checkpoint supports partial-delivery fabricators only (query " +
          std::to_string(qid) + " owns a full merge stage)");
    }
    w.WriteU64(qid);
    w.WriteU32(qs.stream.attribute);
    ops::WriteRect(w, qs.stream.region);
    w.WriteDouble(qs.stream.rate);
    ops::WriteOperatorCounters(w, *qs.stream.sink);
  }

  w.WriteU64(tuples_routed_);
  w.WriteU64(tuples_unrouted_);

  // Cell topologies, ascending by flat index; chains ascending by
  // attribute, independent of hashmap iteration order.
  std::vector<std::pair<std::uint32_t, geom::CellIndex>> cell_order;
  cell_order.reserve(cells_.size());
  for (const auto& [index, cell] : cells_) {
    (void)cell;
    cell_order.push_back({grid_.FlatIndex(index), index});
  }
  std::sort(cell_order.begin(), cell_order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.WriteU64(cell_order.size());
  for (const auto& [flat, index] : cell_order) {
    (void)flat;
    const Cell& cell = *cells_.at(index);
    w.WriteU32(index.q);
    w.WriteU32(index.r);
    std::vector<ops::AttributeId> attrs;
    attrs.reserve(cell.chains.size());
    for (const auto& [attribute, chain] : cell.chains) {
      (void)chain;
      attrs.push_back(attribute);
    }
    std::sort(attrs.begin(), attrs.end());
    w.WriteU64(attrs.size());
    for (const ops::AttributeId attribute : attrs) {
      const Chain& chain = cell.chains.at(attribute);
      if (!chain.inbox.empty()) {
        return Status::FailedPrecondition(
            "checkpoint requires a batch boundary: chain inbox of cell " +
            index.ToString() + " is not drained");
      }
      w.WriteU32(attribute);
      w.WriteDouble(chain.f_target);
      w.WriteU64(chain.op_seq);
      w.WriteString(chain.flatten->name());
      chain.flatten->SaveState(w);
      w.WriteU64(chain.thins.size());
      for (const ThinNode& node : chain.thins) {
        w.WriteString(node.op->name());
        w.WriteDouble(node.op->input_rate());
        w.WriteDouble(node.out_rate);
        node.op->SaveState(w);
        // Shared carve-outs below this T.
        w.WriteU64(node.partitions.size());
        for (const SharedPartition& entry : node.partitions) {
          w.WriteU64(entry.signature);
          ops::WriteRect(w, entry.region);
          w.WriteString(entry.op->name());
          entry.op->SaveState(w);
          w.WriteString(entry.splitter->name());
          ops::WriteOperatorCounters(w, *entry.splitter);
          w.WriteU64(entry.sharers.size());
          for (const query::QueryId sharer : entry.sharers) {
            w.WriteU64(sharer);
          }
        }
        // Tap records, in tap_queries (insertion) order. The unshared
        // carve-out P lives on no chain list, so it is serialized inline
        // with its tap.
        w.WriteU64(node.tap_queries.size());
        for (const query::QueryId qid : node.tap_queries) {
          const auto query_it = queries_.find(qid);
          if (query_it == queries_.end()) {
            return Status::Internal("cell " + index.ToString() +
                                    " taps dead query " + std::to_string(qid));
          }
          const Tap* tap = nullptr;
          for (const Tap& candidate : query_it->second.taps) {
            if (candidate.cell == index) {
              tap = &candidate;
              break;
            }
          }
          if (tap == nullptr) {
            return Status::Internal("query " + std::to_string(qid) +
                                    " has no tap record for cell " +
                                    index.ToString());
          }
          w.WriteU64(qid);
          w.WriteBool(tap->covers_cell);
          ops::WriteRect(w, tap->overlap);
          w.WriteBool(tap->shared);
          if (!tap->covers_cell && !tap->shared) {
            w.WriteString(tap->partition->name());
            tap->partition->SaveState(w);
          }
        }
      }
    }
  }

  *out = w.TakeBytes();
  return Status::OK();
}

Status StreamFabricator::RestoreState(
    const std::string& bytes, const DeliveryFactory& make_delivery,
    std::unordered_map<query::QueryId, query::QueryId>* id_map_out) {
  if (!queries_.empty() || !cells_.empty()) {
    return Status::FailedPrecondition(
        "RestoreState requires a fresh fabricator (no live queries or "
        "cells)");
  }
  if (!make_delivery) {
    return Status::InvalidArgument("RestoreState needs a delivery factory");
  }
  StateReader r(bytes);
  r.set_value_pool(config_.value_pool);
  std::uint32_t version = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU32(&version));
  if (version != kFabricStateVersion) {
    return Status::InvalidArgument(
        "fabric snapshot version mismatch: have " + std::to_string(version) +
        ", expected " + std::to_string(kFabricStateVersion));
  }

  // Re-insert every query as a delivery shell; taps arrive with the cells.
  std::unordered_map<query::QueryId, query::QueryId> id_map;
  std::uint64_t num_queries = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&num_queries));
  for (std::uint64_t i = 0; i < num_queries; ++i) {
    std::uint64_t old_id = 0;
    std::uint32_t attribute = 0;
    geom::Rect region;
    double rate = 0.0;
    CRAQR_RETURN_NOT_OK(r.ReadU64(&old_id));
    CRAQR_RETURN_NOT_OK(r.ReadU32(&attribute));
    CRAQR_RETURN_NOT_OK(ops::ReadRect(r, &region));
    CRAQR_RETURN_NOT_OK(r.ReadDouble(&rate));
    ops::OperatorStats sink_stats;
    CRAQR_RETURN_NOT_OK(r.ReadU64(&sink_stats.tuples_in));
    CRAQR_RETURN_NOT_OK(r.ReadU64(&sink_stats.tuples_out));
    ops::SinkOperator::BatchCallback on_deliver = make_delivery(old_id);
    if (!on_deliver) {
      return Status::InvalidArgument(
          "delivery factory returned no callback for snapshot query " +
          std::to_string(old_id));
    }
    CRAQR_ASSIGN_OR_RETURN(
        QueryStream handle,
        InsertQueryShell(attribute, region, rate, std::move(on_deliver)));
    handle.sink->RestoreStats(sink_stats);
    id_map.emplace(old_id, handle.id);
  }

  CRAQR_RETURN_NOT_OK(r.ReadU64(&tuples_routed_));
  CRAQR_RETURN_NOT_OK(r.ReadU64(&tuples_unrouted_));

  const auto map_id = [&id_map](query::QueryId old_id,
                                query::QueryId* new_id) {
    const auto mapped = id_map.find(old_id);
    if (mapped == id_map.end()) {
      return Status::OutOfRange("snapshot references unknown query " +
                                std::to_string(old_id));
    }
    *new_id = mapped->second;
    return Status::OK();
  };

  std::uint64_t num_cells = 0;
  CRAQR_RETURN_NOT_OK(r.ReadU64(&num_cells));
  for (std::uint64_t c = 0; c < num_cells; ++c) {
    geom::CellIndex index;
    CRAQR_RETURN_NOT_OK(r.ReadU32(&index.q));
    CRAQR_RETURN_NOT_OK(r.ReadU32(&index.r));
    if (index.q >= grid_.CellsPerSide() || index.r >= grid_.CellsPerSide()) {
      return Status::OutOfRange("snapshot cell " + index.ToString() +
                                " is outside the grid");
    }
    Cell* cell = GetOrCreateCell(index);
    const geom::Rect cell_rect = grid_.CellRect(index);
    std::uint64_t num_chains = 0;
    CRAQR_RETURN_NOT_OK(r.ReadU64(&num_chains));
    for (std::uint64_t ci = 0; ci < num_chains; ++ci) {
      std::uint32_t attribute = 0;
      CRAQR_RETURN_NOT_OK(r.ReadU32(&attribute));
      Chain chain;
      CRAQR_RETURN_NOT_OK(r.ReadDouble(&chain.f_target));
      CRAQR_RETURN_NOT_OK(r.ReadU64(&chain.op_seq));
      chain.flat_cell = grid_.FlatIndex(index);
      std::string flatten_name;
      CRAQR_RETURN_NOT_OK(r.ReadString(&flatten_name));
      // Reconstruct the F exactly as GetOrCreateChain would, then
      // overwrite its mutable state. The placeholder seed is irrelevant —
      // the restored RNG phase replaces it.
      ops::FlattenConfig fc;
      fc.region = cell_rect;
      fc.target_rate = chain.f_target;
      fc.target_mode = ops::FlattenTargetMode::kRatePerVolume;
      fc.mode = config_.flatten_mode;
      fc.batch_size = config_.flatten_batch_size;
      fc.min_rate = config_.flatten_min_rate;
      fc.min_batch_for_estimation = config_.flatten_min_batch_for_estimation;
      CRAQR_ASSIGN_OR_RETURN(
          auto flatten_owned,
          ops::FlattenOperator::Make(flatten_name, fc, Rng(0)));
      chain.flatten = cell->pipeline.Add(std::move(flatten_owned));
      CRAQR_RETURN_NOT_OK(chain.flatten->RestoreState(r));

      std::uint64_t num_thins = 0;
      CRAQR_RETURN_NOT_OK(r.ReadU64(&num_thins));
      for (std::uint64_t ti = 0; ti < num_thins; ++ti) {
        std::string thin_name;
        double input_rate = 0.0;
        double out_rate = 0.0;
        CRAQR_RETURN_NOT_OK(r.ReadString(&thin_name));
        CRAQR_RETURN_NOT_OK(r.ReadDouble(&input_rate));
        CRAQR_RETURN_NOT_OK(r.ReadDouble(&out_rate));
        CRAQR_ASSIGN_OR_RETURN(
            auto thin_owned,
            ops::ThinOperator::Make(thin_name, input_rate, out_rate, Rng(0)));
        ops::ThinOperator* thin = cell->pipeline.Add(std::move(thin_owned));
        CRAQR_RETURN_NOT_OK(thin->RestoreState(r));
        ops::Operator* prev =
            chain.thins.empty()
                ? static_cast<ops::Operator*>(chain.flatten)
                : static_cast<ops::Operator*>(chain.thins.back().op);
        prev->AddOutput(thin);
        ThinNode node;
        node.op = thin;
        node.out_rate = out_rate;

        std::uint64_t num_partitions = 0;
        CRAQR_RETURN_NOT_OK(r.ReadU64(&num_partitions));
        for (std::uint64_t pi = 0; pi < num_partitions; ++pi) {
          SharedPartition entry;
          CRAQR_RETURN_NOT_OK(r.ReadU64(&entry.signature));
          CRAQR_RETURN_NOT_OK(ops::ReadRect(r, &entry.region));
          std::string p_name;
          CRAQR_RETURN_NOT_OK(r.ReadString(&p_name));
          std::vector<geom::Rect> regions;
          regions.push_back(entry.region);
          for (const auto& piece :
               geom::Rect::Subtract(cell_rect, entry.region)) {
            regions.push_back(piece);
          }
          CRAQR_ASSIGN_OR_RETURN(
              auto partition_owned,
              ops::PartitionOperator::Make(p_name, std::move(regions)));
          entry.op = cell->pipeline.Add(std::move(partition_owned));
          CRAQR_RETURN_NOT_OK(entry.op->RestoreState(r));
          std::string splitter_name;
          CRAQR_RETURN_NOT_OK(r.ReadString(&splitter_name));
          CRAQR_ASSIGN_OR_RETURN(
              auto splitter_owned,
              ops::PassThroughOperator::Make(splitter_name));
          entry.splitter = cell->pipeline.Add(std::move(splitter_owned));
          CRAQR_RETURN_NOT_OK(ops::ReadOperatorCounters(r, entry.splitter));
          thin->AddOutput(entry.op);
          entry.op->AddOutput(entry.splitter);  // port 0: the overlap
          std::uint64_t num_sharers = 0;
          CRAQR_RETURN_NOT_OK(r.ReadU64(&num_sharers));
          for (std::uint64_t si = 0; si < num_sharers; ++si) {
            std::uint64_t old_sharer = 0;
            CRAQR_RETURN_NOT_OK(r.ReadU64(&old_sharer));
            query::QueryId sharer = 0;
            CRAQR_RETURN_NOT_OK(map_id(old_sharer, &sharer));
            entry.sharers.push_back(sharer);
          }
          node.partitions.push_back(std::move(entry));
        }

        std::uint64_t num_taps = 0;
        CRAQR_RETURN_NOT_OK(r.ReadU64(&num_taps));
        for (std::uint64_t tpi = 0; tpi < num_taps; ++tpi) {
          std::uint64_t old_qid = 0;
          CRAQR_RETURN_NOT_OK(r.ReadU64(&old_qid));
          query::QueryId qid = 0;
          CRAQR_RETURN_NOT_OK(map_id(old_qid, &qid));
          QueryState& tqs = queries_.at(qid);
          Tap tap;
          tap.cell = index;
          CRAQR_RETURN_NOT_OK(r.ReadBool(&tap.covers_cell));
          CRAQR_RETURN_NOT_OK(ops::ReadRect(r, &tap.overlap));
          CRAQR_RETURN_NOT_OK(r.ReadBool(&tap.shared));
          if (tap.covers_cell) {
            thin->AddOutput(tqs.merge_head);
          } else if (tap.shared) {
            SharedPartition* entry = nullptr;
            for (SharedPartition& candidate : node.partitions) {
              if (candidate.region == tap.overlap) {
                entry = &candidate;
                break;
              }
            }
            if (entry == nullptr) {
              return Status::OutOfRange(
                  "snapshot shared tap of query " + std::to_string(old_qid) +
                  " has no matching carve-out record");
            }
            entry->splitter->AddOutput(tqs.merge_head);
            tap.partition = entry->op;
          } else {
            std::string p_name;
            CRAQR_RETURN_NOT_OK(r.ReadString(&p_name));
            std::vector<geom::Rect> regions;
            regions.push_back(tap.overlap);
            for (const auto& piece :
                 geom::Rect::Subtract(cell_rect, tap.overlap)) {
              regions.push_back(piece);
            }
            CRAQR_ASSIGN_OR_RETURN(
                auto partition_owned,
                ops::PartitionOperator::Make(p_name, std::move(regions)));
            ops::PartitionOperator* partition =
                cell->pipeline.Add(std::move(partition_owned));
            CRAQR_RETURN_NOT_OK(partition->RestoreState(r));
            thin->AddOutput(partition);
            partition->AddOutput(tqs.merge_head);  // port 0: the overlap
            tap.partition = partition;
          }
          node.tap_queries.push_back(qid);
          tqs.taps.push_back(tap);
        }
        chain.thins.push_back(std::move(node));
      }
      auto emplaced = cell->chains.emplace(attribute, std::move(chain));
      if (!emplaced.second) {
        return Status::OutOfRange("snapshot repeats chain attribute " +
                                  std::to_string(attribute) + " in cell " +
                                  index.ToString());
      }
      BindChainReportCallback(&emplaced.first->second, attribute, index);
    }
  }
  if (r.remaining() != 0) {
    return Status::OutOfRange("fabric snapshot has " +
                              std::to_string(r.remaining()) +
                              " trailing bytes");
  }
  // Restored chains enter the route LUT through the next full rebuild.
  route_dirty_ = true;
  if (id_map_out != nullptr) {
    *id_map_out = std::move(id_map);
  }
  return Status::OK();
}

}  // namespace fabric
}  // namespace craqr
