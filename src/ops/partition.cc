#include "ops/partition.h"

#include <sstream>
#include <utility>

namespace craqr {
namespace ops {

Result<std::unique_ptr<PartitionOperator>> PartitionOperator::Make(
    std::string name, std::vector<geom::Rect> regions) {
  if (regions.size() < 2) {
    return Status::InvalidArgument(
        "partition requires at least two output regions");
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].IsEmpty()) {
      return Status::InvalidArgument("partition region " + std::to_string(i) +
                                     " must have positive area");
    }
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      if (!regions[i].IsDisjoint(regions[j])) {
        std::ostringstream msg;
        msg << "partition regions must be pairwise disjoint; "
            << regions[i].ToString() << " overlaps " << regions[j].ToString();
        return Status::InvalidArgument(msg.str());
      }
    }
  }
  return std::unique_ptr<PartitionOperator>(
      new PartitionOperator(std::move(name), std::move(regions)));
}

Status PartitionOperator::PushBatch(TupleBatch& batch) {
  const std::size_t active = batch.size();
  CountIn(active);
  if (port_selection_.size() < regions_.size()) {
    port_selection_.resize(regions_.size());
  }
  if (region_masks_.size() < regions_.size()) {
    region_masks_.resize(regions_.size());
  }
  const std::size_t connected = outputs().size();
  // Branch-free containment sweeps over the raw point column — one 0/1
  // byte mask per region (husk rows are masked too; they are never
  // gathered) — then one mask-compact pass per connected port builds the
  // per-port index lists. The ports share the batch's storage through
  // adopted selections: no tuple is moved (or even materialized), and no
  // per-row region-dispatch branch is taken. Regions
  // are pairwise disjoint, so a tuple lands in at most one port list and
  // everything not claimed by a connected port — outside every region, or
  // inside a region whose branch has no consumer — is unrouted.
  const Span<const geom::SpaceTimePoint> points = batch.RawPoints();
  const std::size_t raw_n = batch.raw_size();
  std::size_t routed = 0;
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    if (k >= connected) {
      break;  // trailing regions have no consumer; their tuples stay put
    }
    region_masks_[k].resize(raw_n);
    regions_[k].ContainsMask(points, region_masks_[k].data());
    batch.GatherActiveWhere({region_masks_[k].data(), raw_n},
                            &port_selection_[k]);
    routed += port_selection_[k].size();
  }
  unrouted_ += active - routed;
  // Every routed port is emitted even after a downstream error (first
  // error latched): EmitTo's tuples_out accounting must cover every
  // routed tuple or the kPartition conservation invariant
  // (in == out + unrouted) breaks permanently.
  Status status = Status::OK();
  for (std::size_t k = 0; k < port_selection_.size(); ++k) {
    if (port_selection_[k].empty()) {
      continue;
    }
    batch.AdoptSelection(&port_selection_[k]);
    Status port_status = EmitTo(k, batch);
    if (status.ok() && !port_status.ok()) {
      status = std::move(port_status);
    }
    // Drained unconditionally so no index leaks into the next batch.
    port_selection_[k].clear();
  }
  return status;
}

}  // namespace ops
}  // namespace craqr
