#include "ops/tuple_batch.h"

#include <algorithm>
#include <numeric>

namespace craqr {
namespace ops {

void TupleBatch::AppendActiveFrom(const TupleBatch& other) {
  assert(!has_selection_ &&
         "AppendActiveFrom on a batch with an active selection");
  if (!other.has_selection_) {
    // Plain source: one contiguous range insert per column.
    ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
    attributes_.insert(attributes_.end(), other.attributes_.begin(),
                       other.attributes_.end());
    points_.insert(points_.end(), other.points_.begin(), other.points_.end());
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sensor_ids_.insert(sensor_ids_.end(), other.sensor_ids_.begin(),
                       other.sensor_ids_.end());
    return;
  }
  GatherRows(other, other.selection_.data(), other.selection_.size());
}

void TupleBatch::AppendRows(const TupleBatch& src,
                            Span<const std::uint32_t> raws) {
  assert(!has_selection_ && "AppendRows on a batch with an active selection");
  GatherRows(src, raws.data(), raws.size());
}

void TupleBatch::GatherRows(const TupleBatch& src, const std::uint32_t* raws,
                            std::size_t n) {
  // One resize per column, then five indexed gather loops: no per-row
  // capacity check, and each loop streams one destination column.
  const std::size_t base = ids_.size();
  ids_.resize(base + n);
  attributes_.resize(base + n);
  points_.resize(base + n);
  values_.resize(base + n);
  sensor_ids_.resize(base + n);
  for (std::size_t j = 0; j < n; ++j) {
    ids_[base + j] = src.ids_[raws[j]];
  }
  for (std::size_t j = 0; j < n; ++j) {
    attributes_[base + j] = src.attributes_[raws[j]];
  }
  for (std::size_t j = 0; j < n; ++j) {
    points_[base + j] = src.points_[raws[j]];
  }
  for (std::size_t j = 0; j < n; ++j) {
    values_[base + j] = src.values_[raws[j]];
  }
  for (std::size_t j = 0; j < n; ++j) {
    sensor_ids_[base + j] = src.sensor_ids_[raws[j]];
  }
}

void TupleBatch::Materialize() {
  if (!has_selection_) {
    return;
  }
  std::size_t out = 0;
  for (const std::uint32_t idx : selection_) {
    assert(idx >= out && "selection must be ascending for in-place compaction");
    if (idx != out) {
      ids_[out] = ids_[idx];
      attributes_[out] = attributes_[idx];
      points_[out] = points_[idx];
      values_[out] = values_[idx];
      sensor_ids_[out] = sensor_ids_[idx];
    }
    ++out;
  }
  ids_.resize(out);
  attributes_.resize(out);
  points_.resize(out);
  values_.resize(out);
  sensor_ids_.resize(out);
  selection_.clear();
  has_selection_ = false;
}

void TupleBatch::SortByTimeThenId() {
  const std::size_t n = size();
  if (n <= 1) {
    Materialize();
    return;
  }
  // Sort a permutation of the active raw indices, then gather every column
  // through it. Gather-into-scratch (rather than in-place cycle chasing)
  // also compacts away deselected husks in the same pass. The scratch
  // columns are thread-local and swap storage with the batch, so the
  // steady-state reorder path (one sort per multi-cell query per step)
  // allocates nothing: this call's discarded columns become the next
  // call's gather targets. Batches are single-thread-owned while sorted,
  // so thread-locality is exactly the right scope.
  struct SortScratch {
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> ids;
    std::vector<AttributeId> attributes;
    std::vector<geom::SpaceTimePoint> points;
    std::vector<PayloadRef> values;
    std::vector<std::uint64_t> sensor_ids;
  };
  thread_local SortScratch scratch;
  std::vector<std::uint32_t>& order = scratch.order;
  if (has_selection_) {
    order = selection_;
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0u);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     if (points_[a].t != points_[b].t) {
                       return points_[a].t < points_[b].t;
                     }
                     return ids_[a] < ids_[b];
                   });
  GatherColumn(ids_, order, &scratch.ids);
  GatherColumn(attributes_, order, &scratch.attributes);
  GatherColumn(points_, order, &scratch.points);
  GatherColumn(values_, order, &scratch.values);
  GatherColumn(sensor_ids_, order, &scratch.sensor_ids);
  ids_.swap(scratch.ids);
  attributes_.swap(scratch.attributes);
  points_.swap(scratch.points);
  values_.swap(scratch.values);
  sensor_ids_.swap(scratch.sensor_ids);
  selection_.clear();
  has_selection_ = false;
}

std::vector<Tuple> TupleBatch::ToTuples() const {
  std::vector<Tuple> tuples;
  tuples.reserve(ActiveCount());
  ForEachRaw([this, &tuples](std::uint32_t raw) {
    tuples.push_back(RowAt(raw));
  });
  return tuples;
}

void TupleBatch::CollectIds(std::vector<std::uint64_t>* ids) const {
  ids->clear();
  ids->reserve(ActiveCount());
  ForEachRaw([this, ids](std::uint32_t raw) { ids->push_back(ids_[raw]); });
}

void TupleBatch::CollectAttributes(std::vector<AttributeId>* attributes) const {
  attributes->clear();
  attributes->reserve(ActiveCount());
  ForEachRaw([this, attributes](std::uint32_t raw) {
    attributes->push_back(attributes_[raw]);
  });
}

void TupleBatch::CollectPoints(
    std::vector<geom::SpaceTimePoint>* points) const {
  points->clear();
  points->reserve(ActiveCount());
  ForEachRaw([this, points](std::uint32_t raw) {
    points->push_back(points_[raw]);
  });
}

void TupleBatch::CollectSensorIds(std::vector<std::uint64_t>* sensor_ids) const {
  sensor_ids->clear();
  sensor_ids->reserve(ActiveCount());
  ForEachRaw([this, sensor_ids](std::uint32_t raw) {
    sensor_ids->push_back(sensor_ids_[raw]);
  });
}

}  // namespace ops
}  // namespace craqr
