#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "common/span.h"
#include "geometry/point.h"
#include "ops/tuple.h"

/// \file tuple_batch.h
/// \brief The unit of batch-at-a-time PMAT execution, stored columnar.
///
/// A TupleBatch is a reusable, move-friendly container of tuples flowing
/// through `Operator::PushBatch`. Storage is struct-of-arrays: five
/// parallel columns (ids, attributes, points, values, sensor_ids) instead
/// of an array of ~90-byte structs, so
///
///  - **column views are zero-copy**: `Ids()` / `Attributes()` /
///    `Points()` / `Values()` / `SensorIds()` return `Span`s straight over
///    the columns of a plain (selection-free) batch — e.g. Flatten's MLE
///    fit reads the point column in place; the gathering `Collect*`
///    variants remain for selected batches;
///  - **moves shrink**: `Materialize` / `Emit` / outbox appends copy
///    24–32 bytes per tuple column-wise (string payloads are 12-byte
///    `PayloadRef` handles into the ValuePool, never `std::string`s);
///  - **recycling**: `Clear()` keeps every column's capacity and `Swap()`
///    exchanges storage in O(1), so operators keep scratch batches as
///    members and never reallocate on the steady-state hot path;
///  - **selection vector**: dropping operators (T, Sel, online F) retire
///    tuples by *deselecting* them — one 32-bit index write. A whole
///    selected batch flows down a single-output edge untouched; only
///    operators that must materialise (Sink storage, broadcast copies)
///    compact;
///  - **selection routing**: the fabricator's map phase never copies a
///    routed row. It groups the step batch's row indices by (cell,
///    attribute) chain and hands each chain's F operator the step batch
///    itself with that group adopted as its selection (`AdoptSelection`);
///    F's accumulator then gathers the group once (`AppendActiveFrom`),
///    which is the only copy a routed tuple pays before F emits;
///  - **move discipline**: copying is deleted; the only copy paths are the
///    explicit `CopyFrom` / `AppendActiveFrom` / `AppendRows` used by
///    operator accumulators, multi-output broadcasts, the shard router and
///    the batched shard outbox.
///
/// Active-tuple order inside a batch is arrival order and is semantically
/// significant: operators draw their randomness per tuple in this order,
/// which is what keeps batch-driven topologies delivering exactly the
/// streams the per-tuple path delivers.
///
/// `ops::Tuple` remains the materialized exchange struct for row-at-a-time
/// boundaries (the per-tuple reference path, sinks, trace I/O): `RowAt`
/// gathers one row, `Append`/`StoreRowAt` scatter one back.

namespace craqr {
namespace ops {

/// \brief A reusable columnar batch of crowdsensed tuples (see file
/// comment).
class TupleBatch {
 public:
  TupleBatch() = default;

  /// Scatters an existing tuple vector into fresh columns (one pass;
  /// convenience for producers, tests and benches).
  explicit TupleBatch(const std::vector<Tuple>& tuples) { Assign(tuples); }

  TupleBatch(TupleBatch&&) = default;
  TupleBatch& operator=(TupleBatch&&) = default;

  /// Copying is explicit (CopyFrom): an accidental batch copy is the
  /// per-tuple cost this type exists to remove.
  TupleBatch(const TupleBatch&) = delete;
  TupleBatch& operator=(const TupleBatch&) = delete;

  /// Number of *active* tuples.
  std::size_t size() const {
    return has_selection_ ? selection_.size() : ids_.size();
  }

  /// Named alias of size(): the count the gathering sweeps (Collect*,
  /// ToTuples) reserve for before their per-row appends.
  std::size_t ActiveCount() const { return size(); }

  /// True when no tuple is active.
  bool empty() const { return size() == 0; }

  /// Underlying storage rows (includes deselected husks).
  std::size_t raw_size() const { return ids_.size(); }

  /// Storage capacity in rows (recycling diagnostics).
  std::size_t Capacity() const { return ids_.capacity(); }

  /// Pre-allocates room for `n` tuples in every column.
  void Reserve(std::size_t n) {
    ids_.reserve(n);
    attributes_.reserve(n);
    points_.reserve(n);
    values_.reserve(n);
    sensor_ids_.reserve(n);
  }

  /// Drops all tuples and the selection but keeps every column's capacity
  /// (scratch recycling).
  void Clear() {
    ids_.clear();
    attributes_.clear();
    points_.clear();
    values_.clear();
    sensor_ids_.clear();
    selection_.clear();
    has_selection_ = false;
  }

  /// O(1) storage exchange.
  void Swap(TupleBatch& other) {
    ids_.swap(other.ids_);
    attributes_.swap(other.attributes_);
    points_.swap(other.points_);
    values_.swap(other.values_);
    sensor_ids_.swap(other.sensor_ids_);
    selection_.swap(other.selection_);
    std::swap(has_selection_, other.has_selection_);
  }

  /// Replaces the contents with a scatter of `tuples` (capacity recycled).
  void Assign(const std::vector<Tuple>& tuples) {
    Clear();
    Reserve(tuples.size());
    for (const Tuple& tuple : tuples) {
      Append(tuple);
    }
  }

  /// Appends one tuple, scattered across the columns. Only valid while no
  /// selection is active — producers fill plain batches; selections appear
  /// as the batch flows through dropping operators.
  void Append(const Tuple& tuple) {
    assert(!has_selection_ && "Append on a batch with an active selection");
    ids_.push_back(tuple.id);
    attributes_.push_back(tuple.attribute);
    points_.push_back(tuple.point);
    values_.push_back(tuple.value);
    sensor_ids_.push_back(tuple.sensor_id);
  }

  /// Column-native append (producers that never build a Tuple struct).
  void Append(std::uint64_t id, AttributeId attribute,
              const geom::SpaceTimePoint& point, PayloadRef value,
              std::uint64_t sensor_id) {
    assert(!has_selection_ && "Append on a batch with an active selection");
    ids_.push_back(id);
    attributes_.push_back(attribute);
    points_.push_back(point);
    values_.push_back(value);
    sensor_ids_.push_back(sensor_id);
  }

  /// Appends raw row `raw` of `src` (column-wise, 56 flat bytes) — the
  /// row-at-a-time copy (Flatten's firing-boundary appends, discard side
  /// batches, the shard router's per-row fallback).
  void AppendRow(const TupleBatch& src, std::uint32_t raw) {
    assert(!has_selection_ && "AppendRow on a batch with an active selection");
    ids_.push_back(src.ids_[raw]);
    attributes_.push_back(src.attributes_[raw]);
    points_.push_back(src.points_[raw]);
    values_.push_back(src.values_[raw]);
    sensor_ids_.push_back(src.sensor_ids_[raw]);
  }

  /// Appends every *active* tuple of `other`: one contiguous range insert
  /// per column when `other` is plain, otherwise the column-by-column
  /// gather of AppendRows through `other`'s selection. The
  /// batched-outbox and accumulator primitive (Flatten and Ord buffers
  /// read a routed selection over the step batch through it).
  void AppendActiveFrom(const TupleBatch& other);

  /// \brief Appends the raw rows `raws` of `src`, column by column — the
  /// grouped-copy half of the shard router: after the
  /// count -> prefix-sum -> scatter pass groups a batch's rows by
  /// destination shard, each sub-batch receives its whole group with one
  /// resize and five tight gather loops instead of `raws.size()`
  /// interleaved `AppendRow` calls.
  void AppendRows(const TupleBatch& src, Span<const std::uint32_t> raws);

  /// Replaces this batch's contents with a copy of `other`'s *active*
  /// tuples, reusing the existing capacity. The one sanctioned whole-batch
  /// copy path (multi-output broadcast in Operator::Emit).
  void CopyFrom(const TupleBatch& other) {
    Clear();
    AppendActiveFrom(other);
  }

  /// \name Raw row access
  /// `raw` indexes the underlying columns (valid with or without a
  /// selection; ForEachRaw / Retain hand out raw indices).
  ///@{
  std::uint64_t id_at(std::uint32_t raw) const { return ids_[raw]; }
  AttributeId attribute_at(std::uint32_t raw) const {
    return attributes_[raw];
  }
  const geom::SpaceTimePoint& point_at(std::uint32_t raw) const {
    return points_[raw];
  }
  const PayloadRef& value_at(std::uint32_t raw) const { return values_[raw]; }
  std::uint64_t sensor_id_at(std::uint32_t raw) const {
    return sensor_ids_[raw];
  }

  /// Gathers raw row `raw` into a materialized exchange struct.
  Tuple RowAt(std::uint32_t raw) const {
    Tuple t;
    t.id = ids_[raw];
    t.attribute = attributes_[raw];
    t.point = points_[raw];
    t.value = values_[raw];
    t.sensor_id = sensor_ids_[raw];
    return t;
  }

  /// Scatters `tuple` back into raw row `raw` (Map's in-place transform).
  void StoreRowAt(std::uint32_t raw, const Tuple& tuple) {
    ids_[raw] = tuple.id;
    attributes_[raw] = tuple.attribute;
    points_[raw] = tuple.point;
    values_[raw] = tuple.value;
    sensor_ids_[raw] = tuple.sensor_id;
  }
  ///@}

  /// Invokes `fn(raw_index)` on every active tuple in arrival order — the
  /// preferred hot sweep: consumers read only the columns they need.
  template <typename Fn>
  void ForEachRaw(Fn&& fn) const {
    if (!has_selection_) {
      const auto n = static_cast<std::uint32_t>(ids_.size());
      for (std::uint32_t i = 0; i < n; ++i) {
        fn(i);
      }
    } else {
      for (const std::uint32_t idx : selection_) {
        fn(idx);
      }
    }
  }

  /// Invokes `fn(const Tuple&)` on every active tuple in arrival order,
  /// materializing each row (56 flat bytes). Row-at-a-time boundaries
  /// (base-class Push fallback, sink storage, user predicates) only.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachRaw([this, &fn](std::uint32_t raw) {
      const Tuple tuple = RowAt(raw);
      fn(tuple);
    });
  }

  /// \brief Replaces the selection by swapping in `indices` (ascending
  /// raw-storage indices; the previous selection lands in `indices`).
  /// This is how one batch's storage is shared across several consumers:
  /// Partition adopts each output port's index list in turn, and the
  /// fabricator adopts each routed chain's row group before pushing the
  /// step batch into that chain's F — no tuple is moved.
  void AdoptSelection(std::vector<std::uint32_t>* indices) {
    selection_.swap(*indices);
    has_selection_ = true;
  }

  /// \brief The vectorized drop primitive: keeps the active tuples for
  /// which `fn(raw_index)` returns true, in order, by rewriting the
  /// selection — no tuple is moved. `fn` is invoked exactly once per
  /// active tuple in arrival order (operators draw randomness inside it).
  /// When `dropped` is non-null, dropped tuples are column-copied into it
  /// (the Flatten discard side output); their storage slots stay behind
  /// as inactive husks until Clear().
  template <typename Fn>
  void RetainRaw(Fn&& fn, TupleBatch* dropped = nullptr) {
    if (!has_selection_) {
      // Indexed writes into a pre-sized selection (recycled capacity)
      // instead of per-element push_back: this loop is the innermost cost
      // of every Thin/Filter sweep.
      const auto n = static_cast<std::uint32_t>(ids_.size());
      selection_.resize(n);
      std::size_t out = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (fn(i)) {
          selection_[out++] = i;
        } else if (dropped != nullptr) {
          dropped->AppendRow(*this, i);
        }
      }
      selection_.resize(out);
      has_selection_ = true;
    } else {
      std::size_t out = 0;
      for (const std::uint32_t idx : selection_) {
        if (fn(idx)) {
          selection_[out++] = idx;
        } else if (dropped != nullptr) {
          dropped->AppendRow(*this, idx);
        }
      }
      selection_.resize(out);
    }
  }

  /// \brief Mask-aware Retain: keeps the j-th active tuple iff
  /// `mask[j] != 0`, rewriting the selection with a branch-free compact
  /// pass. `mask` is indexed by *active position* in arrival order —
  /// exactly the order batch RNG sweeps (`Rng::FillBernoulliMask`) fill
  /// it in — and must hold `size()` bytes. Equivalent to
  /// `RetainRaw([&](raw) { return mask[j++]; }, dropped)` but with no
  /// per-row branch on the keep decision. When `dropped` is non-null the
  /// dropped rows are column-copied into it (in order), which requires
  /// the branchy fallback sweep.
  void RetainFromMask(Span<const std::uint8_t> mask,
                      TupleBatch* dropped = nullptr) {
    assert(mask.size() == size());
    if (dropped != nullptr) {
      std::size_t j = 0;
      RetainRaw([&mask, &j](std::uint32_t) { return mask[j++] != 0; },
                dropped);
      return;
    }
    if (!has_selection_) {
      selection_.resize(ids_.size());
      selection_.resize(simd::MaskCompact(mask, selection_.data()));
      has_selection_ = true;
    } else {
      // In-place gather: writes land at or before the read cursor.
      selection_.resize(
          simd::MaskCompactGather(mask, selection_.data(), selection_.data()));
    }
  }

  /// \brief Mask-aware selection from the *raw* rows: keeps the active
  /// tuples whose raw storage index `raw` has `raw_mask[raw] != 0`
  /// (branch-free compact). `raw_mask` is indexed by raw storage row —
  /// the layout containment sweeps (`Rect::ContainsMask` over
  /// `RawPoints()`) produce, husk rows included — and must hold
  /// `raw_size()` bytes. Already-deselected rows stay deselected.
  void SelectFromMask(Span<const std::uint8_t> raw_mask) {
    assert(raw_mask.size() == raw_size());
    if (!has_selection_) {
      selection_.resize(ids_.size());
      selection_.resize(simd::MaskCompact(raw_mask, selection_.data()));
      has_selection_ = true;
    } else {
      std::size_t out = 0;
      for (const std::uint32_t idx : selection_) {
        selection_[out] = idx;
        out += (raw_mask[idx] != 0);
      }
      selection_.resize(out);
    }
  }

  /// \brief Appends the active raw indices whose `raw_mask` byte is set
  /// to `out` (cleared first; capacity recycled), preserving arrival
  /// order — Partition's per-port list builder: one branch-free compact
  /// per output port, all ports sharing this batch's storage through
  /// AdoptSelection afterwards. `raw_mask` is raw-indexed as in
  /// SelectFromMask.
  void GatherActiveWhere(Span<const std::uint8_t> raw_mask,
                         std::vector<std::uint32_t>* out) const {
    assert(raw_mask.size() == raw_size());
    // Compact into a never-shrinking thread-local scratch, then copy the
    // survivors out: `out->resize(size())` would value-initialize (i.e.
    // memset) the whole vector on every batch, which costs more than the
    // compact itself. Batches are single-thread-owned, so thread_local is
    // exactly the right scratch scope (as in SortByTimeThenId).
    thread_local std::vector<std::uint32_t> scratch;
    if (scratch.size() < size()) {
      scratch.resize(size());
    }
    std::size_t count = 0;
    if (!has_selection_) {
      count = simd::MaskCompact(raw_mask, scratch.data());
    } else {
      std::uint32_t* dst = scratch.data();
      for (const std::uint32_t idx : selection_) {
        dst[count] = idx;
        count += (raw_mask[idx] != 0);
      }
    }
    out->assign(scratch.data(), scratch.data() + count);
  }

  /// Row-materializing Retain for user predicates over whole tuples.
  template <typename Fn>
  void Retain(Fn&& fn, TupleBatch* dropped = nullptr) {
    RetainRaw(
        [this, &fn](std::uint32_t raw) {
          const Tuple tuple = RowAt(raw);
          return fn(tuple);
        },
        dropped);
  }

  /// Physically compacts every column down to the active tuples and drops
  /// the selection. No-op on a plain batch.
  void Materialize();

  /// \brief Physically sorts the active tuples by (point.t, id) — the
  /// canonical delivery order of merge stages — compacting away husks and
  /// dropping the selection. Stable, though (t, id) is already unique for
  /// real streams.
  void SortByTimeThenId();

  /// True when a selection is active (size() < raw storage size is then
  /// possible).
  bool has_selection() const { return has_selection_; }

  /// Gathers the active tuples into materialized exchange structs
  /// (tests, trace I/O; not a hot path).
  std::vector<Tuple> ToTuples() const;

  /// Approximate heap footprint of the columns + selection (capacity, not
  /// size) — memory-governor accounting input.
  std::size_t ApproxBytes() const {
    return ids_.capacity() * sizeof(std::uint64_t) +
           attributes_.capacity() * sizeof(AttributeId) +
           points_.capacity() * sizeof(geom::SpaceTimePoint) +
           values_.capacity() * sizeof(PayloadRef) +
           sensor_ids_.capacity() * sizeof(std::uint64_t) +
           selection_.capacity() * sizeof(std::uint32_t);
  }

  /// Releases recycled slack: shrinks every column's capacity to its live
  /// size (memory-governor trim; undoes Clear()'s capacity retention).
  void ShrinkToFit() {
    ids_.shrink_to_fit();
    attributes_.shrink_to_fit();
    points_.shrink_to_fit();
    values_.shrink_to_fit();
    sensor_ids_.shrink_to_fit();
    selection_.shrink_to_fit();
  }

  /// Re-interns every *active* string payload into `pool`'s current tier
  /// (generation-retirement evacuation). Deselected husk rows are left
  /// untouched on purpose: re-interning dropped one-shot strings would
  /// resurrect them in the new generation and defeat reclamation.
  void ReinternStrings(ValuePool& pool) {
    ForEachRaw([this, &pool](std::uint32_t raw) {
      PayloadRef& v = values_[raw];
      if (v.kind() == PayloadKind::kString) {
        v = PayloadRef::InternedString(pool.ReinternHandle(
            pool.Get(v.string_id(), v.string_generation())));
      }
    });
  }

  /// \name Zero-copy column views
  /// Spans straight over the columns; valid only while the batch is plain
  /// (no selection — asserted) and until the next mutation.
  ///@{
  Span<const std::uint64_t> Ids() const {
    assert(!has_selection_ && "column span on a selected batch");
    return {ids_.data(), ids_.size()};
  }
  Span<const AttributeId> Attributes() const {
    assert(!has_selection_ && "column span on a selected batch");
    return {attributes_.data(), attributes_.size()};
  }
  Span<const geom::SpaceTimePoint> Points() const {
    assert(!has_selection_ && "column span on a selected batch");
    return {points_.data(), points_.size()};
  }
  Span<const PayloadRef> Values() const {
    assert(!has_selection_ && "column span on a selected batch");
    return {values_.data(), values_.size()};
  }
  Span<const std::uint64_t> SensorIds() const {
    assert(!has_selection_ && "column span on a selected batch");
    return {sensor_ids_.data(), sensor_ids_.size()};
  }
  ///@}

  /// \brief The point column over *all* raw storage rows, deselected
  /// husks included — the input of the branch-free containment sweeps,
  /// which compute masks for every raw row (husk results are simply
  /// never read) rather than gather the active subset first. Valid until
  /// the next mutation.
  Span<const geom::SpaceTimePoint> RawPoints() const {
    return {points_.data(), points_.size()};
  }

  /// \name Gathering column views
  /// Copy one column of the *active* tuples into a caller-owned scratch
  /// column (cleared first, capacity recycled). Work with any selection;
  /// prefer the zero-copy spans on plain batches.
  ///@{
  void CollectIds(std::vector<std::uint64_t>* ids) const;
  void CollectAttributes(std::vector<AttributeId>* attributes) const;
  void CollectPoints(std::vector<geom::SpaceTimePoint>* points) const;
  void CollectSensorIds(std::vector<std::uint64_t>* sensor_ids) const;
  ///@}

 private:
  /// Appends raw rows `raws[0..n)` of `src`: resizes every column once,
  /// then gathers column by column (AppendRows / AppendActiveFrom).
  void GatherRows(const TupleBatch& src, const std::uint32_t* raws,
                  std::size_t n);

  template <typename T>
  static void GatherColumn(const std::vector<T>& src,
                           const std::vector<std::uint32_t>& order,
                           std::vector<T>* dst) {
    dst->clear();
    dst->reserve(order.size());
    for (const std::uint32_t idx : order) {
      dst->push_back(src[idx]);
    }
  }

  /// Struct-of-arrays columns; parallel by construction.
  std::vector<std::uint64_t> ids_;
  std::vector<AttributeId> attributes_;
  std::vector<geom::SpaceTimePoint> points_;
  std::vector<PayloadRef> values_;
  std::vector<std::uint64_t> sensor_ids_;
  /// Indices of the active tuples, ascending; meaningful only while
  /// has_selection_ is true.
  std::vector<std::uint32_t> selection_;
  bool has_selection_ = false;
};

}  // namespace ops
}  // namespace craqr
