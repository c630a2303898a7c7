#include "ops/union_op.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace craqr {
namespace ops {

Result<std::unique_ptr<UnionOperator>> UnionOperator::Make(
    std::string name, std::vector<geom::Rect> input_regions) {
  if (input_regions.size() < 2) {
    return Status::InvalidArgument("union requires at least two regions");
  }
  double total_area = 0.0;
  geom::Rect bbox = input_regions.front();
  for (std::size_t i = 0; i < input_regions.size(); ++i) {
    const auto& region = input_regions[i];
    if (region.IsEmpty()) {
      return Status::InvalidArgument("union region " + std::to_string(i) +
                                     " must have positive area");
    }
    total_area += region.Area();
    bbox = geom::Rect(std::min(bbox.x_min(), region.x_min()),
                      std::min(bbox.y_min(), region.y_min()),
                      std::max(bbox.x_max(), region.x_max()),
                      std::max(bbox.y_max(), region.y_max()));
    for (std::size_t j = i + 1; j < input_regions.size(); ++j) {
      if (!region.IsDisjoint(input_regions[j])) {
        std::ostringstream msg;
        msg << "union input regions must be disjoint; " << region.ToString()
            << " overlaps " << input_regions[j].ToString();
        return Status::FailedPrecondition(msg.str());
      }
    }
  }
  // The disjoint pieces must tile a rectangle — the k-way generalisation of
  // the paper's "adjacent with a common side of equal length" rule.
  const double area_gap = std::fabs(bbox.Area() - total_area);
  if (area_gap > 1e-9 * std::max(1.0, bbox.Area())) {
    std::ostringstream msg;
    msg << "union input regions must tile a rectangle (adjacent with common "
           "sides); pieces cover "
        << total_area << " of bounding box " << bbox.ToString() << " area "
        << bbox.Area();
    return Status::FailedPrecondition(msg.str());
  }
  auto op = std::unique_ptr<UnionOperator>(
      new UnionOperator(std::move(name), std::move(input_regions), bbox));
  op->BuildCoverage();
  return op;
}

void UnionOperator::BuildCoverage() {
  // The regions' own x and y edges cut the plane into elementary cells
  // [xs[i-1], xs[i]) x [ys[j-1], ys[j]) (index 0 and the last index are
  // the unbounded outside bands). Every region is an exact union of such
  // cells, because its half-open bounds are among the edges, so one
  // covered-cell table answers the OR of Rect::Contains bit for bit —
  // including the one-ulp seams adjacent grid cells can leave.
  xs_.clear();
  ys_.clear();
  xs_.reserve(2 * input_regions_.size());
  ys_.reserve(2 * input_regions_.size());
  for (const auto& region : input_regions_) {
    xs_.push_back(region.x_min());
    xs_.push_back(region.x_max());
    ys_.push_back(region.y_min());
    ys_.push_back(region.y_max());
  }
  for (std::vector<double>* edges : {&xs_, &ys_}) {
    std::sort(edges->begin(), edges->end());
    edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
  }
  const std::size_t cols = xs_.size() + 1;
  covered_.assign(cols * (ys_.size() + 1), 0);
  for (const auto& region : input_regions_) {
    // Band index of a coordinate = number of edges <= it, so the region's
    // x bands are (index of x_min, index of x_max], likewise for y.
    const auto band = [](const std::vector<double>& edges, double v) {
      return static_cast<std::size_t>(
          std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
    };
    const std::size_t i0 = band(xs_, region.x_min());
    const std::size_t i1 = band(xs_, region.x_max());
    const std::size_t j0 = band(ys_, region.y_min());
    const std::size_t j1 = band(ys_, region.y_max());
    for (std::size_t j = j0; j < j1; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        covered_[j * cols + i] = 1;
      }
    }
  }
}

bool UnionOperator::Covers(double x, double y) const {
  // Branch-free band search over the handful of edges: counting the
  // edges <= the coordinate gives its band (NaN counts none and lands in
  // the outside band 0, as Rect::Contains rejects it).
  std::size_t i = 0;
  for (const double edge : xs_) {
    i += static_cast<std::size_t>(edge <= x);
  }
  std::size_t j = 0;
  for (const double edge : ys_) {
    j += static_cast<std::size_t>(edge <= y);
  }
  return covered_[j * (xs_.size() + 1) + i] != 0;
}

Status UnionOperator::PushBatch(TupleBatch& batch) {
  CountIn(batch.size());
  // One coverage lookup per active row; husk rows are never visited.
  std::uint64_t outside = 0;
  batch.ForEachRaw([this, &batch, &outside](std::uint32_t raw) {
    const geom::SpaceTimePoint& p = batch.point_at(raw);
    outside += !Covers(p.x, p.y);
  });
  out_of_region_ += outside;
  return Emit(batch);
}

}  // namespace ops
}  // namespace craqr
