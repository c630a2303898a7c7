#include "geometry/rect.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace craqr {
namespace geom {

Result<Rect> Rect::Make(double x_min, double y_min, double x_max,
                        double y_max) {
  if (!(x_min < x_max) || !(y_min < y_max)) {
    std::ostringstream msg;
    msg << "degenerate rectangle [" << x_min << "," << y_min << ";" << x_max
        << "," << y_max << ")";
    return Status::InvalidArgument(msg.str());
  }
  return Rect(x_min, y_min, x_max, y_max);
}

double Rect::Area() const {
  if (IsEmpty()) {
    return 0.0;
  }
  return Width() * Height();
}

void Rect::ContainsMask(Span<const SpaceTimePoint> points,
                        std::uint8_t* out) const {
  const double x0 = x_min_, x1 = x_max_, y0 = y_min_, y1 = y_max_;
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = points[i].x;
    const double y = points[i].y;
    out[i] = static_cast<std::uint8_t>((x >= x0) & (x < x1) & (y >= y0) &
                                       (y < y1));
  }
}

bool Rect::ContainsRect(const Rect& other) const {
  return other.x_min_ >= x_min_ && other.x_max_ <= x_max_ &&
         other.y_min_ >= y_min_ && other.y_max_ <= y_max_;
}

SpacePoint Rect::Center() const {
  return SpacePoint{(x_min_ + x_max_) / 2.0, (y_min_ + y_max_) / 2.0};
}

std::optional<Rect> Rect::Intersection(const Rect& other) const {
  const double x_lo = std::max(x_min_, other.x_min_);
  const double y_lo = std::max(y_min_, other.y_min_);
  const double x_hi = std::min(x_max_, other.x_max_);
  const double y_hi = std::min(y_max_, other.y_max_);
  if (x_lo >= x_hi || y_lo >= y_hi) {
    return std::nullopt;
  }
  return Rect(x_lo, y_lo, x_hi, y_hi);
}

double Rect::OverlapArea(const Rect& other) const {
  const auto overlap = Intersection(other);
  return overlap.has_value() ? overlap->Area() : 0.0;
}

bool Rect::IsUnionCompatible(const Rect& other, double tol) const {
  const auto near = [tol](double a, double b) {
    return std::fabs(a - b) <= tol;
  };
  // Horizontally adjacent: share the full vertical side.
  const bool same_y_extent =
      near(y_min_, other.y_min_) && near(y_max_, other.y_max_);
  if (same_y_extent &&
      (near(x_max_, other.x_min_) || near(other.x_max_, x_min_))) {
    return true;
  }
  // Vertically adjacent: share the full horizontal side.
  const bool same_x_extent =
      near(x_min_, other.x_min_) && near(x_max_, other.x_max_);
  if (same_x_extent &&
      (near(y_max_, other.y_min_) || near(other.y_max_, y_min_))) {
    return true;
  }
  return false;
}

Result<Rect> Rect::UnionWith(const Rect& other, double tol) const {
  if (!IsUnionCompatible(other, tol)) {
    return Status::FailedPrecondition(
        "union requires adjacent rectangles with a common side of equal "
        "length: " +
        ToString() + " vs " + other.ToString());
  }
  return Rect(std::min(x_min_, other.x_min_), std::min(y_min_, other.y_min_),
              std::max(x_max_, other.x_max_), std::max(y_max_, other.y_max_));
}

std::vector<Rect> Rect::Subtract(const Rect& outer, const Rect& inner) {
  const auto clipped = outer.Intersection(inner);
  if (!clipped.has_value()) {
    return {outer};
  }
  const Rect& hole = *clipped;
  std::vector<Rect> pieces;
  // Left strip.
  if (hole.x_min() > outer.x_min()) {
    pieces.emplace_back(outer.x_min(), outer.y_min(), hole.x_min(),
                        outer.y_max());
  }
  // Right strip.
  if (hole.x_max() < outer.x_max()) {
    pieces.emplace_back(hole.x_max(), outer.y_min(), outer.x_max(),
                        outer.y_max());
  }
  // Bottom cap (between the strips).
  if (hole.y_min() > outer.y_min()) {
    pieces.emplace_back(hole.x_min(), outer.y_min(), hole.x_max(),
                        hole.y_min());
  }
  // Top cap (between the strips).
  if (hole.y_max() < outer.y_max()) {
    pieces.emplace_back(hole.x_min(), hole.y_max(), hole.x_max(),
                        outer.y_max());
  }
  return pieces;
}

std::string Rect::ToString() const {
  std::ostringstream os;
  os << "[" << x_min_ << "," << y_min_ << ";" << x_max_ << "," << y_max_
     << ")";
  return os.str();
}

}  // namespace geom
}  // namespace craqr
