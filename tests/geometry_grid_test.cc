#include <gtest/gtest.h>

#include <cmath>

#include "geometry/grid.h"

namespace craqr {
namespace geom {
namespace {

Grid MakeGrid(double size, std::uint32_t h) {
  auto grid = Grid::Make(Rect(0, 0, size, size), h);
  EXPECT_TRUE(grid.ok());
  return grid.MoveValue();
}

TEST(GridTest, MakeValidatesInputs) {
  EXPECT_FALSE(Grid::Make(Rect(), 9).ok());
  EXPECT_FALSE(Grid::Make(Rect(0, 0, 3, 3), 0).ok());
  // Not a perfect square.
  EXPECT_FALSE(Grid::Make(Rect(0, 0, 3, 3), 8).ok());
  EXPECT_TRUE(Grid::Make(Rect(0, 0, 3, 3), 9).ok());
  EXPECT_TRUE(Grid::Make(Rect(0, 0, 3, 3), 1).ok());
}

TEST(GridTest, DimensionsAndCellArea) {
  const Grid grid = MakeGrid(3.0, 9);
  EXPECT_EQ(grid.CellsPerSide(), 3u);
  EXPECT_EQ(grid.NumCells(), 9u);
  EXPECT_DOUBLE_EQ(grid.CellArea(), 1.0);
}

TEST(GridTest, CellRectsTileTheRegion) {
  const Grid grid = MakeGrid(6.0, 16);
  double total = 0.0;
  for (std::uint32_t q = 0; q < grid.CellsPerSide(); ++q) {
    for (std::uint32_t r = 0; r < grid.CellsPerSide(); ++r) {
      const Rect cell = grid.CellRect(CellIndex{q, r});
      total += cell.Area();
      EXPECT_TRUE(grid.region().ContainsRect(cell));
    }
  }
  // Paper Eq. (2): area(R) = sum of cell areas.
  EXPECT_NEAR(total, grid.region().Area(), 1e-9);
}

TEST(GridTest, AdjacentCellEdgesAreBitEqual) {
  // Cell widths here are not exact binary fractions, so an edge computed
  // as x0 + w can land an ulp off the neighbour's x_min + (q + 1) * w.
  for (const Rect& region :
       {Rect(0.1, 0.3, 1.0, 1.7), Rect(0.1, 0.1, 0.7, 0.7)}) {
    SCOPED_TRACE(region.ToString());
    const Grid grid = Grid::Make(region, 16).MoveValue();
    const std::uint32_t side = grid.CellsPerSide();
    for (std::uint32_t q = 0; q < side; ++q) {
      for (std::uint32_t r = 0; r < side; ++r) {
        const Rect cell = grid.CellRect(CellIndex{q, r});
        if (q + 1 < side) {
          EXPECT_EQ(cell.x_max(), grid.CellRect(CellIndex{q + 1, r}).x_min());
        }
        if (r + 1 < side) {
          EXPECT_EQ(cell.y_max(), grid.CellRect(CellIndex{q, r + 1}).y_min());
        }
      }
    }
  }
}

TEST(GridTest, CellContainingRoundTrips) {
  const Grid grid = MakeGrid(3.0, 9);
  const auto cell = grid.CellContaining(1.5, 2.5);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(*cell, (CellIndex{1u, 2u}));
  EXPECT_TRUE(grid.CellRect(*cell).Contains(1.5, 2.5));
  EXPECT_FALSE(grid.CellContaining(3.5, 1.0).has_value());
  EXPECT_FALSE(grid.CellContaining(-0.1, 1.0).has_value());
}

TEST(GridTest, CellContainingOnBoundaries) {
  const Grid grid = MakeGrid(3.0, 9);
  // Interior cell boundary belongs to the upper cell (half-open).
  const auto cell = grid.CellContaining(1.0, 0.0);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->q, 1u);
  EXPECT_EQ(cell->r, 0u);
}

TEST(GridTest, OverlapsSingleInteriorCell) {
  const Grid grid = MakeGrid(3.0, 9);
  const auto overlaps = grid.Overlaps(Rect(1.0, 1.0, 2.0, 2.0));
  ASSERT_TRUE(overlaps.ok());
  ASSERT_EQ(overlaps->size(), 1u);
  EXPECT_EQ(overlaps->front().cell, (CellIndex{1u, 1u}));
  EXPECT_TRUE(overlaps->front().covers_cell);
  EXPECT_NEAR(overlaps->front().fraction, 1.0, 1e-12);
}

TEST(GridTest, OverlapsPartialRegion) {
  const Grid grid = MakeGrid(3.0, 9);
  // Covers cell (0,0) fully and half of (1,0).
  const auto overlaps = grid.Overlaps(Rect(0.0, 0.0, 1.5, 1.0));
  ASSERT_TRUE(overlaps.ok());
  ASSERT_EQ(overlaps->size(), 2u);
  double fractions[2] = {0.0, 0.0};
  for (const auto& overlap : *overlaps) {
    fractions[overlap.cell.q] = overlap.fraction;
    if (overlap.cell.q == 0) {
      EXPECT_TRUE(overlap.covers_cell);
    } else {
      EXPECT_FALSE(overlap.covers_cell);
    }
  }
  EXPECT_NEAR(fractions[0], 1.0, 1e-12);
  EXPECT_NEAR(fractions[1], 0.5, 1e-12);
}

TEST(GridTest, OverlapsClipsToRegion) {
  const Grid grid = MakeGrid(3.0, 9);
  const auto overlaps = grid.Overlaps(Rect(-5.0, -5.0, 0.5, 0.5));
  ASSERT_TRUE(overlaps.ok());
  ASSERT_EQ(overlaps->size(), 1u);
  EXPECT_EQ(overlaps->front().cell, (CellIndex{0u, 0u}));
  EXPECT_NEAR(overlaps->front().fraction, 0.25, 1e-12);
}

TEST(GridTest, OverlapsErrorsOutsideRegion) {
  const Grid grid = MakeGrid(3.0, 9);
  EXPECT_FALSE(grid.Overlaps(Rect(10.0, 10.0, 12.0, 12.0)).ok());
}

TEST(GridTest, OverlapAreasSumToClippedQueryArea) {
  const Grid grid = MakeGrid(4.0, 16);
  const Rect query(0.3, 0.7, 3.9, 2.2);
  const auto overlaps = grid.Overlaps(query);
  ASSERT_TRUE(overlaps.ok());
  double total = 0.0;
  for (const auto& overlap : *overlaps) {
    total += overlap.region.Area();
  }
  EXPECT_NEAR(total, query.Area(), 1e-9);
}

TEST(GridTest, ValidateQueryRegionEnforcesMinimumArea) {
  const Grid grid = MakeGrid(3.0, 9);  // cell area 1 km^2
  EXPECT_TRUE(grid.ValidateQueryRegion(Rect(0, 0, 1, 1)).ok());
  EXPECT_TRUE(grid.ValidateQueryRegion(Rect(0, 0, 2, 2)).ok());
  // Area below one cell: rejected (paper Section IV).
  EXPECT_EQ(grid.ValidateQueryRegion(Rect(0, 0, 0.5, 0.5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(grid.ValidateQueryRegion(Rect()).ok());
}

/// Parameterized sweep over grid granularities.
class GridGranularityTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GridGranularityTest, EveryPointMapsToExactlyOneCell) {
  const std::uint32_t h = GetParam();
  const Grid grid = MakeGrid(5.0, h);
  for (double x = 0.05; x < 5.0; x += 0.52) {
    for (double y = 0.05; y < 5.0; y += 0.52) {
      const auto cell = grid.CellContaining(x, y);
      ASSERT_TRUE(cell.has_value());
      int containing = 0;
      for (std::uint32_t q = 0; q < grid.CellsPerSide(); ++q) {
        for (std::uint32_t r = 0; r < grid.CellsPerSide(); ++r) {
          if (grid.CellRect(CellIndex{q, r}).Contains(x, y)) {
            ++containing;
          }
        }
      }
      EXPECT_EQ(containing, 1);
      EXPECT_TRUE(grid.CellRect(*cell).Contains(x, y));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, GridGranularityTest,
                         ::testing::Values(1u, 4u, 9u, 25u, 64u));

}  // namespace
}  // namespace geom
}  // namespace craqr
