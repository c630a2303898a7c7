#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util.h"

namespace e2e {

namespace {

using craqr::geom::Rect;
using craqr::ops::PayloadRef;
using craqr::ops::Tuple;

constexpr double kSide = 16.0;  // km; 16 x 16 one-km^2 cells
/// The city layout (roads, hot-cell ranks, queries) is fixed; the seed
/// draws what flows through it. Different seeds therefore ask the program
/// for the same amount of work, so their runs can be compared.
constexpr std::uint64_t kLayoutSeed = 0x1A7047C17ULL;

/// A road centreline queries run along (x = coord or y = coord).
struct Road {
  bool horizontal = true;
  double coord = 0.0;
};

double Lattice(BenchRng& rng, double lo, double hi) {
  // Multiples of 0.5 km in [lo, hi], so regions sometimes align with the
  // 1 km cells and sometimes cut them (partition carve-outs).
  const auto steps = static_cast<std::uint64_t>((hi - lo) / 0.5);
  return lo + 0.5 * static_cast<double>(rng.Below(steps + 1));
}

std::vector<Road> MakeRoads(BenchRng& rng, int count) {
  std::vector<Road> roads;
  for (int i = 0; i < count; ++i) {
    roads.push_back({i % 2 == 0, Lattice(rng, 2.0, 14.0)});
  }
  return roads;
}

/// A corridor along a road: 4-10 km long, 1-3 km wide, clipped to R.
Rect Corridor(BenchRng& rng, const std::vector<Road>& roads) {
  const Road& road = roads[rng.Below(roads.size())];
  const double length = Lattice(rng, 4.0, 10.0);
  const double width = Lattice(rng, 1.0, 3.0);
  const double start = Lattice(rng, 0.0, kSide - length);
  const double lo = std::max(0.0, road.coord - width / 2);
  const double hi = std::min(kSide, road.coord + width / 2);
  return road.horizontal ? Rect(start, lo, start + length, hi)
                         : Rect(lo, start, hi, start + length);
}

/// A district: a 2-5 km rectangle anywhere in R.
Rect District(BenchRng& rng) {
  const double w = Lattice(rng, 2.0, 5.0);
  const double h = Lattice(rng, 2.0, 5.0);
  const double x = Lattice(rng, 0.0, kSide - w);
  const double y = Lattice(rng, 0.0, kSide - h);
  return Rect(x, y, x + w, y + h);
}

template <typename T>
const T& Pick(BenchRng& rng, const std::vector<T>& items) {
  return items[rng.Below(items.size())];
}

/// Attribute by cumulative weights.
craqr::ops::AttributeId PickAttribute(BenchRng& rng,
                                      const std::vector<double>& weights) {
  double u = rng.Uniform();
  for (std::size_t a = 0; a + 1 < weights.size(); ++a) {
    if (u < weights[a]) {
      return static_cast<craqr::ops::AttributeId>(a);
    }
    u -= weights[a];
  }
  return static_cast<craqr::ops::AttributeId>(weights.size() - 1);
}

/// Insert a quarter into each of `bursts` equal segments of a round,
/// cancel three quarters in.
std::vector<ChurnEvent> MakeBursts(std::uint32_t round_length,
                                   std::uint32_t bursts,
                                   std::uint32_t burst_size) {
  std::vector<ChurnEvent> events;
  const std::uint32_t segment = round_length / bursts;
  for (std::uint32_t j = 0; j < bursts; ++j) {
    for (std::uint32_t k = 0; k < burst_size; ++k) {
      const std::uint32_t spec = j * burst_size + k;
      events.push_back({j * segment + segment / 4, true, spec});
      events.push_back({j * segment + 3 * segment / 4, false, spec});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     if (a.at != b.at) {
                       return a.at < b.at;
                     }
                     return !a.insert && b.insert;
                   });
  return events;
}

}  // namespace

StreamRound MakeStreamRound(std::uint64_t seed, const StreamSize& size) {
  BenchRng layout(kLayoutSeed);
  BenchRng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5157);
  StreamRound round;
  round.region = Rect(0, 0, kSide, kSide);
  round.grid_h = 256;
  round.dt = 1.0;

  // Per attribute: background density (tuples/km^2/min, at least twice
  // the highest F target 1.25 * max rate, so every query is supplied) and
  // extra tuples per minute spread over Zipf-ranked hot cells.
  const std::vector<double> background = {8.0, 6.0, 6.0};
  const std::vector<double> hot_per_min = {1500.0, 750.0, 750.0};
  const std::vector<std::vector<double>> rates = {
      {0.5, 1.0, 1.5}, {0.5, 1.0}, {0.5, 1.0}};
  const std::vector<double> attribute_weights = {0.5, 0.25, 0.25};
  const std::vector<std::string> labels = {"clear",  "busy",    "jammed",
                                           "closed", "flooded", "event"};

  const int cells = static_cast<int>(kSide * kSide);
  std::vector<int> rank(cells);
  std::iota(rank.begin(), rank.end(), 0);
  for (int i = cells - 1; i > 0; --i) {
    std::swap(rank[i],
              rank[layout.Below(static_cast<std::uint64_t>(i) + 1)]);
  }
  std::vector<double> zipf(cells);
  double norm = 0.0;
  for (int c = 0; c < cells; ++c) {
    zipf[c] = 1.0 / std::pow(static_cast<double>(rank[c] + 1), 1.1);
    norm += zipf[c];
  }
  for (double& w : zipf) {
    w /= norm;
  }

  std::vector<PayloadRef> label_values;
  for (const std::string& label : labels) {
    label_values.push_back(PayloadRef::String(label));
  }

  const std::uint32_t k = size.batches_per_round;
  std::vector<Tuple> batch;
  round.batch_begin.push_back(0);
  for (std::uint32_t b = 0; b < k; ++b) {
    batch.clear();
    for (craqr::ops::AttributeId a = 0; a < 3; ++a) {
      for (int c = 0; c < cells; ++c) {
        const double mean =
            (background[a] + hot_per_min[a] * zipf[c]) * round.dt;
        const std::uint64_t n = rng.Poisson(mean);
        const double cx = static_cast<double>(c % 16);
        const double cy = static_cast<double>(c / 16);
        for (std::uint64_t i = 0; i < n; ++i) {
          Tuple t;
          t.attribute = a;
          t.point.x = cx + rng.Uniform();
          t.point.y = cy + rng.Uniform();
          t.point.t = (b + rng.Uniform()) * round.dt;
          t.sensor_id = rng.Below(50000);
          if (a == 0) {
            t.value = PayloadRef::Double(12.0 + 0.4 * t.point.x -
                                         0.25 * t.point.y +
                                         rng.Uniform(-1.0, 1.0));
          } else if (a == 1) {
            t.value = PayloadRef::Bool(rng.Uniform() < 0.3);
          } else {
            t.value = Pick(rng, label_values);
          }
          batch.push_back(t);
        }
      }
    }
    std::sort(batch.begin(), batch.end(), [](const Tuple& x, const Tuple& y) {
      return x.point.t < y.point.t;
    });
    for (Tuple& t : batch) {
      t.id = round.tuples.size() + 1;
      round.tuples.push_back(t);
    }
    round.batch_begin.push_back(
        static_cast<std::uint32_t>(round.tuples.size()));
  }

  const std::vector<Road> roads = MakeRoads(layout, 6);
  const auto make_query = [&]() {
    QuerySpec q;
    q.attribute = PickAttribute(layout, attribute_weights);
    q.region = Corridor(layout, roads);
    q.rate = Pick(layout, rates[q.attribute]);
    return q;
  };
  for (std::uint32_t i = 0; i < size.standing_queries; ++i) {
    round.standing.push_back(make_query());
  }
  for (std::uint32_t i = 0; i < size.bursts_per_round * size.burst_size;
       ++i) {
    round.churn_specs.push_back(make_query());
  }
  round.churn = MakeBursts(k, size.bursts_per_round, size.burst_size);

  std::vector<const QuerySpec*> specs;
  for (const QuerySpec& q : round.standing) {
    specs.push_back(&q);
  }
  for (const QuerySpec& q : round.churn_specs) {
    specs.push_back(&q);
  }
  round.supply.assign(specs.size(), std::vector<std::uint32_t>(k, 0));
  for (std::uint32_t b = 0; b < k; ++b) {
    for (std::uint32_t i = round.batch_begin[b]; i < round.batch_begin[b + 1];
         ++i) {
      const Tuple& t = round.tuples[i];
      for (std::size_t s = 0; s < specs.size(); ++s) {
        if (specs[s]->attribute == t.attribute &&
            specs[s]->region.Contains(t.point.x, t.point.y)) {
          ++round.supply[s][b];
        }
      }
    }
  }
  return round;
}

void StreamReplay::FillBatch(std::uint64_t r, std::uint32_t batch,
                             craqr::ops::TupleBatch* out) const {
  const StreamRound& round = *round_;
  const std::uint64_t id_shift = r * round.tuples.size();
  const double t_shift = static_cast<double>(r * round.batches()) * round.dt;
  const std::uint32_t begin = round.batch_begin[batch];
  const std::uint32_t end = round.batch_begin[batch + 1];
  out->Clear();
  out->Reserve(end - begin);
  for (std::uint32_t i = begin; i < end; ++i) {
    const Tuple& t = round.tuples[i];
    craqr::geom::SpaceTimePoint p = t.point;
    p.t += t_shift;
    out->Append(t.id + id_shift, t.attribute, p, t.value, t.sensor_id);
  }
}

bool StreamReplay::Find(std::uint64_t id, Tuple* fed,
                        std::uint64_t* epoch) const {
  const StreamRound& round = *round_;
  const std::uint64_t n = round.tuples.size();
  if (id == 0 || n == 0) {
    return false;
  }
  const std::uint64_t r = (id - 1) / n;
  const auto index = static_cast<std::uint32_t>((id - 1) % n);
  const auto it = std::upper_bound(round.batch_begin.begin(),
                                   round.batch_begin.end(), index);
  const auto b =
      static_cast<std::uint32_t>(it - round.batch_begin.begin()) - 1;
  *fed = round.tuples[index];
  fed->id = id;
  fed->point.t += static_cast<double>(r * round.batches()) * round.dt;
  *epoch = Epoch(r, b);
  return true;
}

CityPlan MakeCityPlan(std::uint64_t seed, const CitySize& size) {
  BenchRng layout(kLayoutSeed);
  CityPlan plan;
  plan.world_seed = BenchRng(seed * 0xD1B54A32D192ED03ULL + 0xC17).Next();
  plan.sensors = size.sensors;
  plan.region = Rect(0, 0, kSide, kSide);
  plan.grid_h = 256;
  plan.attribute_names = {"temp", "aqi", "rain"};
  const std::vector<std::vector<double>> rates = {
      {0.2, 0.4, 0.8}, {0.2, 0.4}, {0.1, 0.2, 0.3}};
  const std::vector<double> attribute_weights = {0.4, 0.25, 0.35};
  const std::vector<Road> roads = MakeRoads(layout, 6);
  const auto make_query = [&]() {
    QuerySpec q;
    q.attribute = PickAttribute(layout, attribute_weights);
    q.region =
        layout.Uniform() < 0.5 ? Corridor(layout, roads) : District(layout);
    q.rate = Pick(layout, rates[q.attribute]);
    return q;
  };
  for (std::uint32_t i = 0; i < size.standing_queries; ++i) {
    plan.standing.push_back(make_query());
  }
  for (std::uint32_t i = 0; i < size.burst_size; ++i) {
    plan.churn_specs.push_back(make_query());
  }
  plan.round_steps = size.round_steps;
  plan.churn = MakeBursts(size.round_steps, 1, size.burst_size);
  return plan;
}

}  // namespace e2e
