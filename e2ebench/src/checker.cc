#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util.h"

namespace e2e {

namespace {

using craqr::ops::Tuple;

bool SameTuple(const Tuple& a, const Tuple& b) {
  return a.id == b.id && a.attribute == b.attribute &&
         a.point.t == b.point.t && a.point.x == b.point.x &&
         a.point.y == b.point.y && a.value == b.value &&
         a.sensor_id == b.sensor_id;
}

}  // namespace

DeliveryChecker::DeliveryChecker(
    const StreamReplay* replay,
    std::vector<craqr::ops::PayloadKind> value_kinds)
    : replay_(replay), value_kinds_(std::move(value_kinds)) {}

void DeliveryChecker::Open(std::uint64_t slot, const QuerySpec& spec,
                           std::uint64_t open_epoch) {
  Query q;
  q.spec = spec;
  q.open_epoch = open_epoch;
  q.digest = kFnvBasis;
  queries_[slot] = std::move(q);
}

void DeliveryChecker::Close(std::uint64_t slot, std::uint64_t last_epoch) {
  queries_[slot].last_epoch = last_epoch;
}

void DeliveryChecker::AddSupply(std::uint64_t slot, std::uint64_t n) {
  queries_[slot].supply += n;
}

void DeliveryChecker::MarkSaturated(std::uint64_t slot) {
  queries_[slot].saturated = true;
}

bool DeliveryChecker::Fail(std::uint64_t slot, const std::string& what) {
  if (error_.empty()) {
    error_ = "query slot " + std::to_string(slot) + ": " + what;
  }
  return false;
}

bool DeliveryChecker::Consume(std::uint64_t slot,
                              const std::vector<Tuple>& chunk) {
  if (!ok()) {
    return false;
  }
  const auto it = queries_.find(slot);
  if (it == queries_.end()) {
    return Fail(slot, "deliveries for an unknown query");
  }
  Query& q = it->second;
  q.delivered += chunk.size();
  delivered_ += chunk.size();
  if (replay_ != nullptr && q.delivered > q.supply) {
    return Fail(slot, "received " + std::to_string(q.delivered) +
                          " tuples but the input supplied " +
                          std::to_string(q.supply));
  }
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const Tuple& t = chunk[i];
    const auto fail = [&](const std::string& what) {
      return Fail(slot, what + " (tuple id " + std::to_string(t.id) + ")");
    };
    if (t.attribute != q.spec.attribute) {
      return fail("wrong attribute");
    }
    if (!q.spec.region.Contains(t.point.x, t.point.y)) {
      return fail("tuple outside the query region");
    }
    if (t.attribute < value_kinds_.size() &&
        t.value.kind() != value_kinds_[t.attribute]) {
      return fail("value of the wrong kind");
    }
    if (replay_ != nullptr) {
      Tuple fed;
      std::uint64_t epoch = 0;
      if (!replay_->Find(t.id, &fed, &epoch)) {
        return fail("not an input tuple");
      }
      if (!SameTuple(fed, t)) {
        return fail("differs from the input tuple with its id");
      }
      if (epoch < q.open_epoch) {
        return fail("fed before the query was admitted");
      }
      if (q.last_epoch != 0 && epoch > q.last_epoch) {
        return fail("fed after the query was cancelled");
      }
      // Input ids follow (t, id) order, so one query's stream must show
      // strictly rising ids: a repeat is a duplicate, a drop is disorder.
      if (q.has_last && t.id <= q.last_id) {
        return fail(t.id == q.last_id ? "duplicated id"
                                      : "out of (t, id) order");
      }
    } else {
      if (i > 0 && (t.point.t < q.last_t ||
                    (t.point.t == q.last_t && t.id <= q.last_id))) {
        return fail(t.id == q.last_id ? "duplicated id"
                                      : "out of (t, id) order");
      }
      q.ids.push_back(t.id);
    }
    q.has_last = true;
    q.last_t = t.point.t;
    q.last_id = t.id;
    q.digest = DigestTuple(q.digest, t);
  }
  return true;
}

bool DeliveryChecker::Finish(const RateTolerance& tolerance, double dt,
                             std::uint64_t end_epoch) {
  if (!ok()) {
    return false;
  }
  for (auto& [slot, q] : queries_) {
    if (replay_ == nullptr) {
      std::sort(q.ids.begin(), q.ids.end());
      const auto dup = std::adjacent_find(q.ids.begin(), q.ids.end());
      if (dup != q.ids.end()) {
        return Fail(slot, "duplicated id " + std::to_string(*dup));
      }
    }
    const std::uint64_t last = q.last_epoch != 0 ? q.last_epoch : end_epoch;
    const double live =
        last >= q.open_epoch ? static_cast<double>(last - q.open_epoch + 1)
                             : 0.0;
    const double expected = q.spec.rate * q.spec.region.Area() * live * dt;
    const bool supplied =
        replay_ == nullptr ||
        static_cast<double>(q.supply) >= tolerance.supply_factor * expected;
    if (expected < tolerance.min_expected || q.saturated || !supplied) {
      continue;
    }
    ++rate_checked_;
    const double delivered = static_cast<double>(q.delivered);
    worst_rate_error_ =
        std::max(worst_rate_error_, std::fabs(delivered - expected) / expected);
    const double noise = tolerance.z * std::sqrt(expected);
    if (delivered < expected * (1.0 - tolerance.below) - noise ||
        delivered > expected * (1.0 + tolerance.above) + noise) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "delivered %.0f tuples, requested volume %.1f (rate %g "
                    "over %.3f km^2 for %.0f min)",
                    delivered, expected, q.spec.rate, q.spec.region.Area(),
                    live * dt);
      return Fail(slot, buf);
    }
  }
  return true;
}

std::map<std::uint64_t, std::uint64_t> DeliveryChecker::Digests() const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (const auto& [slot, q] : queries_) {
    out[slot] = q.digest;
  }
  return out;
}

std::string CompareDigests(const std::map<std::uint64_t, std::uint64_t>& a,
                           const std::map<std::uint64_t, std::uint64_t>& b) {
  if (a.size() != b.size()) {
    return "digest maps cover " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " queries";
  }
  for (const auto& [slot, digest] : a) {
    const auto it = b.find(slot);
    if (it == b.end() || it->second != digest) {
      return "per-query digest differs for query slot " +
             std::to_string(slot);
    }
  }
  return "";
}

}  // namespace e2e
