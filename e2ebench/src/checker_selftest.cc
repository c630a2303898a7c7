/// \file checker_selftest.cc
/// \brief Shows that the benchmark's output checks bite: an honest
/// delivered stream built from the benchmark's own input passes, and each
/// corrupted copy of it is rejected. Exits non-zero on any surprise.
///
///   checker_selftest

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checker.h"
#include "inputs.h"

namespace {

using craqr::ops::PayloadKind;
using craqr::ops::PayloadRef;
using craqr::ops::Tuple;
using e2e::DeliveryChecker;
using e2e::QuerySpec;
using e2e::RateTolerance;
using e2e::StreamReplay;
using e2e::StreamRound;

const std::vector<PayloadKind> kKinds = {
    PayloadKind::kDouble, PayloadKind::kBool, PayloadKind::kString};

/// The query under test: the first standing query, admitted before epoch
/// `open` and live through the end of round 0.
struct Case {
  const StreamRound* round;
  const StreamReplay* replay;
  QuerySpec spec;
  std::uint64_t open = 2;
};

/// Supplied tuples of the query (in-region, its attribute, live epochs).
std::vector<Tuple> Supplied(const Case& c) {
  std::vector<Tuple> out;
  for (std::uint32_t b = static_cast<std::uint32_t>(c.open - 1);
       b < c.round->batches(); ++b) {
    for (std::uint32_t i = c.round->batch_begin[b];
         i < c.round->batch_begin[b + 1]; ++i) {
      const Tuple& t = c.round->tuples[i];
      if (t.attribute == c.spec.attribute &&
          c.spec.region.Contains(t.point.x, t.point.y)) {
        out.push_back(t);
      }
    }
  }
  return out;
}

/// Runs the checker over `stream` as one chunk per input batch. Returns
/// the checker's verdict and error.
bool Verdict(const Case& c, const std::vector<Tuple>& stream,
             const RateTolerance& tolerance, std::string* error) {
  DeliveryChecker checker(c.replay, kKinds);
  checker.Open(0, c.spec, c.open);
  for (std::uint32_t b = static_cast<std::uint32_t>(c.open - 1);
       b < c.round->batches(); ++b) {
    checker.AddSupply(0, c.round->supply[0][b]);
  }
  checker.Consume(0, stream);
  const bool ok = checker.Finish(tolerance, c.round->dt,
                                 c.replay->Epoch(0, c.round->batches() - 1));
  *error = checker.error();
  return ok;
}

}  // namespace

int main() {
  e2e::StreamSize size;
  size.batches_per_round = 16;
  size.standing_queries = 4;
  size.bursts_per_round = 1;
  size.burst_size = 1;
  const StreamRound round = e2e::MakeStreamRound(7, size);
  const StreamReplay replay(&round);
  Case c{&round, &replay, round.standing[0]};

  const std::vector<Tuple> supplied = Supplied(c);
  // The honest stream: every third supplied tuple, at a requested rate
  // whose volume matches it.
  std::vector<Tuple> honest;
  for (std::size_t i = 0; i < supplied.size(); i += 3) {
    honest.push_back(supplied[i]);
  }
  const double live_min =
      static_cast<double>(round.batches() - (c.open - 1)) * round.dt;
  c.spec.rate = static_cast<double>(honest.size()) /
                (c.spec.region.Area() * live_min);
  RateTolerance tolerance;
  tolerance.min_expected = 10.0;

  int failures = 0;
  const auto expect = [&](const char* name, const std::vector<Tuple>& stream,
                          bool want_ok) {
    std::string error;
    const bool ok = Verdict(c, stream, tolerance, &error);
    const bool pass = ok == want_ok;
    std::printf("%-34s %s%s%s\n", name,
                pass ? (want_ok ? "accepted" : "rejected") : "UNEXPECTED",
                error.empty() ? "" : ": ", error.c_str());
    failures += pass ? 0 : 1;
  };

  std::printf("query: attribute %u, %zu supplied tuples, %zu delivered\n",
              c.spec.attribute, supplied.size(), honest.size());
  expect("honest stream", honest, true);

  {
    // A tuple of the right attribute from outside the region, spliced in
    // (t, id) order.
    std::vector<Tuple> s = honest;
    for (const Tuple& t : round.tuples) {
      if (t.attribute == c.spec.attribute &&
          !c.spec.region.Contains(t.point.x, t.point.y) &&
          t.id > s.front().id && t.id < s[1].id) {
        s.insert(s.begin() + 1, t);
        break;
      }
    }
    expect("tuple outside the region", s, false);
  }
  {
    std::vector<Tuple> s = honest;
    s[s.size() / 2].attribute = (c.spec.attribute + 1) % 3;
    expect("wrong attribute", s, false);
  }
  {
    std::vector<Tuple> s = honest;
    s.insert(s.begin() + static_cast<long>(s.size() / 2), s[s.size() / 2]);
    expect("duplicated id", s, false);
  }
  {
    std::vector<Tuple> s = honest;
    Tuple& t = s[s.size() / 3];
    switch (t.value.kind()) {
      case PayloadKind::kDouble:
        t.value = PayloadRef::Double(t.value.AsDouble() + 0.5);
        break;
      case PayloadKind::kBool:
        t.value = PayloadRef::Bool(!t.value.AsBool());
        break;
      default:
        t.value = PayloadRef::String("altered");
        break;
    }
    expect("altered value", s, false);
  }
  {
    // Every supplied tuple plus the in-region tuples of the epoch before
    // admission: more than the input supplied while the query lived.
    std::vector<Tuple> s;
    for (std::uint32_t i = round.batch_begin[0]; i < round.batch_begin[1];
         ++i) {
      const Tuple& t = round.tuples[i];
      if (t.attribute == c.spec.attribute &&
          c.spec.region.Contains(t.point.x, t.point.y)) {
        s.push_back(t);
      }
    }
    s.insert(s.end(), supplied.begin(), supplied.end());
    expect("more tuples than supplied", s, false);
  }
  {
    std::vector<Tuple> s;
    for (std::size_t i = 0; i < honest.size(); i += 2) {
      s.push_back(honest[i]);
    }
    expect("half the requested rate", s, false);
  }
  {
    std::vector<Tuple> s = honest;
    std::swap(s[1], s[2]);
    expect("out of (t, id) order", s, false);
  }
  {
    // Without an input index (engine workload): a repeat across two
    // chunks is caught at Finish.
    DeliveryChecker checker(nullptr, kKinds);
    checker.Open(0, c.spec, 1);
    const std::vector<Tuple> first(honest.begin(), honest.begin() + 4);
    const std::vector<Tuple> second(honest.begin() + 3, honest.begin() + 6);
    checker.Consume(0, first);
    checker.Consume(0, second);
    RateTolerance no_rate;
    no_rate.min_expected = 1e18;
    const bool ok = checker.Finish(no_rate, 1.0, 1);
    std::printf("%-34s %s: %s\n", "repeat across chunks (no index)",
                ok ? "UNEXPECTED" : "rejected", checker.error().c_str());
    failures += ok ? 1 : 0;
  }
  {
    DeliveryChecker a(&replay, kKinds);
    DeliveryChecker b(&replay, kKinds);
    a.Open(0, c.spec, c.open);
    b.Open(0, c.spec, c.open);
    a.AddSupply(0, supplied.size());
    b.AddSupply(0, supplied.size());
    a.Consume(0, honest);
    std::vector<Tuple> shorter(honest.begin(), honest.end() - 1);
    b.Consume(0, shorter);
    const std::string diff = e2e::CompareDigests(a.Digests(), b.Digests());
    std::printf("%-34s %s%s\n", "digest of a shortened stream",
                diff.empty() ? "UNEXPECTED equal" : "rejected: ",
                diff.c_str());
    failures += diff.empty() ? 1 : 0;
  }
  std::printf("%s\n", failures == 0 ? "checker self-test passed"
                                    : "checker self-test FAILED");
  return failures == 0 ? 0 : 1;
}
