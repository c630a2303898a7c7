#include "util.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>

namespace e2e {

std::uint64_t BenchRng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t BenchRng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double product = Uniform();
    std::uint64_t n = 0;
    while (product > limit) {
      ++n;
      product *= Uniform();
    }
    return n;
  }
  // Box-Muller normal approximation, rounded and clamped at 0.
  const double u1 = 1.0 - Uniform();
  const double u2 = Uniform();
  constexpr double kTwoPi = 6.283185307179586;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  const double draw = std::round(mean + std::sqrt(mean) * z);
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::size_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (read != 2) {
    return 0;
  }
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

RssPeak::RssPeak() : baseline_(ResidentBytes()), peak_(baseline_) {}

void RssPeak::Sample() {
  constexpr std::uint64_t kIntervalNs = 5'000'000;
  const std::uint64_t now = NowNs();
  if (now - last_ns_ >= kIntervalNs) {
    SampleNow();
  }
}

void RssPeak::SampleNow() {
  last_ns_ = NowNs();
  peak_ = std::max(peak_, ResidentBytes());
}

double RssPeak::PeakMb() const {
  return static_cast<double>(peak_ - baseline_) / (1024.0 * 1024.0);
}

std::string SpanLog::ChromeEvents(int pid) const {
  std::ostringstream out;
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":\"benchmark caller\"}}";
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"n\":%llu}}",
                  s.name, pid, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.arg));
    out << buf;
  }
  return out.str();
}

craqr::obs::HistogramSnapshot HistogramDelta(
    const craqr::obs::HistogramSnapshot& after,
    const craqr::obs::HistogramSnapshot& before) {
  craqr::obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

craqr::obs::HistogramSnapshot HistogramByName(const std::string& name) {
  return craqr::obs::GetHistogram(name)->Snapshot();
}

std::uint64_t CounterByName(const std::string& name) {
  return craqr::obs::GetCounter(name)->value();
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricMap& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

namespace {

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

}  // namespace

std::uint64_t DigestTuple(std::uint64_t h, const craqr::ops::Tuple& tuple) {
  h = Fold(h, tuple.id);
  h = Fold(h, Bits(tuple.point.t));
  h = Fold(h, Bits(tuple.point.x));
  h = Fold(h, Bits(tuple.point.y));
  h = Fold(h, tuple.attribute);
  h = Fold(h, static_cast<std::uint64_t>(tuple.value.kind()));
  std::uint64_t payload = 0;
  switch (tuple.value.kind()) {
    case craqr::ops::PayloadKind::kBool:
      payload = tuple.value.AsBool() ? 1 : 0;
      break;
    case craqr::ops::PayloadKind::kInt64:
      payload = static_cast<std::uint64_t>(tuple.value.AsInt64());
      break;
    case craqr::ops::PayloadKind::kDouble:
      payload = Bits(tuple.value.AsDouble());
      break;
    case craqr::ops::PayloadKind::kString:
      for (char c : tuple.value.AsString()) {
        payload = payload * 131 + static_cast<unsigned char>(c);
      }
      break;
    case craqr::ops::PayloadKind::kNull:
      break;
  }
  return Fold(h, payload);
}

}  // namespace e2e
