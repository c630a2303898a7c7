#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "common/rng.h"
#include "core/engine.h"
#include "fabric/fabricator.h"
#include "inputs.h"
#include "ops/value_pool.h"
#include "runtime/sharded_fabricator.h"
#include "sensing/mobility.h"
#include "sensing/phenomena.h"
#include "sensing/population.h"
#include "sensing/response.h"
#include "sensing/world.h"

namespace e2e {

namespace {

using craqr::Result;
using craqr::Status;
using craqr::fabric::QueryStream;
using craqr::obs::HistogramSnapshot;

constexpr int kSetupRepeats = 31;
constexpr int kSmokeSetupRepeats = 2;
/// Samples a run needs so that ten lie beyond its p99.
constexpr std::size_t kTailSamples = 1000;
constexpr double kMiB = 1024.0 * 1024.0;

/// Operator kinds whose registry counters the ledger reads
/// (craqr.ops.<Kind>.*), and every kind, for evaluations per tuple.
constexpr std::array<const char*, 6> kLedgerKinds = {"F", "T",   "P",
                                                     "U", "Ord", "Sink"};
constexpr std::array<const char*, 11> kAllKinds = {
    "F", "T", "P", "U", "S", "Sel", "Map", "Mon", "Sink", "Id", "Ord"};

std::string OpsName(const char* kind, const char* field) {
  return std::string("craqr.ops.") + kind + "." + field;
}

/// Every per-layer metric, zero until a workload measures it: a layer a
/// workload does not exercise (the world on a stream replay, the shard
/// runtime on one thread) reads 0.
MetricMap ZeroLayers() {
  MetricMap m;
  const std::pair<const char*, const char*> names[] = {
      {"sensing.advance_ms_per_step", "ms"},
      {"sensing.responses_per_request", "ratio"},
      {"server.handler_ms_per_step", "ms"},
      {"server.handler_ns_per_request", "ns"},
      {"server.requests_per_step", "count"},
      {"server.subscriptions", "count"},
      {"core.dispatch_ms_per_step", "ms"},
      {"core.drain_ms_per_step", "ms"},
      {"core.unattributed_share", "ratio"},
      {"fabric.process_ns_per_tuple", "ns"},
      {"fabric.operator_evals_per_tuple", "count"},
      {"fabric.insert_ms_p50", "ms"},
      {"fabric.remove_ms_p50", "ms"},
      {"fabric.route_patches", "count"},
      {"fabric.route_rebuilds", "count"},
      {"fabric.shared_prefix_hits", "count"},
      {"fabric.operators_live", "count"},
      {"fabric.materialized_cells", "count"},
      {"ops.value_pool_bytes", "bytes"},
      {"runtime.router_ns_per_tuple", "ns"},
      {"runtime.caller_share", "ratio"},
      {"runtime.drain_wait_ms_per_batch", "ms"},
      {"runtime.shard_busy_share", "ratio"},
      {"runtime.shard_process_ns_per_tuple", "ns"},
      {"runtime.queue_wait_p50_us", "us"},
      {"runtime.batch_latency_p50_us", "us"},
      {"runtime.shard_skew", "ratio"},
      {"runtime.arena_high_water_mb", "MB"},
      {"runtime.speedup_vs_inproc", "ratio"},
      {"obs.trace_overhead_share", "ratio"},
      {"host.steal_share", "ratio"},
      {"host.round_slowdown", "ratio"},
  };
  for (const auto& [name, unit] : names) {
    m[name] = {0.0, unit};
  }
  for (const char* kind : kLedgerKinds) {
    m[std::string("ops.") + kind + ".tuples_in_per_tuple"] = {0.0, "count"};
    m[std::string("ops.") + kind + ".batch_size_mean"] = {0.0, "count"};
  }
  return m;
}

double PerUnit(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Registry readings of the operator layer.
struct OpsReading {
  std::array<std::uint64_t, kLedgerKinds.size()> tuples_in{};
  std::array<HistogramSnapshot, kLedgerKinds.size()> batch_size{};
  std::uint64_t evaluations = 0;  // tuples_in summed over every kind
};

OpsReading ReadOps() {
  OpsReading r;
  for (std::size_t k = 0; k < kLedgerKinds.size(); ++k) {
    r.tuples_in[k] = CounterByName(OpsName(kLedgerKinds[k], "tuples_in"));
    r.batch_size[k] = HistogramByName(OpsName(kLedgerKinds[k], "batch_size"));
  }
  for (const char* kind : kAllKinds) {
    r.evaluations += CounterByName(OpsName(kind, "tuples_in"));
  }
  return r;
}

void FillOps(const OpsReading& before, const OpsReading& after,
             std::uint64_t tuples, MetricMap* layers) {
  const auto n = static_cast<double>(tuples);
  for (std::size_t k = 0; k < kLedgerKinds.size(); ++k) {
    const std::string base = std::string("ops.") + kLedgerKinds[k];
    (*layers)[base + ".tuples_in_per_tuple"].value = PerUnit(
        static_cast<double>(after.tuples_in[k] - before.tuples_in[k]), n);
    const HistogramSnapshot d =
        HistogramDelta(after.batch_size[k], before.batch_size[k]);
    (*layers)[base + ".batch_size_mean"].value =
        PerUnit(static_cast<double>(d.sum), static_cast<double>(d.count));
  }
  (*layers)["fabric.operator_evals_per_tuple"].value =
      PerUnit(static_cast<double>(after.evaluations - before.evaluations), n);
  (*layers)["ops.value_pool_bytes"].value =
      static_cast<double>(craqr::ops::ValuePool::Global().ApproxBytes());
}

/// Latency samples of one run, read on its clock.
struct Timings {
  explicit Timings(Clock c) : clock(c) {}
  Clock clock;
  std::vector<double> step_ms;
  std::vector<double> insert_ms;
  std::vector<double> remove_ms;
  /// Total wall time inside the step/batch calls (ledger denominator).
  std::uint64_t step_ns = 0;

  void Reserve() {
    step_ms.reserve(1 << 16);
    insert_ms.reserve(1 << 12);
    remove_ms.reserve(1 << 12);
  }
};

/// Milliseconds between two readings of a clock.
double Ms(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

/// \brief Rounds of the timed phase, and the host's slowdown in each.
///
/// A round is the unit of work the timed phase repeats: the same calls in
/// the same order every time. Its times are taken on the run's clock, so on
/// a one-thread workload (the thread's CPU clock) time the hypervisor stole
/// or other processes held the CPU is not counted. What that clock still
/// sees is the host running the thread slower for seconds at a time (a
/// busy neighbour on the core's caches and memory): on a shared 4-vCPU KVM
/// guest, the same step ran either about 1.2x or about 1.5x its quickest
/// time in a run, in stretches of seconds, in a mix that differs from run
/// to run.
///
/// Normalize() takes each step position's quickest time over the run's
/// rounds as its cost on a quiet host, the round's slowdown as the median
/// over its steps of time / quickest time, and divides the round's time and
/// every latency sample taken in it by that slowdown. Reported rates are
/// medians over rounds. A change to the program moves its quickest times
/// with its typical ones, so the figures follow the program, at the speed
/// of an undisturbed core. The wall-clock rate, the share of wall time the
/// thread did not run and the slowdown itself are kept beside them.
class RoundLog {
 public:
  explicit RoundLog(Clock clock) : clock_(clock) {}

  void Begin(std::uint64_t tuples, std::uint64_t delivered, const Timings& t) {
    Round r;
    r.steps = t.step_ms.size();
    r.inserts = t.insert_ms.size();
    r.removes = t.remove_ms.size();
    r.tuples = tuples;
    r.delivered = delivered;
    r.clock_ns = clock_();
    r.wall_ns = NowNs();
    r.cpu_ns = ThreadCpuNs();
    open_ = r;
  }
  void End(std::uint64_t tuples, std::uint64_t delivered, const Timings& t) {
    Round r = open_;
    r.steps_end = t.step_ms.size();
    r.inserts_end = t.insert_ms.size();
    r.removes_end = t.remove_ms.size();
    r.tuples = tuples - r.tuples;
    r.delivered = delivered - r.delivered;
    r.clock_ns = clock_() - r.clock_ns;
    r.wall_ns = NowNs() - r.wall_ns;
    r.cpu_ns = ThreadCpuNs() - r.cpu_ns;
    rounds_.push_back(r);
  }

  /// Divides each round's time and latency samples by its slowdown and
  /// computes the rates (see the class comment).
  void Normalize(Timings* t) {
    std::vector<double> quickest;
    for (const Round& r : rounds_) {
      for (std::size_t k = 0; k < r.steps_end - r.steps; ++k) {
        const double v = t->step_ms[r.steps + k];
        if (k == quickest.size()) {
          quickest.push_back(v);
        } else {
          quickest[k] = std::min(quickest[k], v);
        }
      }
    }
    for (Round& r : rounds_) {
      std::vector<double> ratios;
      for (std::size_t k = 0; k < r.steps_end - r.steps; ++k) {
        if (quickest[k] > 0.0) {
          ratios.push_back(t->step_ms[r.steps + k] / quickest[k]);
        }
      }
      const double f = ratios.empty() ? 1.0 : Quantile(ratios, 0.5);
      Scale(&t->step_ms, r.steps, r.steps_end, f);
      Scale(&t->insert_ms, r.inserts, r.inserts_end, f);
      Scale(&t->remove_ms, r.removes, r.removes_end, f);
      const double s = static_cast<double>(r.clock_ns) / 1e9 / f;
      const double wall = static_cast<double>(r.wall_ns) / 1e9;
      slowdown_.push_back(f);
      tuples_per_s_.push_back(static_cast<double>(r.tuples) / s);
      delivered_per_s_.push_back(static_cast<double>(r.delivered) / s);
      wall_tuples_per_s_.push_back(static_cast<double>(r.tuples) / wall);
      off_cpu_.push_back(
          std::max(0.0, 1.0 - static_cast<double>(r.cpu_ns) /
                                  static_cast<double>(r.wall_ns)));
    }
  }

  double TuplesPerS() const { return Quantile(tuples_per_s_, 0.5); }
  double DeliveredPerS() const { return Quantile(delivered_per_s_, 0.5); }
  double WallTuplesPerS() const { return Quantile(wall_tuples_per_s_, 0.5); }
  /// Median share of a round's wall time the calling thread was not on a
  /// CPU.
  double OffCpuShare() const { return Quantile(off_cpu_, 0.5); }
  /// Median over rounds of the host slowdown divided out.
  double Slowdown() const { return Quantile(slowdown_, 0.5); }

 private:
  struct Round {
    std::size_t steps = 0, steps_end = 0;
    std::size_t inserts = 0, inserts_end = 0;
    std::size_t removes = 0, removes_end = 0;
    std::uint64_t tuples = 0;
    std::uint64_t delivered = 0;
    std::uint64_t clock_ns = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;
  };

  static void Scale(std::vector<double>* samples, std::size_t from,
                    std::size_t to, double divisor) {
    for (std::size_t i = from; i < to; ++i) {
      (*samples)[i] /= divisor;
    }
  }

  Clock clock_;
  Round open_;
  std::vector<Round> rounds_;
  std::vector<double> slowdown_;
  std::vector<double> tuples_per_s_;
  std::vector<double> delivered_per_s_;
  std::vector<double> wall_tuples_per_s_;
  std::vector<double> off_cpu_;
};

/// \brief p99 of consecutive blocks of at least kTailSamples samples (so
/// each block has ten beyond its p99), median over the blocks: the tail of
/// a typical stretch of the run rather than of its worst burst.
double BlockedP99(const std::vector<double>& samples) {
  const std::size_t blocks =
      std::max<std::size_t>(1, samples.size() / kTailSamples);
  const std::size_t per = samples.size() / blocks;
  std::vector<double> p99s;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * per);
    const auto last = b + 1 == blocks
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    p99s.push_back(Quantile(std::vector<double>(first, last), 0.99));
  }
  return Quantile(p99s, 0.5);
}

/// Normalizes the rounds' samples (RoundLog::Normalize) and fills the
/// end-to-end metrics from them.
void FillEndToEnd(double setup_s, RoundLog* rounds, double wall_s,
                  Timings* t, double rss_mb, bool smoke, RunResult* result) {
  rounds->Normalize(t);
  std::vector<double> churn = t->insert_ms;
  churn.insert(churn.end(), t->remove_ms.begin(), t->remove_ms.end());
  MetricMap& m = result->end_to_end;
  m["setup_s"] = {setup_s, "s"};
  m["tuples_per_s"] = {rounds->TuplesPerS(), "1/s"};
  m["delivered_per_s"] = {rounds->DeliveredPerS(), "1/s"};
  m["step_p50_ms"] = {Quantile(t->step_ms, 0.50), "ms"};
  m["step_p99_ms"] = {BlockedP99(t->step_ms), "ms"};
  m["churn_p50_ms"] = {Quantile(churn, 0.50), "ms"};
  m["peak_rss_mb"] = {rss_mb, "MB"};
  result->layers["fabric.insert_ms_p50"].value = Quantile(t->insert_ms, 0.5);
  result->layers["fabric.remove_ms_p50"].value = Quantile(t->remove_ms, 0.5);
  result->layers["host.steal_share"].value =
      t->clock == ThreadCpuNs ? rounds->OffCpuShare() : 0.0;
  result->layers["host.round_slowdown"].value = rounds->Slowdown();
  result->wall_tuples_per_s = rounds->WallTuplesPerS();
  std::fprintf(stderr,
               "[e2e] %zu step samples, %zu churn samples, %.3f s timed; "
               "median off-CPU share %.4f, median host slowdown %.4f, "
               "wall-clock tuples/s %.6g\n",
               t->step_ms.size(), churn.size(), wall_s, rounds->OffCpuShare(),
               rounds->Slowdown(), rounds->WallTuplesPerS());
  if (!smoke && t->step_ms.size() < kTailSamples) {
    std::fprintf(stderr,
                 "[e2e] warning: fewer than %zu step samples; p99 has fewer "
                 "than ten beyond it\n",
                 kTailSamples);
  }
}

bool Fail(RunResult* result, const std::string& what) {
  if (result->correct) {
    result->correct = false;
    result->error = what;
  }
  return false;
}

bool Check(const Status& status, const char* what, RunResult* result) {
  if (status.ok()) {
    return true;
  }
  ++result->failed;
  return Fail(result, std::string(what) + ": " + status.ToString());
}

// ------------------------------------------------------------------ streams

/// The stream workloads' program: one in-process fabricator or a sharded
/// runtime, with the standing queries admitted.
struct StreamProgram {
  std::unique_ptr<craqr::fabric::StreamFabricator> inproc;
  std::unique_ptr<craqr::runtime::ShardedFabricator> sharded;
  std::vector<QueryStream> standing;
  /// craqr.rt<id> scope of the sharded runtime's metrics.
  std::string rt_scope;
};

craqr::fabric::FabricConfig StreamFabricConfig(std::uint64_t seed) {
  craqr::fabric::FabricConfig config;
  config.seed = seed * 0x2545F4914F6CDD1DULL + 0xFAB;
  return config;
}

Result<StreamProgram> BuildStreamProgram(const craqr::geom::Grid& grid,
                                         const StreamRound& round,
                                         std::size_t shards,
                                         std::uint64_t seed, bool traced) {
  StreamProgram p;
  if (shards == 0) {
    CRAQR_ASSIGN_OR_RETURN(
        p.inproc,
        craqr::fabric::StreamFabricator::Make(grid, StreamFabricConfig(seed)));
  } else {
    craqr::runtime::ShardedConfig config;
    config.num_shards = shards;
    config.fabric = StreamFabricConfig(seed);
    config.trace_capacity = traced ? 4096 : 0;
    // Make() takes the next registry instance id for its metric scope.
    p.rt_scope = "craqr.rt" + std::to_string(
                                  craqr::obs::Registry::Global()
                                      .NextInstanceId() +
                                  1);
    CRAQR_ASSIGN_OR_RETURN(
        p.sharded, craqr::runtime::ShardedFabricator::Make(grid, config));
  }
  for (const QuerySpec& q : round.standing) {
    Result<QueryStream> stream =
        p.inproc != nullptr
            ? p.inproc->InsertQuery(q.attribute, q.region, q.rate)
            : p.sharded->InsertQuery(q.attribute, q.region, q.rate);
    CRAQR_RETURN_NOT_OK(stream.status());
    p.standing.push_back(stream.MoveValue());
  }
  return p;
}

/// \brief Closed-loop replay of whole rounds into a StreamProgram. The
/// next batch is submitted as soon as the previous one is admitted:
/// in-process that is when ProcessBatch returns; sharded, batches are
/// pipelined like the engine does it (EnqueueBatch(e), then
/// DrainThrough(e - 1)).
class StreamLoop {
 public:
  StreamLoop(const StreamReplay& replay, StreamProgram* program,
             DeliveryChecker* checker, SpanLog* spans, RssPeak* rss,
             Timings* timings)
      : replay_(replay),
        program_(program),
        checker_(checker),
        spans_(spans),
        rss_(rss),
        timings_(timings) {
    const StreamRound& round = replay_.round();
    for (std::size_t i = 0; i < program_->standing.size(); ++i) {
      live_.push_back({i, static_cast<std::uint32_t>(i),
                       program_->standing[i]});
      QuerySpec spec = round.standing[i];
      spec.region = program_->standing[i].region;
      checker_->Open(i, spec, 1);
    }
  }

  /// Replays round r (all K batches and its churn bursts).
  Status RunRound(std::uint64_t r) {
    const StreamRound& round = replay_.round();
    std::size_t next_event = 0;
    for (std::uint32_t b = 0; b < round.batches(); ++b) {
      const std::uint64_t epoch = replay_.Epoch(r, b);
      if (next_event < round.churn.size() && round.churn[next_event].at == b) {
        // Churn happens at a drained boundary, as the engine drains at
        // query churn; a cancelled query's sink dies with it, so every
        // delivery is consumed first.
        CRAQR_RETURN_NOT_OK(DrainAll());
      }
      while (next_event < round.churn.size() &&
             round.churn[next_event].at == b) {
        const ChurnEvent& ev = round.churn[next_event++];
        const std::uint64_t slot = round.standing.size() +
                                   r * round.churn_specs.size() + ev.spec;
        if (ev.insert) {
          CRAQR_RETURN_NOT_OK(Insert(slot, ev.spec, epoch));
        } else {
          CRAQR_RETURN_NOT_OK(Remove(slot, epoch - 1));
        }
      }
      const std::uint64_t t_fill = NowNs();
      replay_.FillBatch(r, b, &batch_);
      spans_->Add("bench.fill", t_fill, NowNs(), batch_.size());
      for (const Live& q : live_) {
        checker_->AddSupply(q.slot, SupplyOf(q.spec, b));
      }
      tuples_ += batch_.size();
      ++batches_;
      CRAQR_RETURN_NOT_OK(Feed(epoch));
      rss_->Sample();
      last_epoch_ = epoch;
    }
    return DrainAll();
  }

  std::uint64_t tuples() const { return tuples_; }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t churn_ops() const { return churn_ops_; }
  std::uint64_t last_epoch() const { return last_epoch_; }
  /// Caller-thread time inside EnqueueBatch / DrainThrough / Drain.
  std::uint64_t runtime_call_ns() const { return runtime_call_ns_; }

 private:
  struct Live {
    std::uint64_t slot;
    /// Index into standing specs, then churn specs (supply rows).
    std::uint32_t spec;
    QueryStream stream;
  };

  std::uint32_t SupplyOf(std::uint32_t spec, std::uint32_t b) const {
    return replay_.round().supply[spec][b];
  }

  Status Insert(std::uint64_t slot, std::uint32_t churn_spec,
                std::uint64_t epoch) {
    const StreamRound& round = replay_.round();
    const QuerySpec& q = round.churn_specs[churn_spec];
    const std::uint64_t t0 = NowNs();
    const std::uint64_t c0 = timings_->clock();
    Result<QueryStream> stream =
        program_->inproc != nullptr
            ? program_->inproc->InsertQuery(q.attribute, q.region, q.rate)
            : program_->sharded->InsertQuery(q.attribute, q.region, q.rate);
    timings_->insert_ms.push_back(Ms(c0, timings_->clock()));
    const std::uint64_t t1 = NowNs();
    ++churn_ops_;
    spans_->Add("InsertQuery", t0, t1, slot);
    CRAQR_RETURN_NOT_OK(stream.status());
    QuerySpec spec = q;
    spec.region = stream.value().region;
    checker_->Open(slot, spec, epoch);
    live_.push_back({slot,
                     static_cast<std::uint32_t>(round.standing.size()) +
                         churn_spec,
                     stream.MoveValue()});
    return Status::OK();
  }

  Status Remove(std::uint64_t slot, std::uint64_t last_epoch) {
    const auto it =
        std::find_if(live_.begin(), live_.end(),
                     [slot](const Live& q) { return q.slot == slot; });
    if (it == live_.end()) {
      return Status::Internal("cancel of a query the benchmark never admitted");
    }
    Consume(*it);
    const std::uint64_t t0 = NowNs();
    const std::uint64_t c0 = timings_->clock();
    const Status status = program_->inproc != nullptr
                              ? program_->inproc->RemoveQuery(it->stream.id)
                              : program_->sharded->RemoveQuery(it->stream.id);
    timings_->remove_ms.push_back(Ms(c0, timings_->clock()));
    const std::uint64_t t1 = NowNs();
    ++churn_ops_;
    spans_->Add("RemoveQuery", t0, t1, slot);
    checker_->Close(slot, last_epoch);
    live_.erase(it);
    return status;
  }

  Status Feed(std::uint64_t epoch) {
    const auto n = static_cast<std::uint64_t>(batch_.size());
    if (program_->inproc != nullptr) {
      const std::uint64_t t0 = NowNs();
      const std::uint64_t c0 = timings_->clock();
      const Status status = program_->inproc->ProcessBatch(batch_);
      const std::uint64_t c1 = timings_->clock();
      const std::uint64_t t1 = NowNs();
      spans_->Add("ProcessBatch", t0, t1, n);
      RecordStep(t1 - t0, c1 - c0);
      CRAQR_RETURN_NOT_OK(status);
      ConsumeAll();
      return Status::OK();
    }
    const std::uint64_t t0 = NowNs();
    CRAQR_RETURN_NOT_OK(program_->sharded->EnqueueBatch(batch_, epoch));
    const std::uint64_t t1 = NowNs();
    spans_->Add("EnqueueBatch", t0, t1, n);
    runtime_call_ns_ += t1 - t0;
    if (pending_epoch_ != 0) {
      const Status status = program_->sharded->DrainThrough(pending_epoch_);
      const std::uint64_t t2 = NowNs();
      spans_->Add("DrainThrough", t1, t2, pending_epoch_);
      runtime_call_ns_ += t2 - t1;
      RecordStep(t2 - pending_start_, t2 - pending_start_);
      CRAQR_RETURN_NOT_OK(status);
      ConsumeAll();
    }
    pending_epoch_ = epoch;
    pending_start_ = t0;
    return Status::OK();
  }

  Status DrainAll() {
    if (program_->sharded != nullptr && pending_epoch_ != 0) {
      const std::uint64_t t0 = NowNs();
      const Status status = program_->sharded->Drain();
      const std::uint64_t t1 = NowNs();
      spans_->Add("Drain", t0, t1, pending_epoch_);
      runtime_call_ns_ += t1 - t0;
      RecordStep(t1 - pending_start_, t1 - pending_start_);
      pending_epoch_ = 0;
      CRAQR_RETURN_NOT_OK(status);
    }
    ConsumeAll();
    return Status::OK();
  }

  /// One step: `wall_ns` for the ledger, `clock_ns` on the run's clock.
  /// The sharded path's clock is the wall clock (its step spans worker
  /// threads), so both are the same there.
  void RecordStep(std::uint64_t wall_ns, std::uint64_t clock_ns) {
    timings_->step_ms.push_back(static_cast<double>(clock_ns) / 1e6);
    timings_->step_ns += wall_ns;
  }

  void Consume(const Live& q) {
    craqr::ops::SinkOperator* sink = q.stream.sink;
    if (!sink->tuples().empty()) {
      checker_->Consume(q.slot, sink->tuples());
      sink->Clear();
    }
  }

  void ConsumeAll() {
    const std::uint64_t t0 = NowNs();
    for (const Live& q : live_) {
      Consume(q);
    }
    spans_->Add("bench.consume", t0, NowNs(), live_.size());
  }

  const StreamReplay& replay_;
  StreamProgram* program_;
  DeliveryChecker* checker_;
  SpanLog* spans_;
  RssPeak* rss_;
  Timings* timings_;
  std::vector<Live> live_;
  craqr::ops::TupleBatch batch_;
  std::uint64_t pending_epoch_ = 0;
  std::uint64_t pending_start_ = 0;
  std::uint64_t tuples_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t churn_ops_ = 0;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t runtime_call_ns_ = 0;
};

StreamSize StreamSizeFor(const RunConfig& config) {
  StreamSize size;
  if (config.smoke) {
    size.batches_per_round = 16;
    size.standing_queries = 16;
    size.bursts_per_round = 2;
    size.burst_size = 3;
  }
  return size;
}

const std::vector<craqr::ops::PayloadKind> kStreamKinds = {
    craqr::ops::PayloadKind::kDouble, craqr::ops::PayloadKind::kBool,
    craqr::ops::PayloadKind::kString};

/// Poisson tolerance of the stream workloads (see README).
RateTolerance StreamTolerance() {
  RateTolerance t;
  t.z = 5.0;
  t.below = 0.10;
  t.above = 0.03;
  t.min_expected = 200.0;
  t.supply_factor = 2.0;
  return t;
}

/// Sharded-runtime ledger readings (craqr.rt<id>.*).
struct RuntimeReading {
  HistogramSnapshot enqueue;
  HistogramSnapshot drain_wait;
  std::vector<HistogramSnapshot> queue_wait;
  std::vector<HistogramSnapshot> batch_latency;
  std::vector<std::uint64_t> busy_ns;
  std::vector<std::uint64_t> tuples;
};

RuntimeReading ReadRuntime(const std::string& scope, std::size_t shards) {
  RuntimeReading r;
  r.enqueue = HistogramByName(scope + ".router.enqueue_ns");
  r.drain_wait = HistogramByName(scope + ".router.drain_wait_ns");
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string base = scope + ".shard" + std::to_string(i);
    r.queue_wait.push_back(HistogramByName(base + ".queue_wait_ns"));
    r.batch_latency.push_back(HistogramByName(base + ".batch_latency_ns"));
    r.busy_ns.push_back(CounterByName(base + ".busy_ns"));
    r.tuples.push_back(CounterByName(base + ".tuples_processed"));
  }
  return r;
}

HistogramSnapshot MergedDelta(const std::vector<HistogramSnapshot>& after,
                              const std::vector<HistogramSnapshot>& before) {
  HistogramSnapshot merged;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const HistogramSnapshot d = HistogramDelta(after[i], before[i]);
    merged.count += d.count;
    merged.sum += d.sum;
    merged.max = std::max(merged.max, d.max);
    for (std::size_t b = 0; b < merged.buckets.size(); ++b) {
      merged.buckets[b] += d.buckets[b];
    }
  }
  return merged;
}

RunResult RunStream(const RunConfig& config, std::size_t shards) {
  RunResult result;
  result.layers = ZeroLayers();
  const StreamRound round = MakeStreamRound(config.seed, StreamSizeFor(config));
  const StreamReplay replay(&round);
  const craqr::geom::Grid grid =
      craqr::geom::Grid::Make(round.region, round.grid_h).MoveValue();
  SpanLog spans(config.traced);
  // One thread: its CPU clock. Sharded: the wall clock, since the caller
  // waits on the shard workers.
  const Clock clock = shards == 0 ? ThreadCpuNs : NowNs;
  Timings timings(clock);
  timings.Reserve();
  RssPeak rss;  // baseline: inputs generated, program not yet built

  // Set-up: construction plus admission of the standing queries, repeated;
  // the last program built is the one measured.
  std::vector<double> setup_s;
  StreamProgram program;
  const int repeats = config.smoke ? kSmokeSetupRepeats : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    program = StreamProgram();
    const std::uint64_t t0 = clock();
    Result<StreamProgram> built =
        BuildStreamProgram(grid, round, shards, config.seed, config.traced);
    setup_s.push_back(static_cast<double>(clock() - t0) / 1e9);
    if (!Check(built.status(), "set-up", &result)) {
      return result;
    }
    program = built.MoveValue();
    rss.SampleNow();
  }

  DeliveryChecker checker(&replay, kStreamKinds);
  StreamLoop loop(replay, &program, &checker, &spans, &rss, &timings);
  const OpsReading ops_before = ReadOps();
  const RuntimeReading rt_before =
      shards > 0 ? ReadRuntime(program.rt_scope, shards) : RuntimeReading();
  std::uint64_t patches_before = 0;
  std::uint64_t rebuilds_before = 0;
  std::uint64_t hits_before = 0;
  if (program.inproc != nullptr) {
    patches_before = program.inproc->route_patches();
    rebuilds_before = program.inproc->route_rebuilds();
    hits_before = program.inproc->shared_prefix_hits();
  } else {
    hits_before = program.sharded->Snapshot().shared_prefix_hits;
  }

  std::map<std::uint64_t, std::uint64_t> first_round_digests;
  const std::uint64_t start = NowNs();
  const auto deadline =
      start + static_cast<std::uint64_t>(config.seconds * 1e9);
  std::uint64_t rounds = 0;
  RoundLog round_log(clock);
  do {
    round_log.Begin(loop.tuples(), checker.delivered(), timings);
    if (!Check(loop.RunRound(rounds), "stream round", &result)) {
      break;
    }
    round_log.End(loop.tuples(), checker.delivered(), timings);

    if (++rounds == 1) {
      first_round_digests = checker.Digests();
    }
  } while (NowNs() < deadline);
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  rss.SampleNow();
  result.attempted = loop.batches() + loop.churn_ops();

  FillEndToEnd(Quantile(setup_s, 0.5), &round_log, wall_s, &timings,
               rss.PeakMb(), config.smoke, &result);
  if (!checker.Finish(StreamTolerance(), round.dt, loop.last_epoch())) {
    Fail(&result, checker.error());
  }
  std::fprintf(stderr,
               "[e2e] %llu rounds; rate tolerance applied to %zu queries, "
               "worst |D-L|/L %.4f\n",
               static_cast<unsigned long long>(rounds), checker.rate_checked(),
               checker.worst_rate_error());

  // Ledger.
  MetricMap& layers = result.layers;
  const double tuples = static_cast<double>(loop.tuples());
  FillOps(ops_before, ReadOps(), loop.tuples(), &layers);
  if (program.inproc != nullptr) {
    const auto& f = *program.inproc;
    layers["fabric.process_ns_per_tuple"].value =
        PerUnit(static_cast<double>(timings.step_ns), tuples);
    layers["fabric.route_patches"].value =
        static_cast<double>(f.route_patches() - patches_before);
    layers["fabric.route_rebuilds"].value =
        static_cast<double>(f.route_rebuilds() - rebuilds_before);
    layers["fabric.shared_prefix_hits"].value =
        static_cast<double>(f.shared_prefix_hits() - hits_before);
    layers["fabric.operators_live"].value =
        static_cast<double>(f.TotalOperators());
    layers["fabric.materialized_cells"].value =
        static_cast<double>(f.NumMaterializedCells());
  } else {
    const craqr::runtime::ShardedStats stats = program.sharded->Snapshot();
    const RuntimeReading rt = ReadRuntime(program.rt_scope, shards);
    double busy = 0.0;
    double processed = 0.0;
    double most = 0.0;
    for (std::size_t i = 0; i < shards; ++i) {
      busy += static_cast<double>(rt.busy_ns[i] - rt_before.busy_ns[i]);
      const auto n = static_cast<double>(rt.tuples[i] - rt_before.tuples[i]);
      processed += n;
      most = std::max(most, n);
    }
    if (processed <= 0.0) {
      Fail(&result, "no shard counters under " + program.rt_scope);
    }
    const HistogramSnapshot enqueue =
        HistogramDelta(rt.enqueue, rt_before.enqueue);
    const HistogramSnapshot wait =
        HistogramDelta(rt.drain_wait, rt_before.drain_wait);
    const double wall_ns = wall_s * 1e9;
    layers["fabric.process_ns_per_tuple"].value = PerUnit(busy, processed);
    layers["fabric.shared_prefix_hits"].value =
        static_cast<double>(stats.shared_prefix_hits - hits_before);
    layers["fabric.operators_live"].value =
        static_cast<double>(stats.total_operators);
    layers["fabric.materialized_cells"].value =
        static_cast<double>(stats.materialized_cells);
    layers["runtime.router_ns_per_tuple"].value =
        PerUnit(static_cast<double>(enqueue.sum), tuples);
    layers["runtime.caller_share"].value = PerUnit(
        static_cast<double>(loop.runtime_call_ns()) -
            static_cast<double>(wait.sum),
        wall_ns);
    layers["runtime.drain_wait_ms_per_batch"].value =
        PerUnit(static_cast<double>(wait.sum) / 1e6,
                static_cast<double>(loop.batches()));
    layers["runtime.shard_busy_share"].value =
        PerUnit(busy, wall_ns * static_cast<double>(shards));
    layers["runtime.shard_process_ns_per_tuple"].value =
        PerUnit(busy, processed);
    layers["runtime.queue_wait_p50_us"].value =
        MergedDelta(rt.queue_wait, rt_before.queue_wait).Quantile(0.5) / 1e3;
    layers["runtime.batch_latency_p50_us"].value =
        MergedDelta(rt.batch_latency, rt_before.batch_latency).Quantile(0.5) /
        1e3;
    layers["runtime.shard_skew"].value =
        PerUnit(most, processed / static_cast<double>(shards));
    layers["runtime.arena_high_water_mb"].value =
        static_cast<double>(stats.arena_high_water_bytes) / kMiB;
  }
  if (spans.enabled()) {
    result.spans_json = spans.ChromeEvents(100);
  }

  // Shard-count invariance: the first round replayed on the other
  // execution path (two shards for the in-process run, one in-process
  // fabricator for the sharded run) must give every query the same digest.
  if (result.correct) {
    const std::size_t other = shards > 0 ? 0 : 2;
    Result<StreamProgram> reference =
        BuildStreamProgram(grid, round, other, config.seed, false);
    if (!Check(reference.status(), "reference set-up", &result)) {
      return result;
    }
    StreamProgram ref = reference.MoveValue();
    DeliveryChecker ref_checker(&replay, kStreamKinds);
    SpanLog no_spans(false);
    Timings ref_timings(clock);
    StreamLoop ref_loop(replay, &ref, &ref_checker, &no_spans, &rss,
                        &ref_timings);
    if (Check(ref_loop.RunRound(0), "reference round", &result)) {
      if (!ref_checker.ok()) {
        Fail(&result, "reference: " + ref_checker.error());
      }
      const std::string diff =
          CompareDigests(first_round_digests, ref_checker.Digests());
      if (!diff.empty()) {
        Fail(&result, std::string("first round, ") +
                          (shards > 0 ? "two shards" : "in-process") +
                          " vs " + (other > 0 ? "two shards" : "in-process") +
                          ": " + diff);
      }
    }
  }
  return result;
}

// --------------------------------------------------------------------- city

CitySize CitySizeFor(const RunConfig& config) {
  CitySize size;
  if (config.smoke) {
    size.sensors = 800;
    size.standing_queries = 8;
    size.burst_size = 2;
    size.round_steps = 20;
  }
  return size;
}

/// Rounds of the city run whose digests the two-shard pass reproduces.
std::uint64_t CityCheckRounds(const RunConfig& config) {
  return config.smoke ? 1 : 3;
}

craqr::engine::EngineConfig CityEngineConfig(const CityPlan& plan,
                                             std::size_t shards,
                                             bool traced) {
  craqr::engine::EngineConfig config;
  config.grid_h = plan.grid_h;
  config.step_dt = 1.0;
  config.enable_incentives = true;
  config.num_shards = shards;
  config.trace_capacity = traced ? 4096 : 0;
  config.fabric.seed = plan.world_seed ^ 0xE2E0C17EULL;
  return config;
}

/// Builds the crowd (the program's own sensing simulation, seeded from
/// the plan), registers the attributes and constructs the engine.
Result<std::unique_ptr<craqr::engine::CraqrEngine>> BuildCityEngine(
    const CityPlan& plan, const craqr::engine::EngineConfig& config) {
  using namespace craqr::sensing;  // NOLINT
  PopulationConfig crowd;
  crowd.region = plan.region;
  crowd.num_sensors = plan.sensors;
  CRAQR_ASSIGN_OR_RETURN(std::unique_ptr<MobilityModel> mobility,
                         RandomWaypointMobility::Make(0.05, 0.4));
  crowd.mobility_prototype = mobility.get();
  craqr::Rng rng(plan.world_seed);
  CRAQR_ASSIGN_OR_RETURN(SensorPopulation population,
                         SensorPopulation::Make(crowd, &rng));
  CRAQR_ASSIGN_OR_RETURN(CrowdWorld world,
                         CrowdWorld::Make(std::move(population), rng.Fork()));
  TemperatureField::Params temperature;
  temperature.grad_x = 0.12;
  CRAQR_ASSIGN_OR_RETURN(FieldPtr temp, TemperatureField::Make(temperature));
  AirQualityField::Source plant;
  plant.x = 12.5;
  plant.y = 3.5;
  plant.strength = 90.0;
  plant.spread = 1.5;
  CRAQR_ASSIGN_OR_RETURN(FieldPtr aqi, AirQualityField::Make(30.0, {plant}));
  RainCell storm;
  storm.x0 = 5.0;
  storm.y0 = 10.0;
  storm.radius = 3.0;
  storm.vx = 0.01;
  CRAQR_ASSIGN_OR_RETURN(FieldPtr rain, RainField::Make({storm}));
  const FieldPtr fields[] = {temp, aqi, rain};
  for (std::size_t a = 0; a < plan.attribute_names.size(); ++a) {
    const bool human = plan.attribute_names[a] == "rain";
    CRAQR_ASSIGN_OR_RETURN(
        craqr::ops::AttributeId id,
        world.RegisterAttribute(plan.attribute_names[a], human, fields[a],
                                human ? ResponseModel::HumanBehavior()
                                      : ResponseModel::DeviceBehavior()));
    if (id != a) {
      return Status::Internal("attribute ids do not follow registration");
    }
  }
  return craqr::engine::CraqrEngine::Make(std::move(world), config);
}

craqr::query::AcquisitionQuery ToQuery(const CityPlan& plan,
                                       const QuerySpec& spec) {
  craqr::query::AcquisitionQuery q;
  q.attribute = plan.attribute_names[spec.attribute];
  q.region = spec.region;
  q.rate = spec.rate;
  return q;
}

struct CityProgram {
  std::unique_ptr<craqr::engine::CraqrEngine> engine;
  std::vector<QueryStream> standing;
};

Result<CityProgram> BuildCityProgram(const CityPlan& plan, std::size_t shards,
                                     bool traced) {
  CityProgram p;
  CRAQR_ASSIGN_OR_RETURN(
      p.engine, BuildCityEngine(plan, CityEngineConfig(plan, shards, traced)));
  for (const QuerySpec& q : plan.standing) {
    CRAQR_ASSIGN_OR_RETURN(QueryStream stream,
                           p.engine->Submit(ToQuery(plan, q)));
    p.standing.push_back(stream);
  }
  return p;
}

/// \brief Closed-loop engine run: Step() back to back, churn bursts at
/// fixed steps of each round, every sink consumed after every step.
class CityLoop {
 public:
  CityLoop(const CityPlan& plan, CityProgram* program,
           DeliveryChecker* checker, SpanLog* spans, RssPeak* rss,
           Timings* timings)
      : plan_(plan),
        program_(program),
        checker_(checker),
        spans_(spans),
        rss_(rss),
        timings_(timings) {
    for (std::size_t i = 0; i < program_->standing.size(); ++i) {
      AddLive(i, plan_.standing[i], program_->standing[i]);
    }
  }

  Status RunRound(std::uint64_t r) {
    craqr::engine::CraqrEngine& engine = *program_->engine;
    std::size_t next_event = 0;
    for (std::uint32_t s = 0; s < plan_.round_steps; ++s) {
      bool drained = false;
      while (next_event < plan_.churn.size() &&
             plan_.churn[next_event].at == s) {
        const ChurnEvent& ev = plan_.churn[next_event++];
        const std::uint64_t slot = plan_.standing.size() +
                                   r * plan_.churn_specs.size() + ev.spec;
        if (ev.insert) {
          CRAQR_RETURN_NOT_OK(Submit(slot, plan_.churn_specs[ev.spec]));
        } else {
          if (!drained && engine.IsSharded()) {
            CRAQR_RETURN_NOT_OK(engine.DrainPipeline());
            ConsumeAll();
            drained = true;
          }
          CRAQR_RETURN_NOT_OK(Cancel(slot));
        }
      }
      const std::uint64_t t0 = NowNs();
      const std::uint64_t c0 = timings_->clock();
      const Status status = engine.Step();
      timings_->step_ms.push_back(Ms(c0, timings_->clock()));
      const std::uint64_t t1 = NowNs();
      spans_->Add("Step", t0, t1, steps_ + 1);
      timings_->step_ns += t1 - t0;
      ++steps_;
      CRAQR_RETURN_NOT_OK(status);
      ConsumeAll();
      rss_->Sample();
    }
    return Status::OK();
  }

  /// Flushes pipelined deliveries (sharded engines) and consumes them.
  Status Finish() {
    CRAQR_RETURN_NOT_OK(program_->engine->DrainPipeline());
    ConsumeAll();
    MarkSaturated();
    return Status::OK();
  }

  std::uint64_t steps() const { return steps_; }
  std::uint64_t churn_ops() const { return churn_ops_; }

 private:
  struct Live {
    std::uint64_t slot;
    QueryStream stream;
  };
  /// Infeasibility-log window of a query: events logged while it lived.
  struct Window {
    craqr::ops::AttributeId attribute = 0;
    std::vector<craqr::geom::CellIndex> cells;
    std::size_t from = 0;
    std::size_t to = 0;  // 0 while live
  };

  void AddLive(std::uint64_t slot, const QuerySpec& spec,
               const QueryStream& stream) {
    QuerySpec clipped = spec;
    clipped.region = stream.region;
    checker_->Open(slot, clipped, steps_ + 1);
    live_.push_back({slot, stream});
    Window w;
    w.attribute = stream.attribute;
    const auto overlaps = program_->engine->grid().Overlaps(stream.region);
    if (overlaps.ok()) {
      for (const auto& o : overlaps.value()) {
        w.cells.push_back(o.cell);
      }
    }
    w.from = program_->engine->infeasible_log().size();
    windows_[slot] = std::move(w);
  }

  Status Submit(std::uint64_t slot, const QuerySpec& spec) {
    const std::uint64_t t0 = NowNs();
    const std::uint64_t c0 = timings_->clock();
    Result<QueryStream> stream = program_->engine->Submit(ToQuery(plan_, spec));
    timings_->insert_ms.push_back(Ms(c0, timings_->clock()));
    const std::uint64_t t1 = NowNs();
    ++churn_ops_;
    spans_->Add("Submit", t0, t1, slot);
    CRAQR_RETURN_NOT_OK(stream.status());
    AddLive(slot, spec, stream.value());
    return Status::OK();
  }

  Status Cancel(std::uint64_t slot) {
    const auto it =
        std::find_if(live_.begin(), live_.end(),
                     [slot](const Live& q) { return q.slot == slot; });
    if (it == live_.end()) {
      return Status::Internal("cancel of a query the benchmark never admitted");
    }
    Consume(*it);
    const std::uint64_t t0 = NowNs();
    const std::uint64_t c0 = timings_->clock();
    const Status status = program_->engine->Cancel(it->stream.id);
    timings_->remove_ms.push_back(Ms(c0, timings_->clock()));
    const std::uint64_t t1 = NowNs();
    ++churn_ops_;
    spans_->Add("Cancel", t0, t1, slot);
    checker_->Close(slot, steps_);
    windows_[slot].to = program_->engine->infeasible_log().size();
    live_.erase(it);
    return status;
  }

  void Consume(const Live& q) {
    craqr::ops::SinkOperator* sink = q.stream.sink;
    if (!sink->tuples().empty()) {
      checker_->Consume(q.slot, sink->tuples());
      sink->Clear();
    }
  }

  void ConsumeAll() {
    for (const Live& q : live_) {
      Consume(q);
    }
  }

  /// A query whose (attribute, cell) budget hit its ceiling while it was
  /// live is exempt from the rate tolerance.
  void MarkSaturated() {
    const auto& log = program_->engine->infeasible_log();
    for (auto& [slot, w] : windows_) {
      const std::size_t to = w.to != 0 ? w.to : log.size();
      for (std::size_t i = w.from; i < to; ++i) {
        if (log[i].attribute == w.attribute &&
            std::find(w.cells.begin(), w.cells.end(), log[i].cell) !=
                w.cells.end()) {
          checker_->MarkSaturated(slot);
          break;
        }
      }
    }
  }

  const CityPlan& plan_;
  CityProgram* program_;
  DeliveryChecker* checker_;
  SpanLog* spans_;
  RssPeak* rss_;
  Timings* timings_;
  std::vector<Live> live_;
  std::map<std::uint64_t, Window> windows_;
  std::uint64_t steps_ = 0;
  std::uint64_t churn_ops_ = 0;
};

const std::vector<craqr::ops::PayloadKind> kCityKinds = {
    craqr::ops::PayloadKind::kDouble, craqr::ops::PayloadKind::kDouble,
    craqr::ops::PayloadKind::kBool};

/// Rate tolerance of the city workload (see README): the budget loop
/// starts every subscription at its initial budget and tunes from there.
RateTolerance CityTolerance() {
  RateTolerance t;
  t.z = 5.0;
  t.below = 0.25;
  t.above = 0.10;
  t.min_expected = 100.0;
  return t;
}

struct PhaseReading {
  HistogramSnapshot world, handler, drain, dispatch;
};

PhaseReading ReadPhases() {
  return {HistogramByName("craqr.engine.phase.world_ns"),
          HistogramByName("craqr.engine.phase.handler_ns"),
          HistogramByName("craqr.engine.phase.drain_ns"),
          HistogramByName("craqr.engine.phase.dispatch_ns")};
}

}  // namespace

RunResult RunCityEngine(const RunConfig& config) {
  RunResult result;
  result.layers = ZeroLayers();
  const CityPlan plan = MakeCityPlan(config.seed, CitySizeFor(config));
  SpanLog spans(config.traced);
  // The measured engine runs on the calling thread alone (num_shards = 1).
  const Clock clock = ThreadCpuNs;
  Timings timings(clock);
  timings.Reserve();
  RssPeak rss;

  std::vector<double> setup_s;
  CityProgram program;
  const int repeats = config.smoke ? kSmokeSetupRepeats : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    program = CityProgram();
    const std::uint64_t t0 = clock();
    Result<CityProgram> built = BuildCityProgram(plan, 1, config.traced);
    setup_s.push_back(static_cast<double>(clock() - t0) / 1e9);
    if (!Check(built.status(), "set-up", &result)) {
      return result;
    }
    program = built.MoveValue();
    rss.SampleNow();
  }
  craqr::engine::CraqrEngine& engine = *program.engine;

  DeliveryChecker checker(nullptr, kCityKinds);
  CityLoop loop(plan, &program, &checker, &spans, &rss, &timings);
  const OpsReading ops_before = ReadOps();
  const PhaseReading phases_before = ReadPhases();
  const std::uint64_t handled_before = engine.handler().tuples_delivered();
  const std::uint64_t requests_before = engine.world().total_requests_sent();
  const std::uint64_t responses_before = engine.world().total_responses();
  const std::uint64_t patches_before = engine.fabricator().route_patches();
  const std::uint64_t rebuilds_before = engine.fabricator().route_rebuilds();
  const std::uint64_t hits_before = engine.fabricator().shared_prefix_hits();

  const std::uint64_t check_rounds = CityCheckRounds(config);
  std::map<std::uint64_t, std::uint64_t> check_digests;
  const std::uint64_t start = NowNs();
  const auto deadline =
      start + static_cast<std::uint64_t>(config.seconds * 1e9);
  std::uint64_t rounds = 0;
  RoundLog round_log(clock);
  do {
    round_log.Begin(engine.handler().tuples_delivered(), checker.delivered(),
                    timings);
    if (!Check(loop.RunRound(rounds), "engine round", &result)) {
      break;
    }
    round_log.End(engine.handler().tuples_delivered(), checker.delivered(),
                  timings);
    if (++rounds == check_rounds) {
      check_digests = checker.Digests();
    }
  } while (NowNs() < deadline || rounds < check_rounds);
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  rss.SampleNow();
  Check(loop.Finish(), "engine drain", &result);
  result.attempted = loop.steps() + loop.churn_ops();

  const std::uint64_t handled =
      engine.handler().tuples_delivered() - handled_before;
  FillEndToEnd(Quantile(setup_s, 0.5), &round_log, wall_s, &timings,
               rss.PeakMb(), config.smoke, &result);
  if (!checker.Finish(CityTolerance(), 1.0, loop.steps())) {
    Fail(&result, checker.error());
  }
  std::fprintf(stderr,
               "[e2e] %llu rounds; rate tolerance applied to %zu queries, "
               "worst |D-L|/L %.4f\n",
               static_cast<unsigned long long>(rounds), checker.rate_checked(),
               checker.worst_rate_error());

  // Ledger: the engine's phase histograms against the Step() wall time.
  MetricMap& layers = result.layers;
  const PhaseReading phases = ReadPhases();
  const HistogramSnapshot world =
      HistogramDelta(phases.world, phases_before.world);
  const HistogramSnapshot handler =
      HistogramDelta(phases.handler, phases_before.handler);
  const HistogramSnapshot drain =
      HistogramDelta(phases.drain, phases_before.drain);
  const HistogramSnapshot dispatch =
      HistogramDelta(phases.dispatch, phases_before.dispatch);
  const auto steps = static_cast<double>(loop.steps());
  const double requests = static_cast<double>(
      engine.world().total_requests_sent() - requests_before);
  layers["sensing.advance_ms_per_step"].value =
      PerUnit(static_cast<double>(world.sum) / 1e6, steps);
  layers["sensing.responses_per_request"].value = PerUnit(
      static_cast<double>(engine.world().total_responses() - responses_before),
      requests);
  layers["server.handler_ms_per_step"].value =
      PerUnit(static_cast<double>(handler.sum) / 1e6, steps);
  layers["server.handler_ns_per_request"].value =
      PerUnit(static_cast<double>(handler.sum), requests);
  layers["server.requests_per_step"].value = PerUnit(requests, steps);
  layers["server.subscriptions"].value =
      static_cast<double>(engine.handler().NumSubscriptions());
  layers["core.dispatch_ms_per_step"].value =
      PerUnit(static_cast<double>(dispatch.sum) / 1e6, steps);
  layers["core.drain_ms_per_step"].value =
      PerUnit(static_cast<double>(drain.sum) / 1e6, steps);
  const double attributed = static_cast<double>(world.sum + handler.sum +
                                                drain.sum + dispatch.sum);
  layers["core.unattributed_share"].value =
      1.0 - PerUnit(attributed, static_cast<double>(timings.step_ns));
  FillOps(ops_before, ReadOps(), handled, &layers);
  const auto& f = engine.fabricator();
  layers["fabric.process_ns_per_tuple"].value =
      PerUnit(static_cast<double>(dispatch.sum), static_cast<double>(handled));
  layers["fabric.route_patches"].value =
      static_cast<double>(f.route_patches() - patches_before);
  layers["fabric.route_rebuilds"].value =
      static_cast<double>(f.route_rebuilds() - rebuilds_before);
  layers["fabric.shared_prefix_hits"].value =
      static_cast<double>(f.shared_prefix_hits() - hits_before);
  layers["fabric.operators_live"].value =
      static_cast<double>(f.TotalOperators());
  layers["fabric.materialized_cells"].value =
      static_cast<double>(f.NumMaterializedCells());
  if (spans.enabled()) {
    result.spans_json = spans.ChromeEvents(100);
  }

  // Shard-count invariance: the first rounds on a two-shard pipelined
  // engine built from the same plan must give every query the same digest.
  if (result.correct) {
    Result<CityProgram> built = BuildCityProgram(plan, 2, false);
    if (!Check(built.status(), "two-shard set-up", &result)) {
      return result;
    }
    CityProgram twin = built.MoveValue();
    DeliveryChecker twin_checker(nullptr, kCityKinds);
    SpanLog no_spans(false);
    Timings twin_timings(NowNs);
    CityLoop twin_loop(plan, &twin, &twin_checker, &no_spans, &rss,
                       &twin_timings);
    for (std::uint64_t r = 0; r < check_rounds && result.correct; ++r) {
      Check(twin_loop.RunRound(r), "two-shard round", &result);
    }
    if (result.correct && Check(twin_loop.Finish(), "two-shard drain",
                                &result)) {
      if (!twin_checker.ok()) {
        Fail(&result, "two-shard: " + twin_checker.error());
      }
      const std::string diff =
          CompareDigests(check_digests, twin_checker.Digests());
      if (!diff.empty()) {
        Fail(&result, "one vs two shards: " + diff);
      }
    }
  }
  return result;
}

RunResult RunStreamInproc(const RunConfig& config) {
  return RunStream(config, 0);
}

RunResult RunStreamSharded(const RunConfig& config) {
  return RunStream(config, 2);
}

}  // namespace e2e
