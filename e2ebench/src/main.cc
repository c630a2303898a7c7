/// \file main.cc
/// \brief End-to-end CrAQR benchmark: command line and result line.
///
///   craqr_e2e --workload <city_engine|stream_inproc|stream_sharded>
///             --seed <n> --seconds <s> --trace <0|1> [--smoke]
///             [--trace-dir <dir>]
///
/// With --trace 0 the last stdout line carries the end-to-end metrics of
/// one untraced run. With --trace 1 the same seed runs twice, each for a
/// share of --seconds, untraced and then traced (benchmark spans around
/// every public call plus the program's trace rings); the line carries the
/// per-layer ledger of the traced run and the tracing overhead between the
/// two, and the spans are written as a Chrome trace to
/// <trace-dir>/trace_<workload>_<seed>.json.
/// A stream workload's ledger also runs the other stream path, traced, on
/// the same seed: the runtime layers exist only on the sharded path, and
/// the speedup of two shards over one thread needs both.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>

#include "obs/trace.h"
#include "workloads.h"

namespace {

using e2e::RunConfig;
using e2e::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "craqr_e2e: %s\nusage: craqr_e2e --workload "
               "<city_engine|stream_inproc|stream_sharded> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-dir <dir>]\n",
               why);
  return 2;
}

RunResult Run(const std::string& workload, const RunConfig& config) {
  if (workload == "city_engine") {
    return e2e::RunCityEngine(config);
  }
  if (workload == "stream_inproc") {
    return e2e::RunStreamInproc(config);
  }
  return e2e::RunStreamSharded(config);
}

double TuplesPerS(const RunResult& r) {
  const auto it = r.end_to_end.find("tuples_per_s");
  return it == r.end_to_end.end() ? 0.0 : it->second.value;
}

/// Adds `other`'s operations and verdict to `into`.
void Merge(const RunResult& other, RunResult* into) {
  into->attempted += other.attempted;
  into->failed += other.failed;
  if (!other.correct && into->correct) {
    into->correct = false;
    into->error = other.error;
  }
  if (!other.spans_json.empty()) {
    into->spans_json +=
        (into->spans_json.empty() ? "" : ",") + other.spans_json;
  }
}

bool WriteTrace(const std::string& path, const std::string& bench_events) {
  // The program's rings as one JSON array, with the benchmark's spans
  // spliced in as a second process.
  std::string json = craqr::obs::Tracer::Global().ChromeTraceJson();
  const std::size_t close = json.rfind(']');
  if (close == std::string::npos) {
    return false;
  }
  const bool empty = json.find('{') == std::string::npos;
  json.insert(close, (empty ? "" : ",\n") + bench_events + "\n");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_dir = ".bench_out";
  RunConfig config;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-dir" && has_value) {
      trace_dir = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (workload != "city_engine" && workload != "stream_inproc" &&
      workload != "stream_sharded") {
    return Usage("unknown workload");
  }
  if (!have_seed || !have_seconds || !(config.seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  // A traced invocation splits --seconds between its phases (untraced,
  // traced, and for a stream ledger the other path traced), so it takes
  // about as long as an untraced one.
  const int phases = trace == 0 ? 1 : workload == "city_engine" ? 2 : 3;
  config.seconds /= phases;
  RunResult result = Run(workload, config);
  e2e::MetricMap metrics = result.end_to_end;
  if (trace == 1) {
    RunConfig traced = config;
    traced.traced = true;
    const RunResult base = result;
    result = Run(workload, traced);
    const double untraced_tps = TuplesPerS(base);
    result.layers["obs.trace_overhead_share"].value =
        untraced_tps > 0.0 ? 1.0 - TuplesPerS(result) / untraced_tps : 0.0;
    Merge(base, &result);
    if (workload != "city_engine") {
      const bool inproc = workload == "stream_inproc";
      const RunResult other =
          Run(inproc ? "stream_sharded" : "stream_inproc", traced);
      const RunResult& one_thread = inproc ? result : other;
      const RunResult& two_shards = inproc ? other : result;
      const double speedup =
          one_thread.wall_tuples_per_s > 0.0
              ? two_shards.wall_tuples_per_s / one_thread.wall_tuples_per_s
              : 0.0;
      for (auto& [name, metric] : result.layers) {
        if (name.rfind("runtime.", 0) == 0) {
          metric.value = two_shards.layers.at(name).value;
        }
      }
      result.layers["runtime.speedup_vs_inproc"].value = speedup;
      Merge(other, &result);
    }
    metrics = result.layers;
    mkdir(trace_dir.c_str(), 0755);
    const std::string path = trace_dir + "/trace_" + workload + "_" +
                             std::to_string(config.seed) + ".json";
    if (WriteTrace(path, result.spans_json)) {
      std::fprintf(stderr, "[e2e] trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[e2e] could not write trace %s\n", path.c_str());
    }
  }
  if (!result.correct) {
    std::fprintf(stderr, "[e2e] CHECK FAILED: %s\n", result.error.c_str());
  }
  if (result.attempted == 0) {
    result.attempted = 1;
    ++result.failed;
  }
  std::printf("%s\n", e2e::ResultJson(result.correct, result.attempted,
                                      result.failed, metrics)
                          .c_str());
  return 0;
}
