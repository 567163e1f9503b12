// The end-to-end benchmark of ongoingdb. One process runs one workload:
//
//   e2ebench --workload <ongoing_read|parallel_read|commit_stream|
//                        view_refresh>
//            --seed <n> --seconds <s> --trace <0|1>
//
// and prints, as the last line of stdout, one JSON object with the
// keys correct, attempted, failed and metrics: the workload's
// end-to-end metrics with --trace 0; with --trace 1 the per-layer
// metrics of a replay of every workload through the layer calls, spans
// written to .bench_out/trace_<workload>.jsonl. Reference figures go to
// stderr. See README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>

#include "harness.h"

using namespace e2ebench;

namespace {

// Every per-layer metric with its unit and the workload it is measured
// on: the one the README's per-layer table names for it. A traced run
// replays all four workloads, so that every metric is measured in it
// whichever --workload it names.
struct PerLayer {
  const char* name;
  const char* unit;
  const char* workload;
};
const PerLayer kPerLayer[] = {
    {"sql.parse_us", "us", "ongoing_read"},
    {"optimizer.optimize_us", "us", "ongoing_read"},
    {"physical.compile_us", "us", "ongoing_read"},
    {"physical.drain_ms", "ms", "ongoing_read"},
    {"physical.rows_out", "count", "ongoing_read"},
    {"physical.batches_out", "count", "ongoing_read"},
    {"index.build_ms", "ms", "ongoing_read"},
    {"index.builds_per_statement", "count", "ongoing_read"},
    {"index.candidates_per_row", "count", "ongoing_read"},
    {"kernels.ns_per_row", "ns", "ongoing_read"},
    {"exchange.drain_ms", "ms", "parallel_read"},
    {"exchange.speedup", "x", "parallel_read"},
    {"bind.ns_per_tuple", "ns", "ongoing_read"},
    {"catalog.pin_us", "us", "ongoing_read"},
    {"catalog.insert_ms", "ms", "commit_stream"},
    {"catalog.update_ms", "ms", "commit_stream"},
    {"catalog.delete_ms", "ms", "commit_stream"},
    {"catalog.master_versions", "count", "commit_stream"},
    {"catalog.gc_lag", "count", "commit_stream"},
    {"modifications.apply_us", "us", "commit_stream"},
    {"relation.copy_ms", "ms", "commit_stream"},
    {"session.overhead_us", "us", "ongoing_read"},
    {"view.delta_ms", "ms", "view_refresh"},
    {"view.recompute_ms", "ms", "view_refresh"},
    {"view.full_ms", "ms", "view_refresh"},
    {"view.delta_refreshes", "count", "view_refresh"},
    {"view.recompute_refreshes", "count", "view_refresh"},
    {"view.noop_refreshes", "count", "view_refresh"},
    {"view.pending_rows", "count", "view_refresh"},
    {"trace.overhead_us", "us", "ongoing_read"},
};

const char* const kWorkloads[] = {"ongoing_read", "parallel_read",
                                  "commit_stream", "view_refresh"};

RunResult RunWorkload(const RunOptions& opt) {
  if (opt.workload == "ongoing_read") return RunOngoingRead(opt, false);
  if (opt.workload == "parallel_read") return RunOngoingRead(opt, true);
  if (opt.workload == "commit_stream") return RunCommitStream(opt);
  return RunViewRefresh(opt);
}

/// The traced run: every workload replayed for a quarter of the run's
/// time, each per-layer metric taken from its own workload.
RunResult RunTraced(const RunOptions& opt) {
  RunResult out;
  std::map<std::string, RunResult> by_workload;
  for (const char* w : kWorkloads) {
    RunOptions sub = opt;
    sub.workload = w;
    sub.seconds = opt.seconds / std::size(kWorkloads);
    RunResult r = RunWorkload(sub);
    if (!r.correct) out.Fail(std::string(w) + ": " + r.first_error);
    if (r.failed > 0 && out.first_error.empty()) {
      out.first_error = std::string(w) + ": " + r.first_error;
    }
    out.attempted += r.attempted;
    out.failed += r.failed;
    by_workload[w] = std::move(r);
  }
  for (const PerLayer& m : kPerLayer) {
    double value = 0;
    for (const Metric& got : by_workload[m.workload].metrics) {
      if (got.name == m.name) value = got.value;
    }
    out.Put(m.name, m.unit, value);
  }
  return out;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ProcessStart();
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const std::string key = argv[i], value = argv[++i];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(kOutDir, ec);
  }

  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads)) {
    Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  const RunResult res = opt.trace ? RunTraced(opt) : RunWorkload(opt);

  if (!res.correct) {
    std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n",
                 res.first_error.c_str());
  } else if (res.failed > 0) {
    std::fprintf(stderr, "e2ebench: first failure: %s\n",
                 res.first_error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", res.metrics[i].name.c_str(),
                  res.metrics[i].value, res.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
