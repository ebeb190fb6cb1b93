// Benchmark harness: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --pins <pins.txt> --work_dir <dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set, measured untraced; with --trace 1 they are the per-layer
// set, and the spans recorded around the public calls are written to
// <work_dir>/spans-<workload>-<seed>.json. A per-layer metric of a layer the
// workload bypasses reads 0. perfbench/README.md documents the workloads.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0. Per workload family:
//   op_time_us     sim_*: paired call wall time per simulated user
//                  (1e6 / users_per_s); serve_*: median request latency
//                  from its intended send time to its decoded response.
//   cpu_us_per_op  sim_*: process user+sys CPU per simulated user;
//                  serve_*: server-thread CPU per answered request.
constexpr MetricDef kEndToEnd[] = {
    {"op_time_us", "us"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mib", "MiB"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    // Simulator layers.
    {"core.pad_ms", "ms"},
    {"core.baseline_ms", "ms"},
    {"core.simulate_ms", "ms"},
    {"core.event_digest_ms", "ms"},
    {"core.events", "count"},
    {"overbook.dispatched", "count"},
    {"overbook.replication", "ratio"},
    {"overbook.billed_per_dispatch", "ratio"},
    {"auction.sold", "count"},
    {"auction.billed", "count"},
    {"auction.violated", "count"},
    {"auction.excess_displays", "count"},
    {"trace.generate_ms", "ms"},
    {"auction.campaign_stream_ms", "ms"},
    {"trace.sessions", "count"},
    {"apps.slots", "count"},
    {"radio.transfers_pad", "count"},
    {"radio.transfers_baseline", "count"},
    {"core.cache_hit_rate", "ratio"},
    {"core.fallback_fetches", "count"},
    {"core.market_ms_p50", "ms"},
    {"core.market_ms_max", "ms"},
    {"core.checkpoint_append_ms", "ms"},
    {"core.checkpoint_bytes", "bytes"},
    {"core.fold_ms", "ms"},
    {"common.scheduler.workers_used", "count"},
    {"common.scheduler.tasks_stolen", "count"},
    {"common.scheduler.busy_imbalance", "ratio"},
    // Serving layers.
    {"serve.wire.decode_ns", "ns"},
    {"serve.session_adapter.decide_ns", "ns"},
    {"serve.wire.encode_ns", "ns"},
    {"serve.reactor_us_per_req", "us"},
    {"serve.ad_server.served", "count"},
    {"serve.ad_server.accepted", "count"},
    {"serve.ad_server.backpressure_pauses", "count"},
    {"serve.session_adapter.create_ms", "ms"},
    {"serve.session_adapter.bundle_share", "ratio"},
    {"serve.session_adapter.ads_per_resp", "ratio"},
    {"serve.load.late_us_p50", "us"},
    {"serve.load.late_us_max", "us"},
    {"serve.p99_us", "us"},
    {"serve.p999_us", "us"},
    {"serve.samples", "count"},
    {"serve.p99_tail_samples", "count"},
    {"serve.p999_tail_samples", "count"},
    // The traced run's own end-to-end figures and the tracing overhead
    // (traced minus untraced, both measured in the same run).
    {"traced.op_time_us", "us"},
    {"traced.cpu_us_per_op", "us"},
    {"traced.setup_s", "s"},
    {"tracing.overhead_op_time_us", "us"},
    {"tracing.overhead_cpu_us_per_op", "us"},
    {"tracing.spans", "count"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <sim_bigmarket|sim_stream|serve_open|serve_churn>"
               " --seed <n> --seconds <s> --trace <0|1> --pins <file> --work_dir <dir>\n";
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--pins") {
      options.pins_path = value;
    } else if (flag == "--work_dir") {
      options.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage("bad number for " + flag + ": " + value);
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || options.pins_path.empty()) {
    Usage("--workload, --pins and --work_dir are required");
  }
  if (!(options.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return options;
}

// Chrome trace-event JSON: one complete ("X") event per span, grouped into
// rows by call id.
void WriteSpans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  const std::vector<Span>& spans = tracer.spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.call
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// Per span name: count, total and self time (duration minus the union of
// its children's intervals).
void PrintSpanSummary(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  struct Row {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, reach);
      const int64_t hi = std::min(end, spans[i].end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    Row& row = rows[spans[i].name];
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++row.count;
    row.total_ms += static_cast<double>(duration) * 1e-6;
    row.self_ms += static_cast<double>(duration - covered) * 1e-6;
  }
  std::printf("spans: %zu recorded, %lld dropped\n", spans.size(),
              static_cast<long long>(tracer.dropped()));
  for (const auto& [name, row] : rows) {
    std::printf("  span %-36s count %8lld  total %12.3f ms  self %12.3f ms\n", name.c_str(),
                static_cast<long long>(row.count), row.total_ms, row.self_ms);
  }
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

bool LookupPin(const std::string& path, const std::string& workload, uint64_t seed_class,
               SimDigests* out) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    uint64_t pinned_class = 0;
    if (!(fields >> name >> pinned_class) || name != workload || pinned_class != seed_class) {
      continue;
    }
    fields >> std::hex >> out->pad >> out->baseline >> out->events;
    return !fields.fail();
  }
  return false;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions options = ParseArgs(argc, argv);

  // Per-request spans of the serving workloads dominate the capacity.
  Tracer tracer(options.trace, size_t{1} << 22);
  RunResult result;
  if (options.workload == "sim_bigmarket") {
    result = RunSimBigMarket(options, tracer);
  } else if (options.workload == "sim_stream") {
    result = RunSimStream(options, tracer);
  } else if (options.workload == "serve_open") {
    result = RunServeOpen(options, tracer);
  } else if (options.workload == "serve_churn") {
    result = RunServeChurn(options, tracer);
  } else {
    Usage("unknown workload " + options.workload);
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (options.trace) {
    result.metrics["tracing.spans"] = static_cast<double>(tracer.spans().size());
    PrintSpanSummary(tracer);
    WriteSpans(tracer, options.work_dir + "/spans-" + options.workload + "-" +
                           std::to_string(options.seed) + ".json");
  }

  std::string metrics;
  auto emit = [&](const MetricDef& def, double value) {
    metrics += (metrics.empty() ? "" : ", ");
    metrics += std::string("\"") + def.name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + def.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      const auto it = result.metrics.find(def.name);
      emit(def, it == result.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const auto it = result.metrics.find(def.name);
      if (it == result.metrics.end()) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n", def.name);
        return 1;
      }
      emit(def, it->second);
    }
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
