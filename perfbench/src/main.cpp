// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <absentee_drill|compas_drill>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Progress goes to stderr. The last line on stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run attaches the benchmark's span tracer and reports per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <absentee_drill|compas_drill> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               message);
  std::exit(2);
}

perfbench::Args ParseArgs(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed wants an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0.0) Usage("--seconds wants a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace wants 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = ParseArgs(argc, argv);
  perfbench::Tracer tracer;
  perfbench::Tracer* traced = args.trace ? &tracer : nullptr;
  perfbench::Outcome out;
  if (args.workload == "absentee_drill") {
    perfbench::RunAbsenteeDrill(args, traced, &out);
  } else if (args.workload == "compas_drill") {
    perfbench::RunCompasDrill(args, traced, &out);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  const int64_t attempted = out.checks.attempted();
  const int64_t failed = out.checks.failed();
  if (!args.trace) {
    out.metrics.Set("ok_frac",
                    attempted > 0 ? static_cast<double>(attempted - failed) / attempted : 0.0,
                    "frac");
    out.metrics.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  } else {
    // Where the traced run spent its time, layer by layer.
    std::fprintf(stderr, "%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, entry] : tracer.Totals()) {
      std::fprintf(stderr, "%-34s %8lld %12.4f %12.4f\n", name.c_str(),
                   static_cast<long long>(entry.count), entry.total_seconds, entry.self_seconds);
    }
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }
  const bool correct = attempted > 0 && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), out.metrics.Json().c_str());
  return 0;
}
