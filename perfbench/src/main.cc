// The benchmark's entry point: runs one named workload for a given time
// and prints every metric by name, with its unit, as the last line of
// standard output:
//
//   perfbench --workload ask|serve|maintain --seed N --seconds S
//             --trace 0|1 [--revision R] [--out DIR]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from spans recorded around the calls into the library
// (written to DIR/trace-<workload>-<seed>.json). Exits 1 if any answer
// is wrong, 2 on bad arguments.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ask|serve|maintain --seed N "
               "--seconds S --trace 0|1 [--revision R] [--out DIR]\n");
  return 2;
}

void PrintMetrics(const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  bool first = true;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name,
                std::isfinite(value) ? value : 0.0, def.unit);
    first = false;
  }
}

int Main(int argc, char** argv) {
  Options options;
  std::string revision = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--revision") {
      revision = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace)
    return Usage();
  void (*run)(const Options&, Tracer&, Output*) = nullptr;
  if (options.workload == "ask") run = RunAsk;
  if (options.workload == "serve") run = RunServe;
  if (options.workload == "maintain") run = RunMaintain;
  if (run == nullptr) return Usage();
  mkdir(options.out_dir.c_str(), 0755);

  std::printf("fingerprint %s\n", HostFingerprint(revision).c_str());
  const double reference_ms = ReferenceLoopMs();
  std::printf("host.reference_ms %.4f\n", reference_ms);
  std::fflush(stdout);

  Tracer tracer;
  Output out;
  run(options, tracer, &out);
  out.end_to_end["peak_rss_mb"] = PeakRssMb();
  out.per_layer["host.reference_ms"] = reference_ms;

  if (options.trace) {
    for (const auto& [name, t] : tracer.Summarize()) {
      std::fprintf(stderr, "span %-28s count %8llu total %10.3f ms self %10.3f ms\n",
                   name.c_str(), static_cast<unsigned long long>(t.count),
                   t.total_ms, t.self_ms);
    }
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!tracer.WriteJson(path))
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "WRONG: %s\n", e.c_str());
  const bool correct = out.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (options.trace) PrintMetrics(kPerLayer, out.per_layer);
  else PrintMetrics(kEndToEnd, out.end_to_end);
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
