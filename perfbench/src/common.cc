#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"treedec.decompose_ms", "ms"},
    {"treedec.width", "count"},
    {"treedec.repairs", "count"},
    {"treedec.rebuilds", "count"},
    {"queries.lineage_us", "us"},
    {"queries.gates_added_per_lineage", "count"},
    {"circuits.gates", "count"},
    {"inference.build_ms", "ms"},
    {"inference.plans_built", "count"},
    {"inference.plan_cells", "count"},
    {"inference.execute_us", "us"},
    {"inference.dispatch_us", "us"},
    {"inference.bags_visited_per_answer", "count"},
    {"serving.queue_wait_us", "us"},
    {"serving.tasks_per_answer", "count"},
    {"serving.steals", "count"},
    {"serving.epoch_answer_us", "us"},
    {"serving.visible_p50_ms", "ms"},
    {"incremental.requery_us", "us"},
    {"incremental.bags_recomputed_per_requery", "count"},
    {"incremental.delta_share", "ratio"},
    {"incremental.insert_ms", "ms"},
    {"incremental.delete_us", "us"},
    {"incremental.publish_ms", "ms"},
    {"persist.update_us", "us"},
    {"persist.wal_bytes_per_mutation", "bytes"},
    {"persist.checkpoint_ms", "ms"},
    {"persist.checkpoint_bytes", "bytes"},
    {"persist.records_replayed", "count"},
    {"persist.replay_us_per_record", "us"},
    {"persist.recover_ms", "ms"},
    {"host.reference_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

void Output::Error(std::string what) {
  // Keep the first few; the count is what matters after that.
  if (errors.size() < 20) errors.push_back(std::move(what));
  else if (errors.size() == 20) errors.push_back("...");
}

void RunRounds(const Options& options, Tracer& tracer,
               const std::function<void(bool traced, int index)>& round) {
  const Clock::time_point start = Clock::now();
  bool ran[2] = {false, false};
  for (int index = 0;; ++index) {
    const bool traced = options.trace && index % 2 == 1;
    tracer.set_on(traced);
    round(traced, index);
    tracer.set_on(false);
    ran[traced] = true;
    const bool both = !options.trace || (ran[0] && ran[1]);
    if (both && SecondsBetween(start, Clock::now()) >= options.seconds) break;
  }
}

uint64_t StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t field = 0, steal = 0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return cpu == "cpu" ? steal : 0;
}

void Windows::Add(const std::vector<double>& latency_ms, double seconds,
                  uint64_t steal_begin, uint64_t steal_end) {
  if (latency_ms.empty() || seconds <= 0) return;
  const double cpu_ticks = seconds * static_cast<double>(sysconf(_SC_CLK_TCK)) *
                           static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  windows.push_back(Window{
      Quantile(latency_ms, 0.5), Quantile(latency_ms, 0.9),
      static_cast<double>(latency_ms.size()) / seconds,
      static_cast<double>(steal_end - steal_begin) / cpu_ticks});
}

std::vector<Windows::Window> Windows::Kept() const {
  std::vector<Window> kept = windows;
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal < b.steal;
                   });
  kept.resize((kept.size() + 1) / 2);
  return kept;
}

double Windows::MedianP50() const {
  std::vector<double> p50;
  for (const Window& w : Kept()) p50.push_back(w.p50_ms);
  return Median(p50);
}

void Windows::Report(Output* out) const {
  std::vector<double> p50, p90, per_s, steal;
  for (const Window& w : Kept()) {
    p50.push_back(w.p50_ms);
    p90.push_back(w.p90_ms);
    per_s.push_back(w.per_s);
  }
  for (const Window& w : windows) steal.push_back(w.steal);
  out->end_to_end["latency_p50_ms"] = Median(p50);
  out->end_to_end["latency_p90_ms"] = Median(p90);
  out->end_to_end["ops_per_s"] = Median(per_s);
  std::fprintf(stderr,
               "windows %zu, kept %zu; steal share median %.4f, max %.4f\n",
               windows.size(), p50.size(), Median(steal),
               Quantile(steal, 1.0));
}

void TypicalRound::Add(const std::vector<double>& latency_ms,
                       const std::vector<double>& step_ms) {
  latency_ms_.resize(std::max(latency_ms_.size(), latency_ms.size()));
  step_ms_.resize(std::max(step_ms_.size(), step_ms.size()));
  for (size_t i = 0; i < latency_ms.size(); ++i)
    if (!std::isnan(latency_ms[i])) latency_ms_[i].push_back(latency_ms[i]);
  for (size_t i = 0; i < step_ms.size(); ++i)
    step_ms_[i].push_back(step_ms[i]);
}

std::vector<double> TypicalRound::MedianLatencies() const {
  std::vector<double> medians;
  for (const std::vector<double>& samples : latency_ms_)
    if (!samples.empty()) medians.push_back(Median(samples));
  return medians;
}

double TypicalRound::MedianP50() const { return Median(MedianLatencies()); }

void TypicalRound::Report(Output* out) const {
  const std::vector<double> latency = MedianLatencies();
  double total_ms = 0;
  for (const std::vector<double>& samples : step_ms_)
    total_ms += Median(samples);
  out->end_to_end["latency_p50_ms"] = Quantile(latency, 0.5);
  out->end_to_end["latency_p90_ms"] = Quantile(latency, 0.9);
  out->end_to_end["ops_per_s"] =
      total_ms > 0 ? static_cast<double>(step_ms_.size()) / total_ms * 1e3
                   : 0.0;
  // Each round's own rate, for comparison.
  const size_t rounds = step_ms_.empty() ? 0 : step_ms_[0].size();
  std::fprintf(stderr, "rounds %zu, typical round %.1f ms; ops/s per round:",
               rounds, total_ms);
  for (size_t r = 0; r < rounds; ++r) {
    double round_ms = 0;
    for (const std::vector<double>& samples : step_ms_) round_ms += samples[r];
    std::fprintf(stderr, " %.2f",
                 static_cast<double>(step_ms_.size()) / round_ms * 1e3);
  }
  std::fprintf(stderr, "\n");
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ReferenceLoopMs() {
  std::vector<double> ms;
  volatile uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 88172645463325252ull + sink;
    double acc = 0;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 40) * 1e-9;
    }
    sink = x + static_cast<uint64_t>(acc);
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  return Median(ms);
}

std::string HostFingerprint(const std::string& revision) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         " cpu=\"" + cpu + "\" compiler=\"" PERFBENCH_COMPILER
         "\" build=" PERFBENCH_BUILD_TYPE " revision=" + revision;
}

}  // namespace perfbench
