// What every workload shares: run options, the metric tables, the round
// loop, statistics and host facts.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< Trace files, session dirs.
};

/// What a workload hands back: operation counts, failed checks, and the
/// metrics it measured. Per-layer metrics it does not exercise are left
/// out and reported as 0.
struct Output {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< Wrong answers; any fails the run.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  void Error(std::string what);
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The metrics BENCHMARK.json declares, in its order.
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

/// Runs `round(traced, index)` until `options.seconds` have passed since
/// the first round began, and at least once. In a traced run, rounds
/// alternate untraced and traced (the tracer is switched accordingly),
/// and at least one of each runs.
void RunRounds(const Options& options, Tracer& tracer,
               const std::function<void(bool traced, int index)>& round);

/// CPU time the hypervisor took from this machine so far, in ticks (the
/// steal column of /proc/stat); 0 where it cannot be read.
uint64_t StealTicks();

/// End-to-end figures per window of a timed phase (a window is a fixed
/// number of consecutive operations). On a shared virtual machine the
/// hypervisor takes CPUs away in bursts ("steal"), which stalls the
/// program without being its cost. So each window also records the
/// steal during it, and the run reports, for each figure, the median
/// over the half of its windows with the least steal.
struct Windows {
  struct Window {
    double p50_ms, p90_ms, per_s;
    double steal;  ///< Share of the machine's CPU time stolen.
  };
  std::vector<Window> windows;
  /// One window: its operations' latencies, its wall time, and the
  /// StealTicks() at its start and end.
  void Add(const std::vector<double>& latency_ms, double seconds,
           uint64_t steal_begin, uint64_t steal_end);
  /// latency_p50_ms, latency_p90_ms and ops_per_s into `out`.
  void Report(Output* out) const;
  /// Median p50 over the kept windows (for the tracing overhead).
  double MedianP50() const;

 private:
  std::vector<Window> Kept() const;
};

/// End-to-end figures of a workload whose rounds make the same
/// operations in the same order. The typical round takes, for each
/// operation, the median over the rounds of its latency and of its step
/// (its start to the next operation's start, so that the work between
/// operations, such as publishes and checkpoints, is counted). A stall
/// of one operation in one round moves one sample of that operation,
/// not a round's total; a slowdown that covers most rounds still shows.
struct TypicalRound {
  /// One round: per operation, its latency (NaN if it failed) and step.
  void Add(const std::vector<double>& latency_ms,
           const std::vector<double>& step_ms);
  /// latency_p50_ms and latency_p90_ms over the typical round's
  /// latencies, and ops_per_s = operations / the sum of its steps.
  void Report(Output* out) const;
  /// p50 of the typical round's latencies (for the tracing overhead).
  double MedianP50() const;

 private:
  std::vector<double> MedianLatencies() const;
  std::vector<std::vector<double>> latency_ms_, step_ms_;  // [op][round]
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Percent by which `traced` exceeds `untraced`.
inline double OverheadPct(double traced, double untraced) {
  return untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
}

/// Process high-water mark of resident memory, in MB.
double PeakRssMb();

/// Median wall time, in ms, of a fixed arithmetic loop that calls no
/// library code: it moves with the host, not with the program.
double ReferenceLoopMs();

/// nproc, CPU model, compiler, build type and source revision.
std::string HostFingerprint(const std::string& revision);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
