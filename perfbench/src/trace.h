// In-memory spans recorded by the benchmark around its calls into the
// library: name, start, end, parent span and request id. Kept in memory
// and written out when the run ends; per-layer totals, self time and
// counts come from them. Single-threaded: only the benchmark's driving
// thread records spans.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;    ///< Index of the enclosing span, -1 for none.
    uint64_t request;  ///< Spans of one question or mutation share it.
  };
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;  ///< total minus the time child spans cover.
    uint64_t count = 0;
  };

  /// Nanoseconds since the tracer was made.
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Whether spans are recorded. Off, a Scope costs one branch.
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// A synchronous span: open from construction to destruction, nested
  /// under the innermost open Scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when the tracer is off.
    int32_t index_ = -1;
  };

  /// Records a finished span with explicit times (a request that
  /// overlapped other work, such as a queued serving request).
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  std::map<std::string, Totals> Summarize() const;

  /// Writes every span and the summary as JSON; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
