// The three workloads (see README.md for what each one is and why).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

/// Ad hoc questions against two static instances through AutoEngine.
void RunAsk(const Options& options, Tracer& tracer, Output* out);
/// Prepared questions through ServingSession in a closed loop.
void RunServe(const Options& options, Tracer& tracer, Output* out);
/// Durable mutations with requeries, epochs, checkpoints and recovery.
void RunMaintain(const Options& options, Tracer& tracer, Output* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
