// The benchmark workloads. Each sets itself up several times (the
// median set-up time is reported), measures for the requested seconds,
// checks every answer and the conservation laws, and fills `values` with
// the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).

#ifndef IRBENCH_WORKLOADS_H_
#define IRBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace irbench {

/// Runs `args.workload`; returns false for an unknown name.
bool RunWorkload(const Args& args, Report* report, Values* values);

}  // namespace irbench

#endif  // IRBENCH_WORKLOADS_H_
