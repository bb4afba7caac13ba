// Copyright (c) saedb authors. Licensed under the MIT license.
//
// The four workloads. Each builds its system from the generated records,
// measures for the requested seconds, checks every answer it accepts, and
// fills a Report. With Args::trace set, the run first repeats the untraced
// measurement for a half window (the tracing-overhead reference) and then
// measures the traced window whose spans feed the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"

namespace perfbench {

Report RunNetCold(const Args& args, const std::vector<Record>& data);
Report RunHotRead(const Args& args, const std::vector<Record>& data);
Report RunSaeDurableMixed(const Args& args, const std::vector<Record>& data);
Report RunTomDurableMixed(const Args& args, const std::vector<Record>& data);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
