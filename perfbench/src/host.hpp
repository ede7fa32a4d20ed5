#pragma once

#include <string>
#include <sys/types.h>

#include "obs/json.hpp"

namespace perfbench {

/// What a result was measured on and with: nproc, CPU model, the active
/// SIMD kernel path, the compiler, the build type and flags our code was
/// really compiled with (not a library's), and the commit / source digest
/// the caller passes in.
[[nodiscard]] atm::obs::json::Value host_stamp(const std::string& commit,
                                               const std::string& source_digest);

/// Whole-machine CPU time counters from /proc/stat (clock ticks): all
/// states, and the part the hypervisor gave to other guests ("steal").
struct CpuTicks {
    unsigned long long total = 0;
    unsigned long long steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// Percent of CPU time stolen between two readings; shared hosts slow
/// every timing in a run by about this much.
[[nodiscard]] double steal_pct(const CpuTicks& from, const CpuTicks& to);

/// Peak resident set of this process in MB (getrusage).
[[nodiscard]] double self_peak_rss_mb();

/// VmHWM of another live process in MB, read from /proc/<pid>/status;
/// 0 when unavailable.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

}  // namespace perfbench
