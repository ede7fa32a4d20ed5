#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "linalg/simd/simd.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

}  // namespace

atm::obs::json::Value host_stamp(const std::string& commit,
                                 const std::string& source_digest) {
    namespace json = atm::obs::json;
    json::Value v = json::Value::make_object();
    v.set("nproc", json::Value::of(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
    v.set("cpu", json::Value::of(cpu_model()));
    v.set("simd_path", json::Value::of(atm::simd::to_string(atm::simd::active_path())));
    v.set("compiler", json::Value::of(PERFBENCH_COMPILER));
    v.set("build_type", json::Value::of(PERFBENCH_BUILD_TYPE));
    v.set("cxx_flags", json::Value::of(PERFBENCH_CXX_FLAGS));
#ifdef __OPTIMIZE__
    v.set("optimized", json::Value::of(true));
#else
    v.set("optimized", json::Value::of(false));
#endif
#ifdef NDEBUG
    v.set("ndebug", json::Value::of(true));
#else
    v.set("ndebug", json::Value::of(false));
#endif
    v.set("commit", json::Value::of(commit));
    v.set("source_digest", json::Value::of(source_digest));
    return v;
}

CpuTicks read_cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    CpuTicks t;
    in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
    for (int field = 0; field < 8 && in; ++field) {
        unsigned long long v = 0;
        in >> v;
        t.total += v;
        if (field == 7) t.steal = v;
    }
    return t;
}

double steal_pct(const CpuTicks& from, const CpuTicks& to) {
    const unsigned long long total = to.total - from.total;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(to.steal - from.steal) /
                            static_cast<double>(total);
}

double self_peak_rss_mb() {
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_peak_rss_mb(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  123 kB"
        }
    }
    return 0.0;
}

}  // namespace perfbench
