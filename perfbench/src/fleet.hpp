#pragma once

#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// The batch workloads: `run_pipeline_on_fleet` at jobs=4 with CLI
/// defaults (CBC + MLP, ATM policy) — `fleet_mlp` as is, `fleet_dtw` with
/// the DTW search — over the workload's generated traces.
struct FleetArgs {
    std::string workload;
    std::vector<std::string> trace_paths;
    double seconds = 10.0;
    bool traced = false;
};

[[nodiscard]] bool is_fleet_workload(const std::string& name);

/// Number of generated traces a fleet workload cycles through.
[[nodiscard]] int fleet_trace_count(const std::string& workload);

Outcome run_fleet_workload(const FleetArgs& args, SpanRecorder& spans);

}  // namespace perfbench
