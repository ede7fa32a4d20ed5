#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

/// One reported metric: value, unit, and how many samples it summarizes.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note;
};

/// Everything one workload run produces.
struct Outcome {
    std::vector<Metric> metrics;
    /// Failed correctness checks (empty = correct).
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(std::string name, double value, std::string unit,
             std::size_t samples = 1, std::string note = "") {
        metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                                 std::move(note)});
    }
    /// Records a failed check when `ok` is false.
    void check(bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    }
};

/// Prints the metric table, the failed checks, a `stamp` line, and, as the
/// last line, the result object {"correct","attempted","failed","metrics"}.
void print_report(const std::string& workload, const Outcome& outcome,
                  const atm::obs::json::Value& stamp);

}  // namespace perfbench
