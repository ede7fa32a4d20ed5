#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile of `values` for p in [0, 1], linear interpolation between
/// order statistics (the "type 7" rule). Empty input gives 0.
[[nodiscard]] double quantile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

/// The tail percentile a sample set can support: the highest entry of
/// the ladder 50, 90, 99, 99.9, 99.99 with at least `min_beyond` samples
/// above it, i.e. n * (1 - pct/100) >= min_beyond. `pct` is 0 when even
/// the median has fewer (then `value` is the sample maximum).
struct TailPercentile {
    double pct = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
};
[[nodiscard]] TailPercentile highest_supported_percentile(
    const std::vector<double>& values, std::size_t min_beyond = 10);

/// Median, p90, p99 (only when supported by >= 10 samples beyond it,
/// else the maximum) and the highest supported percentile of one latency
/// series.
struct LatencySummary {
    std::size_t samples = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    bool p99_supported = false;
    TailPercentile tail;
};
[[nodiscard]] LatencySummary summarize(const std::vector<double>& values);

/// "p99 (n=1776, 17 beyond)"-style description for the report table.
[[nodiscard]] std::string describe(const LatencySummary& summary);

}  // namespace perfbench
