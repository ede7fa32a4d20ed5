#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(p, 0.0, 1.0) *
                       static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

TailPercentile highest_supported_percentile(const std::vector<double>& values,
                                            std::size_t min_beyond) {
    static constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
    TailPercentile out;
    out.samples = values.size();
    const auto n = static_cast<double>(values.size());
    for (const double pct : kLadder) {
        // The small epsilon keeps e.g. 1000 * (1 - 0.99) = 9.9999... at 10.
        if (n * (1.0 - pct / 100.0) + 1e-9 >= static_cast<double>(min_beyond)) {
            out.pct = pct;
        }
    }
    out.value = out.pct > 0.0
                    ? quantile(values, out.pct / 100.0)
                    : (values.empty() ? 0.0
                                      : *std::max_element(values.begin(),
                                                          values.end()));
    return out;
}

LatencySummary summarize(const std::vector<double>& values) {
    LatencySummary s;
    s.samples = values.size();
    if (values.empty()) return s;
    s.p50 = quantile(values, 0.5);
    s.p90 = quantile(values, 0.9);
    s.tail = highest_supported_percentile(values);
    s.p99_supported = s.tail.pct >= 99.0;
    s.p99 = s.p99_supported ? quantile(values, 0.99)
                            : *std::max_element(values.begin(), values.end());
    return s;
}

std::string describe(const LatencySummary& s) {
    char buf[160];
    if (s.tail.pct > 0.0) {
        const double beyond =
            static_cast<double>(s.samples) * (1.0 - s.tail.pct / 100.0);
        std::snprintf(buf, sizeof buf, "n=%zu, highest supported p%g (%.0f beyond)",
                      s.samples, s.tail.pct, std::floor(beyond + 1e-9));
    } else {
        std::snprintf(buf, sizeof buf, "n=%zu, too few for a percentile; max",
                      s.samples);
    }
    return buf;
}

}  // namespace perfbench
