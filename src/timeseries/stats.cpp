#include "timeseries/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace atm::ts {

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    if (xs.size() < 1) return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

la::FlatMatrix correlation_matrix(
    std::span<const std::span<const double>> series) {
    const std::size_t k = series.size();
    const std::size_t n = k == 0 ? 0 : series[0].size();
    la::FlatMatrix centred(k, n);
    std::vector<double> scale(k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
        const std::span<const double> xs = series[i];
        if (xs.size() != n) {
            throw std::invalid_argument("correlation_matrix: unequal series lengths");
        }
        const double m = mean(xs);
        double* c = centred[i].data();
        double sq = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            c[t] = xs[t] - m;
            sq += c[t] * c[t];
        }
        // An exactly constant series can centre to a nonzero residue when
        // its mean rounds; test the samples, not the spread.
        const bool constant = std::all_of(
            xs.begin(), xs.end(), [&](double x) { return x == xs[0]; });
        if (!constant) scale[i] = std::sqrt(sq / static_cast<double>(n));
    }
    la::FlatMatrix rho(k, k, 1.0);
    for (std::size_t i = 0; i < k; ++i) {
        const double* ci = centred[i].data();
        for (std::size_t j = i + 1; j < k; ++j) {
            double r = 0.0;
            if (!(scale[i] <= 0.0 || scale[j] <= 0.0)) {
                const double* cj = centred[j].data();
                double acc = 0.0;
                for (std::size_t t = 0; t < n; ++t) acc += ci[t] * cj[t];
                r = acc / static_cast<double>(n) / (scale[i] * scale[j]);
            }
            rho(i, j) = r;
            rho(j, i) = r;
        }
    }
    return rho;
}

la::FlatMatrix correlation_matrix(
    const std::vector<std::vector<double>>& series) {
    const std::vector<std::span<const double>> views(series.begin(),
                                                     series.end());
    return correlation_matrix(views);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
    const std::span<const double> pair[] = {xs, ys};
    return correlation_matrix(pair)(0, 1);
}

double min_value(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
    if (xs.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
    Summary s;
    s.count = xs.size();
    if (xs.empty()) return s;
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    auto at = [&](double q) {
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const auto lo = static_cast<std::size_t>(std::floor(pos));
        const auto hi = static_cast<std::size_t>(std::ceil(pos));
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    };
    s.min = sorted.front();
    s.max = sorted.back();
    s.p25 = at(0.25);
    s.median = at(0.5);
    s.p75 = at(0.75);
    s.mean = mean(xs);
    s.stddev = stddev(xs);
    return s;
}

double mean_absolute_percentage_error(std::span<const double> actual,
                                      std::span<const double> fitted,
                                      double eps) {
    assert(actual.size() == fitted.size());
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (std::abs(actual[i]) < eps) continue;
        acc += std::abs(actual[i] - fitted[i]) / std::abs(actual[i]);
        ++n;
    }
    return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

}  // namespace atm::ts
