#pragma once

#include <span>
#include <vector>

#include "linalg/flat_matrix.hpp"

namespace atm::ts {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Population variance (divides by n); 0 for spans shorter than 1.
double variance(std::span<const double> xs);

/// Population standard deviation.
double stddev(std::span<const double> xs);

/// Pairwise Pearson correlation matrix of equal-length series: the
/// spatial-dependency measure of the paper (Section II's intra/inter
/// correlations, CBC's ρ in Section III-A) and the serve daemon's drift
/// statistic. Each series is centred once (x̄ = sequential sum ÷ n,
/// s = √(Σ(x−x̄)²/n)) and each pair once: ρ = (Σ(x−x̄)(y−ȳ)/n) / (s_x·s_y).
/// A series whose samples are all equal has no defined correlation and
/// gets ρ = 0 with every other series. The diagonal is 1. Throws
/// std::invalid_argument on unequal lengths.
la::FlatMatrix correlation_matrix(
    std::span<const std::span<const double>> series);
la::FlatMatrix correlation_matrix(
    const std::vector<std::vector<double>>& series);

/// Pearson's correlation coefficient between two equal-length spans: the
/// two-series case of correlation_matrix (0 when either is constant).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Smallest / largest element; 0 for an empty span.
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

/// Linear-interpolated empirical quantile, q in [0, 1].
/// q=0 -> min, q=0.5 -> median, q=1 -> max. 0 for an empty span.
double quantile(std::span<const double> xs, double q);

/// Median (quantile at 0.5).
double median(std::span<const double> xs);

/// Five-number-plus summary used by the paper's box plots
/// (Fig. 6/7 show 25th/50th/75th percentiles, mean, and extremes).
struct Summary {
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    std::size_t count = 0;
};
Summary summarize(std::span<const double> xs);

/// Mean absolute percentage error between actual and fitted values, as a
/// fraction (0.20 == 20%). Matches the paper's footnote-3 definition
/// APE = |Actual - Fitting| / Actual, averaged over samples; samples whose
/// actual value is below `eps` are skipped to avoid division blow-up.
double mean_absolute_percentage_error(std::span<const double> actual,
                                      std::span<const double> fitted,
                                      double eps = 1e-9);

}  // namespace atm::ts
