// Tests of the benchmark itself: the percentile helper, and the paced
// load generator's handling of a stall (via the daemon's --apply-delay-ms
// test seam). Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/arg_parser.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/trace_binary.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

void test_percentiles() {
    expect(quantile({1, 2, 3, 4}, 0.5) == 2.5, "quantile interpolates between order statistics");
    expect(quantile({}, 0.5) == 0.0, "quantile of nothing is 0");

    const TailPercentile t1000 = highest_supported_percentile(one_to(1000));
    expect(t1000.pct == 99.0 && t1000.samples == 1000,
           "1000 samples support p99 (10 beyond it), count reported");
    expect(std::abs(t1000.value - quantile(one_to(1000), 0.99)) < 1e-12,
           "the reported value is that percentile");
    expect(highest_supported_percentile(one_to(999)).pct == 90.0,
           "999 samples leave 9.99 beyond p99, so p90 is the highest");
    expect(highest_supported_percentile(one_to(10000)).pct == 99.9,
           "10000 samples support p99.9");
    expect(highest_supported_percentile(one_to(20)).pct == 50.0, "20 samples support p50");
    const TailPercentile t19 = highest_supported_percentile(one_to(19));
    expect(t19.pct == 0.0 && t19.value == 19.0, "19 samples support nothing; the max is reported");

    const LatencySummary s = summarize(one_to(2000));
    expect(s.p99_supported && s.samples == 2000 && s.p50 == quantile(one_to(2000), 0.5),
           "summarize: p50, supported p99 and sample count");
    const LatencySummary few = summarize(one_to(500));
    expect(!few.p99_supported && few.p99 == 500.0, "summarize: unsupported p99 falls back to max");
}

struct StallReading {
    double p50_ms = 0.0;
    double rtt_p50_ms = 0.0;
    double miss_share = 0.0;
    double max_lag_ms = 0.0;
    double capacity = 0.0;  ///< windows applied per second of daemon busy time
};

StallReading paced_run(const std::string& atm, const std::string& trace_path,
                       const atm::trace::Trace& trace, double apply_delay_ms) {
    StreamOptions opt;
    opt.atm_path = atm;
    opt.trace_path = trace_path;
    opt.period_ms = 20.0;
    opt.seconds = 3.0;
    opt.setups = 1;
    opt.apply_delay_ms = apply_delay_ms;
    SpanRecorder spans(false);
    const StreamRun run = run_stream(trace, opt, spans);
    const PacedSummary p = summarize_paced(run, opt.period_ms);
    StallReading r;
    r.p50_ms = median(p.latency_ms);
    r.rtt_p50_ms = median(p.rtt_ms);
    r.miss_share = p.miss_share();
    r.max_lag_ms = p.max_lag_ms;
    r.capacity = static_cast<double>(p.applied) / p.busy_s;
    std::printf("     apply delay %4.0f ms: window p50 %8.2f ms, closed-loop p50 %6.2f ms, "
                "miss share %.3f, generator lag max %8.2f ms, capacity %7.1f/s "
                "(%zu windows)\n",
                apply_delay_ms, r.p50_ms, r.rtt_p50_ms, r.miss_share, r.max_lag_ms,
                r.capacity, p.paced);
    return r;
}

/// Two boxes, one per window connection, paced every 20 ms: the daemon
/// keeps up unstalled, and falls behind when each apply sleeps 15 ms
/// (2 x 15 ms of work per 20 ms period). The open loop must show it.
void test_stall(const std::string& atm, const std::string& dir) {
    atm::trace::TraceGenOptions gen;
    gen.num_boxes = 2;
    gen.num_days = 3;
    gen.gappy_box_fraction = 0.0;
    const std::string path = (std::filesystem::path(dir) / "stall.bin").string();
    atm::trace::write_trace_binary_file(path, atm::trace::generate_trace(gen));
    const atm::trace::Trace trace = atm::trace::read_trace_any_file(path);

    const StallReading base = paced_run(atm, path, trace, 0.0);
    const StallReading stall = paced_run(atm, path, trace, 15.0);
    expect(stall.p50_ms > base.p50_ms + 100.0, "a stall raises the window p50");
    expect(stall.miss_share > base.miss_share + 0.3, "a stall raises the miss share");
    expect(stall.max_lag_ms > base.max_lag_ms + 100.0, "a stall raises the generator lag");
    expect(stall.p50_ms - base.p50_ms > 5.0 * (stall.rtt_p50_ms - base.rtt_p50_ms),
           "timing from send (a closed loop) would hide most of the stall");
    expect(stall.capacity <= 1000.0 / 15.0 && stall.capacity > 0.5 * 1000.0 / 15.0,
           "the busy-time estimate puts a 15 ms apply under, and near, 1000/15 windows/s");
    expect(base.capacity > 2.0 * stall.capacity, "without the stall the capacity is higher");
}

}  // namespace

int main(int argc, char** argv) {
    atm::exec::ArgParser parser("perfbench_selftest", "tests of the benchmark itself");
    parser.option("atm", "", "path of the atm CLI")
        .option("dir", ".", "scratch directory (socket, journal, trace)");
    try {
        if (!parser.parse(argc, argv, 1)) return 0;
        test_percentiles();
        if (parser.get("atm").empty()) {
            expect(false, "--atm is required for the stall test");
        } else {
            const std::string atm = std::filesystem::absolute(parser.get("atm")).string();
            std::filesystem::current_path(parser.get("dir"));
            test_stall(atm, ".");
        }
    } catch (const std::exception& e) {
        expect(false, std::string("exception: ") + e.what());
    }
    std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
    return g_failures == 0 ? 0 : 1;
}
