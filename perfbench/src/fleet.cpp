#include "fleet.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "core/fleet.hpp"
#include "host.hpp"
#include "stats.hpp"
#include "tracegen/trace_binary.hpp"

namespace perfbench {

namespace core = atm::core;

namespace {

core::ClusteringMethod method_of(const std::string& workload) {
    if (workload == "fleet_mlp") return core::ClusteringMethod::kCbc;
    if (workload == "fleet_dtw") return core::ClusteringMethod::kDtw;
    throw std::invalid_argument("unknown fleet workload '" + workload + "'");
}

/// Four workers, as on the 4-core host the workloads were sized on: a run
/// then evaluates four times the boxes a one-worker run does, and the
/// sharded scheduler is exercised. One worker was tried for fleet_mlp and
/// spread more: a single thread's speed on a shared host swung 20 % between
/// runs of one seed, and the 320 boxes a 30-s run could evaluate left a
/// further 20 % between seeds, because a box's cost grows faster than its
/// VM count.
constexpr int kJobs = 4;
constexpr int kTraces = 4;

/// Loads for the set-up measurement: enough for a stable median.
constexpr int kSetupReps = 25;

/// Boxes evaluated per trace: the first 120 gap-free ones (a 200-box trace
/// has about 140), so every seed offers the same number of boxes. They go
/// to run_pipeline_on_fleet as one request (by name). Smaller requests
/// leave workers idle at each request's tail while the last boxes finish
/// (11 % of worker time at 20 boxes), and that wait grows with every stall
/// of one worker's CPU: with 20-box requests boxes_per_s ranged 26 % over
/// four seeds on a shared host, with 120-box requests 7 %.
constexpr std::size_t kBoxesPerTrace = 120;

/// The names of the boxes the request of `trace` evaluates. A trace with
/// fewer gap-free boxes (rare) gets a shorter request.
std::vector<std::string> request_boxes(const atm::trace::Trace& trace) {
    std::vector<std::string> names;
    for (const atm::trace::BoxTrace& box : trace.boxes) {
        if (!box.has_gaps && names.size() < kBoxesPerTrace) names.push_back(box.name);
    }
    return names;
}

/// One fleet run, reduced to what the report needs.
struct Rep {
    int request = 0;  ///< index of the trace
    bool traced = false;
    bool warmup = false;  ///< the untimed first call; checked, not measured
    double wall_s = 0.0;
    std::size_t attempted = 0;
    std::size_t evaluated = 0;
    std::size_t failed = 0;
    std::size_t degraded_boxes = 0;
    std::int64_t tickets_before = 0;
    std::int64_t tickets_after = 0;
    double ape_sum = 0.0;  ///< mean_ape_all * evaluated
    std::string digest;    ///< every fleet aggregate, bit-exact
    // Traced runs only:
    atm::obs::MetricsSnapshot metrics;
    std::vector<double> box_s;
    core::FleetExecStats exec;
};

/// Bit-exact rendering of every fleet aggregate: per-policy tickets,
/// mean APEs (hex floats), box counts and failures by code.
std::string aggregate_digest(const core::FleetResult& r) {
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof buf, "boxes=%zu skipped=%zu failed=%zu ape=%a peak=%a",
                  r.boxes.size(), r.boxes_skipped, r.boxes_failed, r.mean_ape_all,
                  r.mean_ape_peak);
    out += buf;
    for (const core::FleetPolicyTotals& t : r.totals) {
        std::snprintf(buf, sizeof buf,
                      " [%d cpu %" PRId64 "->%" PRId64 " ram %" PRId64 "->%" PRId64 "]",
                      static_cast<int>(t.policy), t.cpu_before, t.cpu_after,
                      t.ram_before, t.ram_after);
        out += buf;
    }
    for (const auto& [code, n] : r.failures_by_code) {
        out += ' ';
        out += core::to_string(code);
        out += '=';
        out += std::to_string(n);
    }
    return out;
}

/// A box's time: the sum of the pipeline's own top-level stage timers.
double box_seconds(const atm::obs::MetricsSnapshot& m) {
    double s = 0.0;
    for (const auto& [name, timer] : m.timers) {
        if (name.rfind("stage.", 0) == 0) s += timer.total_seconds();
    }
    return s;
}

double timer_s(const atm::obs::MetricsSnapshot& m, const std::string& name) {
    const auto it = m.timers.find(name);
    return it == m.timers.end() ? 0.0 : it->second.total_seconds();
}

std::uint64_t timer_count(const atm::obs::MetricsSnapshot& m, const std::string& name) {
    const auto it = m.timers.find(name);
    return it == m.timers.end() ? 0 : it->second.count;
}

std::uint64_t prefix_sum(const std::map<std::string, std::uint64_t>& counters,
                         const std::string& prefix) {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : counters) {
        if (name.rfind(prefix, 0) == 0) sum += value;
    }
    return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

bool is_fleet_workload(const std::string& name) {
    return name == "fleet_mlp" || name == "fleet_dtw";
}

int fleet_trace_count(const std::string&) { return kTraces; }

Outcome run_fleet_workload(const FleetArgs& args, SpanRecorder& spans) {
    if (static_cast<int>(args.trace_paths.size()) != kTraces) {
        throw std::invalid_argument(args.workload + " needs " + std::to_string(kTraces) +
                                    " traces");
    }
    const core::ClusteringMethod method = method_of(args.workload);
    auto make_config = [&](bool collect) {
        core::FleetConfig config;  // CLI defaults: CBC + MLP, ATM policy
        config.pipeline.search.method = method;
        config.jobs = kJobs;
        config.collect_metrics = collect;
        return config;
    };
    Outcome out;
    const int root = spans.open("fleet");

    // Set-up: trace load + config validation until the fleet could start.
    std::vector<double> setup_s;
    std::vector<double> load_s;
    for (int i = 0; i < kSetupReps; ++i) {
        const int s = spans.open("setup", root, static_cast<std::uint64_t>(i));
        const Clock::time_point t0 = Clock::now();
        const atm::trace::Trace trace =
            atm::trace::read_trace_any_file(args.trace_paths.front());
        const Clock::time_point t1 = Clock::now();
        const core::FleetConfig config = make_config(false);
        const std::string problems = config.validate(trace);
        const Clock::time_point t2 = Clock::now();
        spans.add("trace.load", t0, t1, s);
        spans.add("config.validate", t1, t2, s);
        spans.close(s);
        out.check(problems.empty(), "config rejected: " + problems);
        setup_s.push_back(seconds_between(t0, t2));
        load_s.push_back(seconds_between(t0, t1));
    }

    std::vector<Rep> reps;
    auto run_rep = [&](const atm::trace::Trace& trace, int request,
                       const std::vector<std::string>& boxes, bool traced, bool warmup,
                       int parent) {
        core::FleetConfig config = make_config(traced);
        config.box_names = boxes;
        const Clock::time_point t0 = Clock::now();
        const core::FleetResult r = core::run_pipeline_on_fleet(trace, config);
        const Clock::time_point t1 = Clock::now();
        spans.add(warmup   ? "run_pipeline_on_fleet.warmup"
                  : traced ? "run_pipeline_on_fleet.traced"
                           : "run_pipeline_on_fleet",
                  t0, t1, parent, static_cast<std::uint64_t>(request));

        Rep rep;
        rep.request = request;
        rep.traced = traced;
        rep.warmup = warmup;
        rep.wall_s = seconds_between(t0, t1);
        rep.attempted = r.boxes.size();
        rep.evaluated = r.boxes_evaluated();
        rep.failed = r.boxes_failed;
        for (const core::FleetBoxResult& b : r.boxes) {
            if (!b.result.degradations.empty()) ++rep.degraded_boxes;
        }
        for (const core::FleetPolicyTotals& t : r.totals) {
            rep.tickets_before += t.cpu_before + t.ram_before;
            rep.tickets_after += t.cpu_after + t.ram_after;
        }
        rep.ape_sum = r.mean_ape_all * static_cast<double>(rep.evaluated);
        rep.digest = aggregate_digest(r);
        if (traced) {
            rep.metrics = r.metrics;
            for (const core::FleetBoxResult& b : r.boxes) {
                rep.box_s.push_back(box_seconds(b.result.metrics));
            }
            rep.exec = r.exec_stats;
        }
        reps.push_back(std::move(rep));
    };

    // Warm-up, untimed: the first request once, so the worker pool is up
    // and the allocator holds its pages before the first timed call.
    {
        const int warm = spans.open("warmup", root);
        const atm::trace::Trace trace = atm::trace::read_trace_any_file(args.trace_paths.front());
        run_rep(trace, 0, request_boxes(trace), false, true, warm);
        spans.close(warm);
    }

    // Measurement: whole passes over the traces, so each request weighs the
    // same in every statistic whatever the host's speed; a further pass only
    // when it is expected to end within the budget. A pass visits each trace
    // in turn: it loads the trace and runs its request. A traced run pairs
    // every untraced request with a traced one, alternating which goes
    // first.
    const Clock::time_point start = Clock::now();
    int passes = 0;
    for (int pass = 0;; ++pass) {
        for (int k = 0; k < kTraces; ++k) {
            const int visit = spans.open("trace", root, static_cast<std::uint64_t>(k));
            const Clock::time_point l0 = Clock::now();
            const atm::trace::Trace trace =
                atm::trace::read_trace_any_file(args.trace_paths[static_cast<std::size_t>(k)]);
            spans.add("trace.load", l0, Clock::now(), visit);
            const std::vector<std::string> boxes = request_boxes(trace);
            if (args.traced) {
                const bool traced_first = (pass + k) % 2 == 1;
                run_rep(trace, k, boxes, traced_first, false, visit);
                run_rep(trace, k, boxes, !traced_first, false, visit);
            } else {
                run_rep(trace, k, boxes, false, false, visit);
            }
            spans.close(visit);
        }
        passes = pass + 1;
        const double elapsed = seconds_between(start, Clock::now());
        if (elapsed + elapsed / passes > args.seconds) break;
    }
    spans.close(root);

    // Correctness: clean path, and every run of a request — traced or not —
    // reproduces the same aggregates bit for bit.
    constexpr std::size_t kRequests = kTraces;
    std::vector<std::string> digest_of(kRequests);
    for (const Rep& r : reps) {
        out.attempted += r.attempted;
        out.failed += r.failed;
        const std::string what = "request " + std::to_string(r.request) + ": ";
        out.check(r.failed == 0, what + std::to_string(r.failed) + " boxes failed");
        out.check(r.degraded_boxes == 0,
                  what + std::to_string(r.degraded_boxes) + " boxes took a fallback rung");
        out.check(r.evaluated == r.attempted,
                  what + std::to_string(r.evaluated) + " of " +
                      std::to_string(r.attempted) + " boxes evaluated");
        std::string& d = digest_of[static_cast<std::size_t>(r.request)];
        if (d.empty()) d = r.digest;
        out.check(d == r.digest, what + (r.traced ? "traced " : "") +
                                     "run changed the fleet aggregates: " + r.digest +
                                     " vs " + d);
        if (r.traced) {
            out.check(prefix_sum(r.metrics.counters, "robust.") == 0,
                      "robust.* counters are non-zero on the clean path");
        }
    }

    // Quality aggregates: every request once. Timings: every untraced
    // run of the whole passes.
    std::int64_t before = 0;
    std::int64_t after = 0;
    double ape_sum = 0.0;
    std::size_t evaluated = 0;
    std::size_t timed_boxes = 0;
    std::vector<double> wall_ms;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    std::vector<bool> counted(kRequests, false);
    for (const Rep& r : reps) {
        if (r.warmup) continue;
        if (r.traced) {
            traced_wall += r.wall_s;
            continue;
        }
        untraced_wall += r.wall_s;
        timed_boxes += r.evaluated;
        wall_ms.push_back(1e3 * r.wall_s);
        if (!counted[static_cast<std::size_t>(r.request)]) {
            counted[static_cast<std::size_t>(r.request)] = true;
            before += r.tickets_before;
            after += r.tickets_after;
            ape_sum += r.ape_sum;
            evaluated += r.evaluated;
        }
    }
    out.check(before > 0, "the requests saw no tickets");
    // A request delivers all of its boxes' recommendations when it ends,
    // so a box's recommendation latency is its request's wall.
    const std::string reps_note = std::to_string(wall_ms.size()) + " requests, " +
                                  std::to_string(passes) + " pass(es)";

    if (!args.traced) {
        out.add("setup_s", median(setup_s), "s", setup_s.size(),
                "trace load + FleetConfig::validate, median");
        out.add("boxes_per_s", ratio(static_cast<double>(timed_boxes), untraced_wall), "1/s",
                wall_ms.size(), "boxes evaluated / run_pipeline_on_fleet wall, " + reps_note);
        out.add("latency_p50_ms", median(wall_ms), "ms", wall_ms.size(),
                "request wall (all its recommendations arrive at its end), " + reps_note);
        out.add("latency_p90_ms", quantile(wall_ms, 0.9), "ms", wall_ms.size(),
                "request wall, p90 over requests; " + describe(summarize(wall_ms)) +
                    " (a trace is a request, so the tail is the slowest trace)");
        out.add("ontime_share",
                ratio(static_cast<double>(evaluated), static_cast<double>(evaluated) +
                                                          static_cast<double>(out.failed)),
                "ratio", evaluated, "boxes evaluated / boxes attempted (no deadline in batch)");
        out.add("ticket_reduction_pct",
                100.0 * ratio(static_cast<double>(before - after), static_cast<double>(before)),
                "%", evaluated, "ATM CPU+RAM tickets before -> after, every request once");
        out.add("mean_ape", ratio(ape_sum, static_cast<double>(evaluated)), "ratio", evaluated,
                "FleetResult::mean_ape_all, box-weighted over requests");
        out.add("peak_rss_mb", self_peak_rss_mb(), "MB", 1, "benchmark process VmHWM");
        return out;
    }

    // Traced: per-layer numbers from the first traced run of each request.
    atm::obs::MetricsSnapshot m;
    std::vector<double> box_s;
    double box_total = 0.0;
    double worker_wall = 0.0;
    int workers = 0;
    double arena_high = 0.0;
    std::fill(counted.begin(), counted.end(), false);
    for (const Rep& r : reps) {
        if (!r.traced || r.warmup || counted[static_cast<std::size_t>(r.request)]) continue;
        counted[static_cast<std::size_t>(r.request)] = true;
        m.merge(r.metrics);
        box_s.insert(box_s.end(), r.box_s.begin(), r.box_s.end());
        box_total += std::accumulate(r.box_s.begin(), r.box_s.end(), 0.0);
        worker_wall += r.exec.workers * r.wall_s;
        workers = r.exec.workers;
        arena_high = std::max(arena_high, static_cast<double>(r.exec.arena_high_water));
    }
    const auto& c = m.counters;
    auto counter = [&](const std::string& name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double search_s = timer_s(m, "stage.search");
    const double fit_s = timer_s(m, "forecast.fit.mlp");
    const double fits = static_cast<double>(timer_count(m, "forecast.fit.mlp"));
    const double example_epochs =
        ratio(counter("forecast.mlp.examples") * counter("forecast.mlp.epochs"),
              counter("forecast.mlp.fits"));
    out.add("tracegen.load_s", median(load_s), "s", load_s.size());
    out.add("search.busy_s", search_s, "s", kRequests);
    out.add("search.share", ratio(search_s, box_total), "ratio", box_s.size(),
            "stage.search / box time");
    out.add("cluster.dtw.pairs", counter("cluster.dtw.pairs"), "count");
    out.add("cluster.dtw.cells", counter("cluster.dtw.cells"), "count");
    out.add("cluster.dtw.gcells_per_s", ratio(counter("cluster.dtw.cells") / 1e9, search_s),
            "1/s", 1, "DTW cells / stage.search time");
    out.add("search.signature_share",
            ratio(counter("search.final_signatures"), counter("search.series")), "ratio");
    out.add("linalg.vif.iterations", counter("linalg.vif.iterations"), "count");
    out.add("linalg.vif.removed", counter("linalg.vif.removed"), "count");
    out.add("forecast.fit.mlp.busy_s", fit_s, "s");
    out.add("forecast.fit.mlp.share", ratio(fit_s, box_total), "ratio", box_s.size(),
            "forecast.fit.mlp / box time");
    out.add("forecast.fit.mlp.count", fits, "count");
    out.add("forecast.fit.mlp.mean_ms", 1e3 * ratio(fit_s, fits), "ms", static_cast<std::size_t>(fits));
    out.add("forecast.mlp.epochs", counter("forecast.mlp.epochs"), "count");
    out.add("forecast.mlp.examples_per_s", ratio(example_epochs, fit_s), "1/s", 1,
            "examples x mean epochs per fit / fit time");
    out.add("forecast.predict.mlp.busy_s", timer_s(m, "forecast.predict.mlp"), "s");
    out.add("spatial_fit.busy_s", timer_s(m, "stage.spatial_fit"), "s");
    out.add("robust.fallback.total",
            static_cast<double>(prefix_sum(c, "robust.fallback.")), "count");
    out.add("resize.busy_s", timer_s(m, "stage.resize"), "s");
    out.add("resize.mckp.candidates", counter("resize.mckp.candidates"), "count");
    out.add("resize.mckp.greedy_iterations", counter("resize.mckp.greedy_iterations"), "count");
    out.add("exec.workers", workers, "count");
    out.add("exec.idle_share", 1.0 - ratio(box_total, worker_wall), "ratio", 1,
            "1 - box time / (workers x wall)");
    out.add("fleet.box_s.p50", quantile(box_s, 0.5), "s", box_s.size());
    out.add("fleet.box_s.p90", quantile(box_s, 0.9), "s", box_s.size());
    out.add("fleet.box_s.max", box_s.empty() ? 0.0 : *std::max_element(box_s.begin(), box_s.end()),
            "s", box_s.size());
    out.add("exec.arena_high_water_bytes", arena_high, "bytes");
    out.add("obs.overhead_pct", 100.0 * (ratio(traced_wall, untraced_wall) - 1.0), "%",
            wall_ms.size(), "collect_metrics on vs off, paired runs");
    return out;
}

}  // namespace perfbench
