// Benchmark driver. Two subcommands, both run from run.py:
//
//   perfbench_driver gen --workload W --seed S --dir D
//       writes the workload's generated traces (atm.trace.bin.v1) into D
//   perfbench_driver run --workload W --dir D --seconds T --trace 0|1 ...
//       runs the workload on them and prints the metric table, a stamp
//       line and, last, the result object
//
// The traces are generated in their own process so that neither the
// generator's time nor its memory is charged to the workload.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "exec/arg_parser.hpp"
#include "exec/seed.hpp"
#include "fleet.hpp"
#include "host.hpp"
#include "report.hpp"
#include "stream.hpp"
#include "tracegen/generator.hpp"
#include "tracegen/trace_binary.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

/// The batch traces: the ROADMAP baseline size (200 boxes x 7 days).
constexpr int kFleetBoxes = 200;
constexpr int kFleetDays = 7;
/// The stream trace: 32 boxes x 6 days (two days of warm-up, then
/// pacing), every box with 10 VMs (the paper's average consolidation) and
/// a hot VM, so that each seed offers the daemon about the same work.
constexpr int kStreamBoxes = 32;
constexpr int kStreamDays = 6;
constexpr int kStreamVmsPerBox = 10;

/// Trace k of a workload: the workload seed itself for k = 0, so the
/// default seed reproduces the baseline trace; splitmix64-derived after.
std::uint64_t trace_seed(std::uint64_t seed, int k) {
    return k == 0 ? seed : atm::exec::derive_seed(seed, static_cast<std::uint64_t>(k));
}

std::vector<std::string> trace_paths(const std::string& workload, const std::string& dir) {
    std::vector<std::string> paths;
    if (is_fleet_workload(workload)) {
        for (int k = 0; k < fleet_trace_count(workload); ++k) {
            paths.push_back((fs::path(dir) / ("fleet-" + std::to_string(k) + ".bin")).string());
        }
    } else if (workload == "stream") {
        paths.push_back((fs::path(dir) / "stream.bin").string());
    } else {
        throw atm::exec::ArgParseError("unknown --workload '" + workload +
                                       "' (expected fleet_mlp|fleet_dtw|stream)");
    }
    return paths;
}

int cmd_gen(int argc, char** argv) {
    atm::exec::ArgParser parser("perfbench_driver gen", "write a workload's traces");
    parser.option("workload", "fleet_mlp", "fleet_mlp|fleet_dtw|stream")
        .option("seed", "20150403", "workload seed")
        .option("dir", ".", "output directory");
    if (!parser.parse(argc, argv, 2)) return 0;
    const std::string workload = parser.get("workload");
    const std::vector<std::string> paths = trace_paths(workload, parser.get("dir"));
    for (std::size_t k = 0; k < paths.size(); ++k) {
        atm::trace::TraceGenOptions options;  // the ROADMAP baseline's generator
        options.num_boxes = kFleetBoxes;
        options.num_days = kFleetDays;
        if (workload == "stream") {
            options.num_boxes = kStreamBoxes;
            options.num_days = kStreamDays;
            options.mean_vms_per_box = kStreamVmsPerBox;
            options.min_vms_per_box = kStreamVmsPerBox;
            options.max_vms_per_box = kStreamVmsPerBox;
            options.hot_box_fraction = 1.0;
            options.gappy_box_fraction = 0.0;
        }
        options.seed = trace_seed(parser.get_u64("seed"), static_cast<int>(k));
        atm::trace::write_trace_binary_file(paths[k], atm::trace::generate_trace(options));
        std::printf("%s\n", paths[k].c_str());
    }
    return 0;
}

int cmd_run(int argc, char** argv) {
    atm::exec::ArgParser parser("perfbench_driver run", "run one workload");
    parser.option("workload", "fleet_mlp", "fleet_mlp|fleet_dtw|stream")
        .option("dir", ".", "directory holding the generated traces (and scratch)")
        .option("seconds", "10", "measurement budget")
        .option("trace", "0", "1 = traced run (per-layer metrics)")
        .option("atm", "", "path of the atm CLI (stream)")
        .option("spans-out", "", "traced run: write spans here")
        .option("commit", "unknown", "commit under test (stamp)")
        .option("source-digest", "unknown", "digest of the sources under test (stamp)");
    if (!parser.parse(argc, argv, 2)) return 0;
    const std::string workload = parser.get("workload");
    const bool traced = parser.get_int("trace") != 0;
    std::vector<std::string> paths = trace_paths(workload, parser.get("dir"));
    for (std::string& p : paths) p = fs::absolute(p).string();
    std::string spans_out = parser.get("spans-out");
    if (!spans_out.empty()) spans_out = fs::absolute(spans_out).string();
    std::string atm_path = parser.get("atm");
    if (!atm_path.empty()) atm_path = fs::absolute(atm_path).string();

    // Everything the run writes (socket, journals, daemon log) goes into
    // the scratch directory; relative names keep the socket path short.
    fs::current_path(parser.get("dir"));

    const CpuTicks ticks_start = read_cpu_ticks();
    SpanRecorder spans(traced);
    Outcome outcome;
    if (is_fleet_workload(workload)) {
        FleetArgs args;
        args.workload = workload;
        args.trace_paths = paths;
        args.seconds = parser.get_double("seconds");
        args.traced = traced;
        outcome = run_fleet_workload(args, spans);
    } else {
        if (atm_path.empty()) throw atm::exec::ArgParseError("stream needs --atm");
        StreamArgs args;
        args.atm_path = atm_path;
        args.trace_path = paths.front();
        args.seconds = parser.get_double("seconds");
        args.traced = traced;
        outcome = run_stream_workload(args, spans);
    }
    if (traced) {
        std::printf("%-32s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
        for (const auto& [name, t] : spans.totals()) {
            std::printf("%-32s %8zu %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                        t.self_s);
        }
        if (!spans_out.empty()) spans.write_json(spans_out);
    }
    atm::obs::json::Value stamp = host_stamp(parser.get("commit"), parser.get("source-digest"));
    stamp.set("steal_pct", atm::obs::json::Value::of(steal_pct(ticks_start, read_cpu_ticks())));
    print_report(workload, outcome, stamp);
    return outcome.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "gen") return cmd_gen(argc, argv);
        if (cmd == "run") return cmd_run(argc, argv);
        std::fprintf(stderr, "usage: perfbench_driver gen|run [--help]\n");
        return 2;
    } catch (const atm::exec::ArgParseError& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
