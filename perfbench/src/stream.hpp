#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"
#include "tracegen/trace.hpp"

namespace perfbench {

/// The paced `atm serve` workload: a real daemon process driven over its
/// Unix socket by two window connections (one window in flight each, boxes
/// split evenly between them) plus one `stat` connection polling every
/// 100 ms.
///
/// Set-up is timed from spawning the daemon until its first connection's
/// hello is answered, over several launches; only the last launch goes on
/// to warm-up and pacing. Warm-up windows go out unpaced and are timed
/// separately.
///
/// Pacing is an open loop: every box's paced epoch k (k = 1, 2, ...) is
/// due at t0 + k * period, the same instant for every box, and latency is
/// timed from the due time, so a stall is charged to every window queued
/// behind it.
///
/// Box b's paced epoch k carries its window W + (b mod 4) + k, where W is
/// the first epoch the daemon answers "applied" for. The daemon retrains
/// every box on the same trace epochs (epoch % retrain_every == 0), so a
/// deployment sees every fourth epoch carry all boxes' retrains at once.
/// The benchmark deliberately shifts box b by b mod 4 windows to spread the
/// retrains over the paced epochs: aligned, the latency distribution is a
/// staircase whose median sits on a step edge and jumps between seeds.
/// The aligned retrain burst is therefore not measured.
struct StreamOptions {
    std::string atm_path;    ///< the `atm` CLI binary
    std::string trace_path;  ///< atm.trace.bin.v1 file the daemon loads
    /// Pacing period P: the daemon is about a seventh busy at the baseline
    /// (about 75 ms of busy time per 32-box epoch), so a host running at
    /// half speed still keeps up instead of building a backlog.
    double period_ms = 500.0;
    double seconds = 10.0;   ///< paced phase: round(seconds / period) epochs
    /// Daemon launches timed from spawn to the first hello; the last one
    /// goes on to warm-up and the paced phase.
    int setups = 15;
    /// Passed as `--apply-delay-ms` (the daemon's test seam); 0 = off.
    double apply_delay_ms = 0.0;
};

/// One window as the generator saw it. Times are seconds since t0 (the
/// end of the last setup); warm-up windows have negative times.
struct WindowSample {
    int box = 0;
    std::uint64_t epoch = 0;
    bool paced = false;
    double due_s = 0.0;
    double sent_s = 0.0;   ///< first send
    double acked_s = 0.0;
    double rtt_ms = 0.0;   ///< last send -> ack (what a closed loop times)
    int busy = 0;          ///< busy (backpressure) answers before the ack
    std::string type;      ///< response type: "ack" or "error"
    std::string status;    ///< ack status ("applied", "warming", ...)
    int ladder = 0;
    std::vector<double> cpu;
    std::vector<double> ram;

    [[nodiscard]] double latency_ms() const { return 1e3 * (acked_s - due_s); }
    [[nodiscard]] double lag_ms() const { return 1e3 * (sent_s - due_s); }
};

struct StreamRun {
    std::vector<double> setup_s;        ///< spawn -> first hello, per launch
    double warmup_s = 0.0;              ///< last launch: hello -> every box past warm-up
    std::vector<WindowSample> windows;  ///< last session, warm-up + paced
    std::uint64_t paced_epochs = 0;
    std::vector<double> stat_rtt_ms;
    std::vector<double> stat_report_bytes;
    /// Daemon metrics ("engine" / "transport" of the stat report) at t0
    /// and after the last paced ack.
    atm::obs::MetricsSnapshot engine_start;
    atm::obs::MetricsSnapshot engine_end;
    atm::obs::MetricsSnapshot transport_end;
    double daemon_peak_rss_mb = 0.0;
    int daemon_exit_code = -1;
};

/// Runs the workload. The caller's working directory holds the socket,
/// journal and daemon log, so keep it short and private to the run.
/// Throws std::runtime_error when the daemon cannot be started or dies.
StreamRun run_stream(const atm::trace::Trace& trace, const StreamOptions& options,
                     SpanRecorder& spans);

struct Outcome;

/// The paced windows of a run, reduced: latency is due -> ack; rtt is the
/// last send -> ack (all a closed-loop client would time); a miss is a
/// window refused (busy), errored, or acked after the box's next window
/// was due.
struct PacedSummary {
    std::size_t paced = 0;
    std::size_t applied = 0;
    std::size_t misses = 0;
    std::size_t degraded = 0;  ///< acks with a non-zero shed ladder
    std::uint64_t busy = 0;    ///< busy answers, warm-up included
    double max_lag_ms = 0.0;   ///< latest send relative to its due time
    /// The daemon's busy time over the paced windows, seen from outside:
    /// its one engine thread serves windows in turn, so a window's service
    /// starts at its last send or at the previous ack, whichever is later,
    /// and ends at its ack.
    double busy_s = 0.0;
    std::vector<double> latency_ms;
    std::vector<double> rtt_ms;

    [[nodiscard]] double miss_share() const {
        return paced == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(paced);
    }
};
/// Summarizes the paced windows of paced epochs first..last (1-based).
[[nodiscard]] PacedSummary summarize_paced(const StreamRun& run, double period_ms,
                                           std::uint64_t first = 1,
                                           std::uint64_t last = UINT64_MAX);

struct StreamArgs {
    std::string atm_path;
    std::string trace_path;
    double seconds = 10.0;
    bool traced = false;
};

/// The `stream` workload: run_stream, then one in-process ServeEngine
/// replay of every window the daemon acked, which checks the acks bit for
/// bit and (traced) times every apply, journal append and protocol
/// encode/parse.
Outcome run_stream_workload(const StreamArgs& args, SpanRecorder& spans);

}  // namespace perfbench
