#include "stream.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/fleet_journal.hpp"
#include "exec/journal.hpp"
#include "host.hpp"
#include "obs/json.hpp"
#include "report.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"
#include "tracegen/trace_binary.hpp"

extern char** environ;

namespace perfbench {

namespace serve = atm::serve;

namespace {

constexpr const char* kSocket = "serve.sock";
constexpr const char* kJournal = "serve.jnl";
constexpr const char* kDaemonLog = "daemon.log";
constexpr int kConnectTimeoutMs = 30000;
constexpr int kWindowConnections = 2;
constexpr double kStatEveryMs = 100.0;
/// The CLI's default --retrain-every: box b starts pacing b mod kStagger
/// windows after box 0, spreading the retrains over the cadence.
constexpr int kStagger = 4;

/// A spawned `atm serve` process. The destructor SIGKILLs and reaps it if
/// it is still running, so no daemon outlives the benchmark.
class DaemonProcess {
  public:
    explicit DaemonProcess(const std::vector<std::string>& args) {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                         O_RDONLY, 0);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, kDaemonLog,
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
        std::vector<char*> argv;
        for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                                   environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            throw std::runtime_error("cannot start " + args[0] + ": " +
                                     std::strerror(rc));
        }
    }
    ~DaemonProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status = 0;
            ::waitpid(pid_, &status, 0);
        }
    }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    [[nodiscard]] pid_t pid() const { return pid_; }

    /// False once the process has exited (it is then reaped).
    bool running() {
        int status = 0;
        if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
        return pid_ > 0;
    }

    /// Waits up to `timeout_s` for a clean exit; returns the exit code, or
    /// -1 after killing a process that did not exit (or died on a signal).
    int wait(double timeout_s) {
        const Clock::time_point deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_s));
        while (pid_ > 0) {
            int status = 0;
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            if (Clock::now() > deadline) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return -1;  // the destructor kills and reaps
    }

  private:
    pid_t pid_ = -1;
};

/// Span/window id: box in the high 32 bits, epoch in the low.
std::uint64_t window_id(int box, std::uint64_t epoch) {
    return (static_cast<std::uint64_t>(box) << 32) | (epoch & 0xffffffffull);
}

/// The samples of `box`'s window `epoch`, as sent on the wire.
serve::WindowUpdate window_update(const atm::trace::Trace& trace, int box,
                                  std::uint64_t epoch) {
    serve::WindowUpdate u;
    u.box_index = box;
    u.epoch = epoch;
    for (const atm::trace::VmTrace& vm : trace.boxes[static_cast<std::size_t>(box)].vms) {
        u.cpu.push_back(vm.cpu_demand_ghz.values()[epoch]);
        u.ram.push_back(vm.ram_demand_gb.values()[epoch]);
    }
    return u;
}

/// Rolling-window length the daemon runs with (`--train-days`). At 2 days
/// the window is full as soon as a box leaves warm-up (which needs 2 days
/// of samples), so every paced window costs what it costs in a long-running
/// daemon. At the CLI default of 5 days the window, and with it the
/// examples of every retrain, would grow by about 60 % over the paced
/// phase, and the latency of a block would depend on where it sits in it.
constexpr int kTrainDays = 2;

/// The ServeConfig `atm serve --train-days 2` runs with (plus an optional
/// journal). `atm serve` picks CBC; ServeConfig's own default search is
/// DTW. The remaining ServeConfig defaults equal the CLI's.
serve::ServeConfig serve_config(const std::string& journal_path = "") {
    serve::ServeConfig config;
    config.pipeline.search.method = atm::core::ClusteringMethod::kCbc;
    config.pipeline.temporal = atm::forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.train_days = kTrainDays;
    config.journal_path = journal_path;
    return config;
}

/// Generator-side record with absolute times (converted to t0-relative
/// seconds once t0 is known).
struct Pending {
    WindowSample sample;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point acked;
};

/// Runs `fn` on its own thread, capturing the first exception so the
/// caller can rethrow it after joining.
class Worker {
  public:
    template <typename Fn>
    Worker(std::exception_ptr& error, std::mutex& error_mutex, Fn fn)
        : thread_([&error, &error_mutex, fn = std::move(fn)]() mutable {
              try {
                  fn();
              } catch (...) {
                  const std::lock_guard<std::mutex> lock(error_mutex);
                  if (!error) error = std::current_exception();
              }
          }) {}
    ~Worker() { thread_.join(); }
    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

  private:
    std::thread thread_;
};

/// Runs fn(0) .. fn(n - 1) on n threads; rethrows the first exception
/// after all have ended.
template <typename Fn>
void for_each_connection(int n, Fn fn) {
    std::exception_ptr error;
    std::mutex error_mutex;
    {
        std::vector<std::unique_ptr<Worker>> workers;
        for (int c = 0; c < n; ++c) {
            workers.push_back(std::make_unique<Worker>(error, error_mutex, [&fn, c] { fn(c); }));
        }
    }
    if (error) std::rethrow_exception(error);
}

/// Sends one window and waits for its ack, re-sending after each busy
/// answer with the daemon's retry-after hint.
void send_window(serve::ServeClient& client, const atm::trace::Trace& trace,
                 int box, std::uint64_t epoch, Pending& p) {
    const serve::WindowUpdate update = window_update(trace, box, epoch);
    const std::string& name = trace.boxes[static_cast<std::size_t>(box)].name;
    p.sample.box = box;
    p.sample.epoch = epoch;
    p.sent = Clock::now();
    while (true) {
        const Clock::time_point attempt = Clock::now();
        serve::Response r = client.window(name, epoch, update.cpu, update.ram);
        p.acked = Clock::now();
        p.sample.rtt_ms = 1e3 * seconds_between(attempt, p.acked);
        if (r.type == "busy") {
            ++p.sample.busy;
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(r.retry_after_ms));
            continue;
        }
        p.sample.type = r.type;
        p.sample.status = r.status;
        p.sample.ladder = r.ladder;
        p.sample.cpu = std::move(r.cpu);
        p.sample.ram = std::move(r.ram);
        return;
    }
}

/// Connects the first client of a freshly spawned daemon. The socket file
/// is polled every 100 us rather than left to ServeClient::connect, whose
/// 20 ms retry sleep would round the set-up time to its step.
serve::ServeClient connect_first(DaemonProcess& daemon) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kConnectTimeoutMs);
    while (!std::filesystem::exists(kSocket)) {
        if (!daemon.running()) throw std::runtime_error("daemon exited before listening");
        if (Clock::now() > deadline) throw std::runtime_error("daemon never listened");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return serve::ServeClient::connect(kSocket, kConnectTimeoutMs);
}

struct StatReading {
    atm::obs::MetricsSnapshot engine;
    atm::obs::MetricsSnapshot transport;
    std::size_t bytes = 0;
};

StatReading read_stat(serve::ServeClient& client) {
    const serve::Response r = client.stat();
    if (r.type != "stat") {
        throw std::runtime_error("stat request answered '" + r.type + "': " +
                                 r.message);
    }
    const atm::obs::json::Value report = atm::obs::json::parse(r.metrics_json);
    StatReading out;
    out.engine = atm::obs::json::snapshot_from_json(report.at("engine"));
    out.transport = atm::obs::json::snapshot_from_json(report.at("transport"));
    out.bytes = r.metrics_json.size();
    return out;
}

}  // namespace

StreamRun run_stream(const atm::trace::Trace& trace, const StreamOptions& opt,
                     SpanRecorder& spans) {
    const int num_boxes = static_cast<int>(trace.boxes.size());
    const int conns = std::clamp(kWindowConnections, 1, std::max(1, num_boxes));
    const std::uint64_t length = trace.boxes.empty() ? 0 : trace.boxes.front().length();
    std::vector<std::vector<int>> boxes_of(static_cast<std::size_t>(conns));
    for (int b = 0; b < num_boxes; ++b) {
        boxes_of[static_cast<std::size_t>(b * conns / num_boxes)].push_back(b);
    }
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(opt.period_ms));

    std::vector<std::string> args = {opt.atm_path, "serve", opt.trace_path,
                                     "--socket", kSocket, "--journal", kJournal,
                                     "--train-days", std::to_string(kTrainDays)};
    if (opt.apply_delay_ms > 0.0) {
        args.push_back("--apply-delay-ms");
        args.push_back(std::to_string(opt.apply_delay_ms));
    }

    StreamRun run;
    const int root = spans.open("stream");
    for (int setup = 0;; ++setup) {
        std::filesystem::remove(kJournal);
        std::filesystem::remove(kSocket);
        const int setup_span = spans.open("setup", root, static_cast<std::uint64_t>(setup));
        const Clock::time_point launch = Clock::now();
        DaemonProcess daemon(args);
        serve::ServeClient stat_client = connect_first(daemon);
        const Clock::time_point ready = Clock::now();
        spans.close(setup_span);
        run.setup_s.push_back(seconds_between(launch, ready));
        if (setup + 1 < opt.setups) {
            stat_client.shutdown();
            if (daemon.wait(30.0) != 0) {
                throw std::runtime_error("daemon did not exit cleanly after setup");
            }
            continue;
        }

        std::vector<serve::ServeClient> clients;
        for (int c = 0; c < conns; ++c) {
            clients.push_back(serve::ServeClient::connect(kSocket, kConnectTimeoutMs));
        }

        // Warm-up, unpaced: each connection sends epoch after epoch until
        // every one of its boxes has been answered "applied" once (epoch W).
        // Box b then runs on to W + (b mod kStagger), so the boxes enter the
        // paced phase with their retrain cadences out of phase.
        std::vector<std::vector<Pending>> sent(static_cast<std::size_t>(conns));
        const int warm_span = spans.open("warmup", root);
        auto send_unpaced = [&](int c, int box, std::uint64_t e) {
            Pending p;
            send_window(clients[static_cast<std::size_t>(c)], trace, box, e, p);
            p.due = p.sent;
            spans.add("client.window", p.sent, p.acked, warm_span, window_id(box, e));
            if (p.sample.type != "ack") {
                throw std::runtime_error("warm-up window answered '" + p.sample.type + "'");
            }
            sent[static_cast<std::size_t>(c)].push_back(std::move(p));
            return sent[static_cast<std::size_t>(c)].back().sample.status == "applied";
        };
        std::vector<std::uint64_t> applied_at(static_cast<std::size_t>(conns), 0);
        for_each_connection(conns, [&](int c) {
            for (std::uint64_t e = 0; e < length; ++e) {
                bool all_applied = true;
                for (const int box : boxes_of[static_cast<std::size_t>(c)]) {
                    all_applied = send_unpaced(c, box, e) && all_applied;
                }
                if (all_applied) {
                    applied_at[static_cast<std::size_t>(c)] = e;
                    return;
                }
            }
            throw std::runtime_error("boxes never left warm-up");
        });
        const std::uint64_t warm_epoch = *std::max_element(applied_at.begin(), applied_at.end());
        std::vector<std::uint64_t> last_warm(static_cast<std::size_t>(num_boxes));
        for (int b = 0; b < num_boxes; ++b) {
            last_warm[static_cast<std::size_t>(b)] =
                warm_epoch + static_cast<std::uint64_t>(b % kStagger);
        }
        for_each_connection(conns, [&](int c) {
            for (std::uint64_t e = applied_at[static_cast<std::size_t>(c)] + 1;; ++e) {
                bool any = false;
                for (const int box : boxes_of[static_cast<std::size_t>(c)]) {
                    if (e <= last_warm[static_cast<std::size_t>(box)]) {
                        send_unpaced(c, box, e);
                        any = true;
                    }
                }
                if (!any) return;
            }
        });
        spans.close(warm_span);
        run.warmup_s = seconds_between(ready, Clock::now());
        run.engine_start = read_stat(stat_client).engine;
        const Clock::time_point t0 = Clock::now();

        // Paced phase.
        const auto wanted = static_cast<std::uint64_t>(
            std::max(1.0, std::round(opt.seconds * 1e3 / opt.period_ms)));
        const std::uint64_t warm_end = *std::max_element(last_warm.begin(), last_warm.end());
        if (warm_end + 1 >= length) throw std::runtime_error("trace too short to pace");
        run.paced_epochs = std::min(wanted, length - 1 - warm_end);
        const int paced_span = spans.open("paced", root);
        const Clock::time_point t_end =
            t0 + period * static_cast<long>(run.paced_epochs);
        // Threads 0..conns-1 send windows; thread `conns` polls stat.
        for_each_connection(conns + 1, [&](int c) {
            if (c == conns) {
                const auto every = std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(kStatEveryMs));
                for (std::uint64_t k = 1;; ++k) {
                    const Clock::time_point due = t0 + every * static_cast<long>(k);
                    if (due >= t_end) return;
                    std::this_thread::sleep_until(due);
                    const Clock::time_point begin = Clock::now();
                    const StatReading s = read_stat(stat_client);
                    const Clock::time_point end = Clock::now();
                    spans.add("client.stat", begin, end, paced_span, k);
                    run.stat_rtt_ms.push_back(1e3 * seconds_between(begin, end));
                    run.stat_report_bytes.push_back(static_cast<double>(s.bytes));
                }
            }
            auto& client = clients[static_cast<std::size_t>(c)];
            for (std::uint64_t k = 1; k <= run.paced_epochs; ++k) {
                const Clock::time_point due = t0 + period * static_cast<long>(k);
                for (const int box : boxes_of[static_cast<std::size_t>(c)]) {
                    const std::uint64_t e = last_warm[static_cast<std::size_t>(box)] + k;
                    std::this_thread::sleep_until(due);
                    Pending p;
                    p.due = due;
                    send_window(client, trace, box, e, p);
                    p.sample.paced = true;
                    const int w =
                        spans.add("window", due, p.acked, paced_span, window_id(box, e));
                    spans.add("client.window", p.sent, p.acked, w, window_id(box, e));
                    sent[static_cast<std::size_t>(c)].push_back(std::move(p));
                }
            }
        });
        spans.close(paced_span);

        const StatReading end = read_stat(stat_client);
        run.engine_end = end.engine;
        run.transport_end = end.transport;
        run.daemon_peak_rss_mb = process_peak_rss_mb(daemon.pid());
        const int shutdown_span = spans.open("shutdown", root);
        stat_client.shutdown();
        run.daemon_exit_code = daemon.wait(30.0);
        spans.close(shutdown_span);

        for (auto& per_conn : sent) {
            for (Pending& p : per_conn) {
                p.sample.due_s = seconds_between(t0, p.due);
                p.sample.sent_s = seconds_between(t0, p.sent);
                p.sample.acked_s = seconds_between(t0, p.acked);
                run.windows.push_back(std::move(p.sample));
            }
        }
        break;
    }
    spans.close(root);
    return run;
}

// ---------------------------------------------------------------------------
// The stream workload: generator run + in-process replay + metrics.

namespace {

constexpr int kLoadReps = 5;
/// The paced phase is summarized in this many consecutive blocks of
/// epochs, and the timings report the median block: a slow spell of the
/// host shorter than half the phase then moves them little.
constexpr std::uint64_t kBlocks = 8;

enum class WindowKind { kWarming, kPlain, kRetrain, kSearch };

struct Replayed {
    serve::ApplyOutcome outcome;
    WindowKind kind = WindowKind::kPlain;
    double apply_ms = 0.0;
    double append_ms = 0.0;
    std::size_t record_bytes = 0;
};

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Windows of the session in the order they were sent (each box's
/// windows stay in epoch order).
std::vector<const WindowSample*> in_send_order(const StreamRun& run) {
    std::vector<const WindowSample*> order;
    for (const WindowSample& w : run.windows) order.push_back(&w);
    std::stable_sort(order.begin(), order.end(),
                     [](const WindowSample* a, const WindowSample* b) {
                         return a->sent_s < b->sent_s;
                     });
    return order;
}

/// Ticket and prediction-error totals of the daemon's engine between two
/// `stat` readings, from its own serve.tickets.* counters and serve.ape
/// histogram.
struct Quality {
    double before = 0.0;
    double after = 0.0;
    double ape_sum = 0.0;
    std::uint64_t ape_n = 0;

    void add_delta(const atm::obs::MetricsSnapshot& from, const atm::obs::MetricsSnapshot& to) {
        auto delta = [&](const char* name) {
            return static_cast<double>(to.counter(name) - from.counter(name));
        };
        before += delta("serve.tickets.cpu.before") + delta("serve.tickets.ram.before");
        after += delta("serve.tickets.cpu.after") + delta("serve.tickets.ram.after");
        const auto t = to.histograms.find("serve.ape");
        if (t == to.histograms.end()) return;
        ape_sum += t->second.sum;
        ape_n += t->second.count;
        if (const auto f = from.histograms.find("serve.ape"); f != from.histograms.end()) {
            ape_sum -= f->second.sum;
            ape_n -= f->second.count;
        }
    }
};

/// The replay that checks the daemon: one journaled engine applies the
/// session's windows in send order. Every apply is timed and labelled by
/// the engine's own search/retrain counters moving across the call; each
/// applied window's journal record is appended (and timed) to a second
/// journal through exec::JournalWriter.
std::vector<Replayed> replay(const atm::trace::Trace& trace,
                                   const std::vector<const WindowSample*>& order,
                                   SpanRecorder& spans) {
    std::filesystem::remove("replay.jnl");
    serve::ServeEngine engine(trace, serve_config("replay.jnl"));
    atm::exec::JournalWriter journal =
        atm::exec::JournalWriter::create("append.jnl", "perfbench append timing");
    std::vector<Replayed> out(order.size());
    const int root = spans.open("replay");
    for (std::size_t i = 0; i < order.size(); ++i) {
        const WindowSample& w = *order[i];
        const serve::WindowUpdate update = window_update(trace, w.box, w.epoch);
        const atm::obs::MetricsSnapshot& m = engine.metrics();
        const std::uint64_t searches = m.counter("serve.search.runs");
        const std::uint64_t retrains =
            m.counter("serve.retrain.warm") + m.counter("serve.retrain.cold");
        const Clock::time_point t0 = Clock::now();
        Replayed& r = out[i];
        r.outcome = engine.apply(update);
        const Clock::time_point t1 = Clock::now();
        r.apply_ms = 1e3 * seconds_between(t0, t1);
        const std::uint64_t id = window_id(w.box, w.epoch);
        spans.add("engine.apply", t0, t1, root, id);
        if (r.outcome.status != serve::ApplyStatus::kApplied) {
            r.kind = WindowKind::kWarming;
            continue;
        }
        const bool searched = m.counter("serve.search.runs") != searches;
        const bool retrained = m.counter("serve.retrain.warm") +
                                   m.counter("serve.retrain.cold") !=
                               retrains;
        r.kind = searched ? WindowKind::kSearch
                          : (retrained ? WindowKind::kRetrain : WindowKind::kPlain);
        atm::core::ServeEpochRecord record;
        record.box_index = w.box;
        record.epoch = w.epoch;
        record.ladder = r.outcome.ladder;
        record.searched = searched;
        record.retrained = retrained ? 1 : 0;
        record.attempts = r.outcome.attempts;
        record.cpu = r.outcome.cpu;
        record.ram = r.outcome.ram;
        const std::string payload = atm::core::encode_epoch_record(record);
        const Clock::time_point a0 = Clock::now();
        journal.append(payload);
        const Clock::time_point a1 = Clock::now();
        spans.add("journal.append", a0, a1, root, id);
        r.append_ms = 1e3 * seconds_between(a0, a1);
        r.record_bytes = atm::exec::frame_journal_record(payload).size();
    }
    spans.close(root);
    journal.close();
    return out;
}

/// Mean per-call microseconds of `fn` over `n` calls.
template <typename Fn>
double per_call_us(std::size_t n, SpanRecorder& spans, const char* name, Fn fn) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    const Clock::time_point t1 = Clock::now();
    spans.add(name, t0, t1, SpanRecorder::kNoParent, n);
    return n == 0 ? 0.0 : 1e6 * seconds_between(t0, t1) / static_cast<double>(n);
}

double sum_of(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

}  // namespace

PacedSummary summarize_paced(const StreamRun& run, double period_ms, std::uint64_t first,
                             std::uint64_t last) {
    PacedSummary p;
    std::vector<const WindowSample*> by_ack;
    for (const WindowSample& w : run.windows) {
        p.busy += static_cast<std::uint64_t>(w.busy);
        if (!w.paced) continue;
        const auto k = static_cast<std::uint64_t>(std::llround(1e3 * w.due_s / period_ms));
        if (k < first || k > last) continue;
        by_ack.push_back(&w);
        ++p.paced;
        const bool ok = w.type == "ack" && w.status == "applied";
        if (ok) {
            ++p.applied;
            p.latency_ms.push_back(w.latency_ms());
            p.rtt_ms.push_back(w.rtt_ms);
        }
        if (!ok || w.busy > 0 || w.latency_ms() > period_ms) ++p.misses;
        if (w.ladder != 0) ++p.degraded;
        p.max_lag_ms = std::max(p.max_lag_ms, w.lag_ms());
    }
    std::sort(by_ack.begin(), by_ack.end(), [](const WindowSample* a, const WindowSample* b) {
        return a->acked_s < b->acked_s;
    });
    double previous_ack = -1e300;
    for (const WindowSample* w : by_ack) {
        const double last_send = w->acked_s - w->rtt_ms / 1e3;
        p.busy_s += w->acked_s - std::max(last_send, previous_ack);
        previous_ack = w->acked_s;
    }
    return p;
}

Outcome run_stream_workload(const StreamArgs& args, SpanRecorder& spans) {
    Outcome out;
    std::vector<double> load_s;
    atm::trace::Trace trace;
    for (int i = 0; i < kLoadReps; ++i) {
        const Clock::time_point t0 = Clock::now();
        trace = atm::trace::read_trace_any_file(args.trace_path);
        const Clock::time_point t1 = Clock::now();
        spans.add("trace.load", t0, t1, SpanRecorder::kNoParent, static_cast<std::uint64_t>(i));
        load_s.push_back(seconds_between(t0, t1));
    }

    StreamOptions options;
    options.atm_path = args.atm_path;
    options.trace_path = args.trace_path;
    options.seconds = args.seconds;
    const StreamRun run = run_stream(trace, options, spans);

    // Correctness: every ack must equal an in-process replay, bit for bit.
    const std::vector<const WindowSample*> order = in_send_order(run);
    const std::vector<Replayed> replayed = replay(trace, order, spans);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const WindowSample& w = *order[i];
        const serve::ApplyOutcome& o = replayed[i].outcome;
        if (w.type != "ack" || w.status != serve::to_string(o.status) ||
            w.ladder != o.ladder || !same_doubles(w.cpu, o.cpu) ||
            !same_doubles(w.ram, o.ram)) {
            ++mismatches;
        }
    }
    out.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                   std::to_string(order.size()) +
                                   " daemon acks differ from the in-process replay");
    out.check(run.daemon_exit_code == 0,
              "daemon exited with " + std::to_string(run.daemon_exit_code));
    const atm::obs::MetricsSnapshot& end = run.engine_end;
    std::uint64_t fallbacks = 0;
    for (const auto& [name, value] : end.counters) {
        if (name.rfind("serve.degraded.", 0) == 0 || name.rfind("serve.retry.", 0) == 0 ||
            name.rfind("robust.", 0) == 0 || name == "serve.resize.fallback" ||
            name == "serve.forecast.nonfinite" || name == "serve.sanitize.bad_samples") {
            fallbacks += value;
        }
    }
    out.check(fallbacks == 0, "degradation/retry/fallback counters are non-zero");

    const PacedSummary p = summarize_paced(run, options.period_ms);
    const std::size_t paced = p.paced;
    const std::size_t applied = p.applied;
    out.attempted = paced;
    out.failed = paced - applied;
    out.check(out.failed == 0, std::to_string(out.failed) + " paced windows not applied");
    const LatencySummary lat = summarize(p.latency_ms);

    if (!args.traced) {
        Quality quality;
        quality.add_delta(run.engine_start, run.engine_end);
        out.check(quality.before > 0.0 && quality.ape_n > 0,
                  "the paced phase produced no tickets or APE samples");
        std::vector<double> block_rate;
        std::vector<double> block_p50;
        std::vector<double> block_p90;
        const std::uint64_t blocks = std::min(kBlocks, run.paced_epochs);
        for (std::uint64_t b = 0; b < blocks; ++b) {
            const PacedSummary s = summarize_paced(run, options.period_ms,
                                                   1 + b * run.paced_epochs / blocks,
                                                   (b + 1) * run.paced_epochs / blocks);
            block_rate.push_back(s.busy_s > 0.0 ? static_cast<double>(s.applied) / s.busy_s
                                                : 0.0);
            block_p50.push_back(quantile(s.latency_ms, 0.5));
            block_p90.push_back(quantile(s.latency_ms, 0.9));
        }
        const std::string per_block = ", median of " + std::to_string(blocks) + " blocks";
        out.add("setup_s", median(run.setup_s), "s", run.setup_s.size(),
                "daemon spawn -> first hello answered, median of launches");
        out.add("boxes_per_s", median(block_rate), "1/s", applied,
                "paced box-windows applied / daemon busy time seen from outside" + per_block);
        out.add("latency_p50_ms", median(block_p50), "ms", lat.samples, "due -> ack" + per_block);
        out.add("latency_p90_ms", median(block_p90), "ms", lat.samples,
                "due -> ack" + per_block + "; whole phase " + describe(lat) + ": " +
                    std::to_string(lat.tail.value) + " ms");
        out.add("ontime_share", 1.0 - p.miss_share(),
                "ratio", paced, "not refused/errored and acked before the next window was due");
        out.add("ticket_reduction_pct",
                quality.before > 0.0
                    ? 100.0 * (quality.before - quality.after) / quality.before
                    : 0.0,
                "%", static_cast<std::size_t>(quality.before),
                "daemon serve.tickets.* over the paced phase");
        out.add("mean_ape",
                quality.ape_n > 0 ? quality.ape_sum / static_cast<double>(quality.ape_n) : 0.0,
                "ratio", quality.ape_n, "daemon serve.ape over the paced phase");
        out.add("peak_rss_mb", run.daemon_peak_rss_mb, "MB", 1, "daemon VmHWM");
        return out;
    }

    // Traced: per-layer numbers from the timed replay and the generator.
    std::vector<double> apply_paced;
    std::vector<double> plain;
    std::vector<double> retrain;
    std::vector<double> search;
    std::vector<double> append;
    std::vector<double> overhead;
    std::vector<double> box_ms(trace.boxes.size(), 0.0);
    double record_bytes = 0.0;
    double total_apply = 0.0;
    double paced_apply = 0.0;
    double paced_retrain = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const Replayed& r = replayed[i];
        total_apply += r.apply_ms;
        box_ms[static_cast<std::size_t>(order[i]->box)] += r.apply_ms;
        if (order[i]->paced) {
            paced_apply += r.apply_ms;
            if (r.kind == WindowKind::kRetrain) paced_retrain += r.apply_ms;
        }
        if (r.kind == WindowKind::kWarming) continue;
        (r.kind == WindowKind::kSearch ? search
                                       : r.kind == WindowKind::kRetrain ? retrain : plain)
            .push_back(r.apply_ms);
        append.push_back(r.append_ms);
        record_bytes += static_cast<double>(r.record_bytes);
        if (order[i]->paced) {
            apply_paced.push_back(r.apply_ms);
            overhead.push_back(order[i]->rtt_ms - r.apply_ms);
        }
    }
    std::vector<double> box_s;
    for (const double ms : box_ms) box_s.push_back(ms / 1e3);

    // Protocol: encode/parse every paced window and its ack once.
    std::vector<const WindowSample*> paced_windows;
    std::vector<const Replayed*> paced_replay;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i]->paced) {
            paced_windows.push_back(order[i]);
            paced_replay.push_back(&replayed[i]);
        }
    }
    const std::size_t n = paced_windows.size();
    std::vector<serve::WindowUpdate> updates;
    for (const WindowSample* w : paced_windows) updates.push_back(window_update(trace, w->box, w->epoch));
    std::vector<std::string> requests(n);
    std::vector<std::string> acks(n);
    std::size_t parsed = 0;
    const double encode_window_us = per_call_us(n, spans, "protocol.encode_window", [&](std::size_t i) {
        requests[i] = serve::encode_window(trace.boxes[static_cast<std::size_t>(updates[i].box_index)].name,
                                           updates[i].epoch, updates[i].cpu, updates[i].ram);
    });
    const double parse_request_us = per_call_us(n, spans, "protocol.parse_request", [&](std::size_t i) {
        parsed += serve::parse_request(requests[i]).cpu.size();
    });
    const double encode_ack_us = per_call_us(n, spans, "protocol.encode_ack", [&](std::size_t i) {
        acks[i] = serve::encode_ack(paced_replay[i]->outcome);
    });
    const double parse_response_us = per_call_us(n, spans, "protocol.parse_response", [&](std::size_t i) {
        parsed += serve::parse_response(acks[i]).cpu.size();
    });
    out.check(parsed > 0, "protocol round trip parsed nothing");

    const auto& c = end.counters;
    auto counter = [&](const std::string& name) {
        const auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double fit_s = (sum_of(retrain) + sum_of(search)) / 1e3;
    const double fits = counter("forecast.mlp.fits");
    const LatencySummary apply = summarize(apply_paced);
    const LatencySummary retrain_s = summarize(retrain);
    const LatencySummary append_s = summarize(append);
    const auto windows_applied = static_cast<double>(append.size());
    double queue_peak = 0.0;
    if (const auto it = run.transport_end.gauges.find("transport.queue.peak");
        it != run.transport_end.gauges.end()) {
        queue_peak = it->second;
    }
    out.add("tracegen.load_s", median(load_s), "s", load_s.size());
    out.add("serve.warmup_s", run.warmup_s, "s", 1,
            "first hello -> every box past warm-up (unpaced)");
    out.add("search.busy_s", sum_of(search) / 1e3, "s", search.size(),
            "apply time of windows that ran a signature search");
    out.add("search.share", total_apply > 0.0 ? sum_of(search) / total_apply : 0.0, "ratio");
    out.add("cluster.dtw.pairs", counter("cluster.dtw.pairs"), "count");
    out.add("cluster.dtw.cells", counter("cluster.dtw.cells"), "count");
    out.add("search.signature_share",
            counter("search.series") > 0 ? counter("search.final_signatures") / counter("search.series") : 0.0,
            "ratio");
    out.add("linalg.vif.iterations", counter("linalg.vif.iterations"), "count");
    out.add("linalg.vif.removed", counter("linalg.vif.removed"), "count");
    out.add("forecast.fit.mlp.busy_s", fit_s, "s", retrain.size() + search.size(),
            "apply time of windows that fit models (search + retrain)");
    out.add("forecast.fit.mlp.share", total_apply > 0.0 ? 1e3 * fit_s / total_apply : 0.0, "ratio");
    out.add("forecast.fit.mlp.count", fits, "count");
    out.add("forecast.fit.mlp.mean_ms", fits > 0.0 ? 1e3 * fit_s / fits : 0.0, "ms");
    out.add("forecast.mlp.epochs", counter("forecast.mlp.epochs"), "count");
    out.add("forecast.mlp.examples_per_s",
            fit_s > 0.0 && fits > 0.0
                ? counter("forecast.mlp.examples") * counter("forecast.mlp.epochs") / fits / fit_s
                : 0.0,
            "1/s");
    out.add("robust.fallback.total", static_cast<double>(fallbacks), "count");
    out.add("resize.mckp.candidates", counter("resize.mckp.candidates"), "count");
    out.add("resize.mckp.greedy_iterations", counter("resize.mckp.greedy_iterations"), "count");
    out.add("fleet.box_s.p50", quantile(box_s, 0.5), "s", box_s.size(), "per-box apply time");
    out.add("fleet.box_s.p90", quantile(box_s, 0.9), "s", box_s.size());
    out.add("fleet.box_s.max", box_s.empty() ? 0.0 : *std::max_element(box_s.begin(), box_s.end()),
            "s", box_s.size());
    out.add("serve.apply_ms.p50", apply.p50, "ms", apply.samples, "paced windows");
    out.add("serve.apply_ms.p99", apply.p99, "ms", apply.samples, describe(apply));
    out.add("serve.apply_ms.plain.p50", median(plain), "ms", plain.size());
    out.add("serve.apply_ms.retrain.p50", retrain_s.p50, "ms", retrain_s.samples);
    out.add("serve.apply_ms.retrain.p99", retrain_s.p99, "ms", retrain_s.samples, describe(retrain_s));
    out.add("serve.apply_ms.retrain_share", paced_apply > 0.0 ? paced_retrain / paced_apply : 0.0,
            "ratio", apply.samples, "retrain windows' share of paced ServeEngine::apply time");
    out.add("serve.apply_ms.search.max",
            search.empty() ? 0.0 : *std::max_element(search.begin(), search.end()), "ms",
            search.size());
    out.add("serve.retrain.warm", counter("serve.retrain.warm"), "count");
    out.add("serve.retrain.cold", counter("serve.retrain.cold"), "count");
    out.add("serve.search.runs", counter("serve.search.runs"), "count");
    out.add("serve.degraded.windows", static_cast<double>(p.degraded), "count");
    out.add("journal.append_ms.p50", append_s.p50, "ms", append_s.samples);
    out.add("journal.append_ms.p99", append_s.p99, "ms", append_s.samples, describe(append_s));
    out.add("journal.bytes_per_window", windows_applied > 0.0 ? record_bytes / windows_applied : 0.0,
            "bytes");
    out.add("protocol.encode_window_us", encode_window_us, "us", n);
    out.add("protocol.parse_request_us", parse_request_us, "us", n);
    out.add("protocol.encode_ack_us", encode_ack_us, "us", n);
    out.add("protocol.parse_response_us", parse_response_us, "us", n);
    out.add("daemon.overhead_ms.p50", median(overhead), "ms", overhead.size(),
            "socket round trip - in-process apply of the same window");
    out.add("transport.queue.peak", queue_peak, "count");
    out.add("serve.rejected.busy", static_cast<double>(p.busy), "count");
    out.add("stat.rtt_ms.p50", median(run.stat_rtt_ms), "ms", run.stat_rtt_ms.size());
    out.add("stat.report_bytes", median(run.stat_report_bytes), "bytes", run.stat_report_bytes.size());
    out.add("window_p99_ms", lat.p99, "ms", lat.samples, describe(lat));
    out.add("generator.lag_ms.max", p.max_lag_ms, "ms", paced);
    out.add("window_miss_share", p.miss_share(), "ratio", paced);
    return out;
}

}  // namespace perfbench
