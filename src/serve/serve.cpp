#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/cancel.hpp"
#include "exec/seed.hpp"
#include "forecast/mlp_forecaster.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/json.hpp"
#include "timeseries/resource.hpp"

namespace atm::serve {

namespace {

/// The streaming MLP is the batch pipeline's temporal model: same lags,
/// hidden layers and activation (its seasonal lag is the trace's day).
const forecast::MlpForecasterOptions kMlp{};

// FNV-1a field mixers, same chain discipline as the fleet digests (the
// fleet_journal.cpp helpers are file-local by design — digests must not
// accidentally share a chain).
void mix_u64(std::uint64_t& hash, std::uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
    hash = exec::fnv1a64_mix(hash, std::string_view(bytes, 8));
}

void mix_double(std::uint64_t& hash, double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    mix_u64(hash, bits);
}

void mix_string(std::uint64_t& hash, const std::string& text) {
    hash = exec::fnv1a64_mix(hash, text);
    mix_u64(hash, text.size());
}

std::string hex16(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine-internal state

/// One warm-startable per-signature temporal model. For the MLP the
/// scaler is pinned at cold-fit time so warm retrains continue in the
/// same feature space; a history that drifts outside it forces a cold
/// refit (rescale) instead of training on out-of-range features.
struct ServeEngine::WarmModel {
    bool mlp = false;  ///< false = seasonal naive (stateless)
    std::unique_ptr<forecast::MlpNetwork> net;
    ts::MinMaxScaler scaler;
    bool degenerate = true;
};

struct ServeEngine::BoxMeta {
    std::string name;
    double cpu_capacity = 0.0;
    double ram_capacity = 0.0;
    std::vector<double> vm_cpu_capacity;
    std::vector<double> vm_ram_capacity;
};

struct ServeEngine::BoxState {
    /// Rolling demand history per flat series (VM-major CPU,RAM), capped
    /// at train_len_ samples. All rows stay equal length by construction.
    std::vector<std::vector<double>> history;
    std::uint64_t next_epoch = 0;

    bool has_model = false;
    std::vector<int> signatures;  ///< flat indices, spatial fit order
    core::SpatialModel spatial;
    std::vector<WarmModel> models;  ///< parallel to `signatures`
    double corr_at_search = 0.0;

    std::vector<double> last_forecast;  ///< per flat series, next window
    bool has_forecast = false;
    std::vector<double> rec_cpu;  ///< per-VM recommended allocations
    std::vector<double> rec_ram;
    bool has_rec = false;

    /// Journaled windows awaiting replay after a warm restart.
    std::deque<core::ServeEpochRecord> replay;
};

/// Control decisions of one window: taken live (SLO / faults) or forced
/// from the journal on replay — the only non-determinism the journal has
/// to pin down for bit-identical warm restart.
struct ServeEngine::Decisions {
    bool forced = false;
    int ladder = 0;  ///< ServeEpochRecord bitmask
    bool searched = false;
    int retrained = 0;
    int attempts = 1;
};

namespace {
constexpr int kShedRefresh = 1;     ///< search or retrain skipped
constexpr int kShedForecast = 2;    ///< last forecast reused
constexpr int kShedResize = 4;      ///< max-min fallback resize
constexpr int kShedIngestOnly = 8;  ///< no model output this window
}  // namespace

// ---------------------------------------------------------------------------
// Config validation, digest, header

std::string ServeConfig::validate() const {
    std::vector<std::string> problems;
    auto add = [&problems](std::string message) {
        problems.push_back(std::move(message));
    };
    const core::PipelineConfig& p = pipeline;
    if (p.train_days < 2) {
        add("train_days must be >= 2 (serve keeps a rolling window and "
            "needs at least warmup + one day), got " +
            std::to_string(p.train_days));
    }
    if (!(p.alpha > 0.0) || p.alpha > 1.0 || !std::isfinite(p.alpha)) {
        add("alpha must be in (0, 1], got " + std::to_string(p.alpha));
    }
    if (!std::isfinite(p.epsilon_pct)) {
        add("epsilon_pct must be finite, got " + std::to_string(p.epsilon_pct));
    }
    if (p.temporal != forecast::TemporalModel::kNeuralNetwork &&
        p.temporal != forecast::TemporalModel::kSeasonalNaive) {
        add("temporal model must be neural-network or seasonal-naive for "
            "serve (warm restart requires warm-startable models), got " +
            forecast::to_string(p.temporal));
    }
    if (p.scope != core::ResourceScope::kInter) {
        add("scope must be inter for serve");
    }
    if (queue_depth < 1 || queue_depth > (1 << 20)) {
        add("queue_depth must be in [1, 1048576], got " +
            std::to_string(queue_depth));
    }
    if (!(slo_ms >= 0.0) || !std::isfinite(slo_ms)) {
        add("slo_ms must be >= 0 and finite, got " + std::to_string(slo_ms));
    }
    if (!(drift_threshold >= 0.0) || !std::isfinite(drift_threshold)) {
        add("drift_threshold must be >= 0 and finite, got " +
            std::to_string(drift_threshold));
    }
    if (retrain_every < 1) {
        add("retrain_every must be >= 1, got " + std::to_string(retrain_every));
    }
    if (retrain_epochs < 1) {
        add("retrain_epochs must be >= 1, got " +
            std::to_string(retrain_epochs));
    }
    if (train_epochs < 1) {
        add("train_epochs must be >= 1, got " + std::to_string(train_epochs));
    }
    if (max_retries < 0) {
        add("max_retries must be >= 0, got " + std::to_string(max_retries));
    }
    if (!(backoff_ms >= 0.0) || !std::isfinite(backoff_ms)) {
        add("backoff_ms must be >= 0 and finite, got " +
            std::to_string(backoff_ms));
    }
    if (!(backoff_max_ms >= backoff_ms) || !std::isfinite(backoff_max_ms)) {
        add("backoff_max_ms must be >= backoff_ms and finite, got " +
            std::to_string(backoff_max_ms));
    }
    if (resume && journal_path.empty()) {
        add("resume requires a journal path");
    }
    std::string joined;
    for (const std::string& problem : problems) {
        if (!joined.empty()) joined += "; ";
        joined += problem;
    }
    return joined;
}

std::uint64_t serve_config_digest(const ServeConfig& config) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    mix_u64(hash, core::pipeline_config_digest(config.pipeline));
    mix_u64(hash, static_cast<std::uint64_t>(config.policy));
    mix_double(hash, config.drift_threshold);
    mix_u64(hash, static_cast<std::uint64_t>(config.retrain_every));
    mix_u64(hash, static_cast<std::uint64_t>(config.retrain_epochs));
    mix_u64(hash, static_cast<std::uint64_t>(config.train_epochs));
    // Retry/fault knobs are result-affecting through the journaled
    // attempt counts and the per-(epoch, attempt) fault draws.
    mix_u64(hash, static_cast<std::uint64_t>(config.max_retries));
    mix_u64(hash, config.faults.seed);
    mix_u64(hash, config.faults.rules.size());
    for (const exec::FaultRule& rule : config.faults.rules) {
        mix_string(hash, rule.site);
        mix_u64(hash, static_cast<std::uint64_t>(rule.action));
        mix_double(hash, rule.rate);
    }
    // Deliberately excluded: queue_depth, slo_ms, backoff timings — their
    // *effects* (shed masks, attempt counts) are journaled per window, so
    // changing them across a restart only affects windows not yet applied.
    return hash;
}

std::string serve_journal_header(const trace::Trace& trace,
                                 const ServeConfig& config) {
    obs::json::Value header = obs::json::Value::make_object();
    header.set("schema", obs::json::Value::of(core::kServeJournalSchema));
    header.set("fingerprint",
               obs::json::Value::of(hex16(core::trace_fingerprint(trace))));
    header.set("config",
               obs::json::Value::of(hex16(serve_config_digest(config))));
    header.set("seed", obs::json::Value::of(
                           static_cast<std::uint64_t>(config.pipeline.seed)));
    // Same rationale as the fleet journal: the dispatched SIMD path is
    // result-affecting, so a mismatch makes resume start fresh.
    header.set("simd",
               obs::json::Value::of(simd::to_string(simd::active_path())));
    return obs::json::serialize(header, 0);
}

const char* to_string(ApplyStatus status) {
    switch (status) {
        case ApplyStatus::kApplied: return "applied";
        case ApplyStatus::kWarming: return "warming";
        case ApplyStatus::kStale: return "stale";
        case ApplyStatus::kGap: return "gap";
        case ApplyStatus::kBadShape: return "bad-shape";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Construction / resume

ServeEngine::ServeEngine(const trace::Trace& trace, ServeConfig config)
    : config_(std::move(config)) {
    const std::string problems = config_.validate();
    if (!problems.empty()) {
        throw std::invalid_argument("ServeConfig: " + problems);
    }
    if (trace.windows_per_day <= 0) {
        throw std::invalid_argument("serve: windows_per_day must be > 0");
    }
    windows_per_day_ = trace.windows_per_day;
    train_len_ = static_cast<std::size_t>(config_.pipeline.train_days) *
                 static_cast<std::size_t>(windows_per_day_);
    // Model work needs a full seasonal period of lag history plus a day to
    // learn from; below this the engine just accumulates samples.
    warmup_len_ = 2 * static_cast<std::size_t>(windows_per_day_);

    meta_.reserve(trace.boxes.size());
    boxes_.reserve(trace.boxes.size());
    for (const trace::BoxTrace& box : trace.boxes) {
        BoxMeta meta;
        meta.name = box.name;
        meta.cpu_capacity = box.cpu_capacity_ghz;
        meta.ram_capacity = box.ram_capacity_gb;
        for (const trace::VmTrace& vm : box.vms) {
            meta.vm_cpu_capacity.push_back(vm.cpu_capacity_ghz);
            meta.vm_ram_capacity.push_back(vm.ram_capacity_gb);
        }
        meta_.push_back(std::move(meta));
        auto state = std::make_unique<BoxState>();
        state->history.resize(box.vms.size() * 2);
        boxes_.push_back(std::move(state));
    }

    if (config_.journal_path.empty()) return;
    const std::string header = serve_journal_header(trace, config_);
    if (config_.resume) {
        const exec::JournalLoad load = exec::load_journal(config_.journal_path);
        if (load.exists && load.header == header) {
            // Accept the longest decodable prefix whose per-box epochs are
            // contiguous from 0; anything after the first bad record is
            // treated like checksum corruption and physically truncated.
            std::uint64_t good = load.header_end;
            std::vector<std::uint64_t> expected(boxes_.size(), 0);
            for (std::size_t i = 0; i < load.records.size(); ++i) {
                core::ServeEpochRecord record;
                try {
                    record = core::decode_epoch_record(load.records[i]);
                    if (record.box_index < 0 ||
                        record.box_index >=
                            static_cast<int>(boxes_.size())) {
                        throw std::runtime_error(
                            "serve journal: box index out of range");
                    }
                    const auto bi = static_cast<std::size_t>(record.box_index);
                    if (record.epoch != expected[bi]) {
                        throw std::runtime_error(
                            "serve journal: epoch out of order");
                    }
                    ++expected[bi];
                } catch (const std::exception&) {
                    break;
                }
                boxes_[static_cast<std::size_t>(record.box_index)]
                    ->replay.push_back(std::move(record));
                good = load.record_ends[i];
            }
            journal_ =
                exec::JournalWriter::append_after(config_.journal_path, good);
            resumed_ = true;
            return;
        }
    }
    journal_ = exec::JournalWriter::create(config_.journal_path, header);
}

ServeEngine::~ServeEngine() = default;

int ServeEngine::num_boxes() const { return static_cast<int>(boxes_.size()); }

int ServeEngine::find_box(const std::string& name) const {
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        if (meta_[i].name == name) return static_cast<int>(i);
    }
    return -1;
}

std::uint64_t ServeEngine::next_epoch(int box_index) const {
    return boxes_.at(static_cast<std::size_t>(box_index))->next_epoch;
}

std::uint64_t ServeEngine::replay_remaining() const {
    std::uint64_t remaining = 0;
    for (const auto& box : boxes_) remaining += box->replay.size();
    return remaining;
}

void ServeEngine::close() {
    if (journal_) {
        journal_->close();
        journal_.reset();
    }
}

// ---------------------------------------------------------------------------
// apply

ApplyOutcome ServeEngine::apply(const WindowUpdate& update) {
    ApplyOutcome out;
    out.epoch = update.epoch;
    if (update.box_index < 0 ||
        update.box_index >= static_cast<int>(boxes_.size())) {
        out.status = ApplyStatus::kBadShape;
        out.error = "unknown box index " + std::to_string(update.box_index);
        return out;
    }
    const auto bi = static_cast<std::size_t>(update.box_index);
    const BoxMeta& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const std::size_t num_vms = meta.vm_cpu_capacity.size();
    if (num_vms == 0 || update.cpu.size() != num_vms ||
        update.ram.size() != num_vms) {
        out.status = ApplyStatus::kBadShape;
        out.error = "box " + meta.name + " has " + std::to_string(num_vms) +
                    " VMs, update has " + std::to_string(update.cpu.size()) +
                    " cpu / " + std::to_string(update.ram.size()) +
                    " ram samples";
        return out;
    }
    if (update.epoch < box.next_epoch) {
        out.status = ApplyStatus::kStale;
        return out;
    }
    if (update.epoch > box.next_epoch) {
        out.status = ApplyStatus::kGap;
        out.error = "expected epoch " + std::to_string(box.next_epoch) +
                    ", got " + std::to_string(update.epoch);
        return out;
    }

    const core::ServeEpochRecord* forced =
        box.replay.empty() ? nullptr : &box.replay.front();
    core::ServeEpochRecord record;
    out = apply_window(update.box_index, update, forced, record);
    if (forced != nullptr) {
        // Replay consistency: the recomputation under forced decisions
        // must be bit-identical to what the journal recorded. A mismatch
        // means the determinism contract is broken — fail loudly rather
        // than serve silently-diverged recommendations.
        if (record.ladder != forced->ladder || record.cpu != forced->cpu ||
            record.ram != forced->ram) {
            throw std::runtime_error(
                "serve journal: replay diverged for box " + meta.name +
                " epoch " + std::to_string(update.epoch));
        }
        box.replay.pop_front();
    } else if (journal_) {
        journal_->append(core::encode_epoch_record(record));
    }
    ++box.next_epoch;
    return out;
}

ApplyOutcome ServeEngine::apply_window(int box_index,
                                       const WindowUpdate& update,
                                       const core::ServeEpochRecord* forced,
                                       core::ServeEpochRecord& record) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    record.box_index = box_index;
    record.epoch = update.epoch;

    ingest_samples(box_index, update);

    ApplyOutcome out;
    out.epoch = update.epoch;
    if (box.history[0].size() < warmup_len_) {
        counter("serve.windows.warming");
        out.status = ApplyStatus::kWarming;
        return out;
    }

    Decisions d;
    if (forced != nullptr) {
        d.forced = true;
        d.ladder = forced->ladder;
        d.searched = forced->searched;
        d.retrained = forced->retrained;
        d.attempts = forced->attempts;
        // A ladder of *exactly* the ingest-only bit means retries were
        // exhausted at the fault site and model_work never ran live —
        // replaying it would over-count shed counters. Any other mask
        // (even ones including bit 8, e.g. "search shed, still no
        // model") means model_work did run and must replay so its
        // counters and the drift gauge land identically.
        if (d.ladder != kShedIngestOnly) {
            model_work(box_index, update.epoch, d, nullptr);
        }
    } else {
        exec::CancellationToken slo;
        const exec::CancellationToken* token = nullptr;
        if (config_.slo_ms > 0.0) {
            slo.arm_deadline_after(config_.slo_ms / 1000.0);
            token = &slo;
        }
        int attempt = 0;
        bool applied = false;
        while (true) {
            exec::FaultContext fault;
            fault.plan = config_.faults.empty() ? nullptr : &config_.faults;
            fault.entity = static_cast<std::uint64_t>(box_index);
            fault.attempt = static_cast<std::uint64_t>(attempt);
            // +1 so epoch 0 still re-rolls per window (0 means "unset" in
            // the fault-key chain).
            fault.epoch = update.epoch + 1;
            try {
                ATM_FAULT_SITE(fault, "serve.apply");
                model_work(box_index, update.epoch, d, token);
                applied = true;
                break;
            } catch (const exec::InjectedFault&) {
                if (attempt >= config_.max_retries) break;
                const double delay_ms =
                    std::min(config_.backoff_ms * static_cast<double>(1 << attempt),
                             config_.backoff_max_ms);
                if (delay_ms > 0.0) {
                    std::this_thread::sleep_for(std::chrono::duration<double,
                                                std::milli>(delay_ms));
                }
                ++attempt;
            }
        }
        d.attempts = attempt + 1;
        if (!applied) d.ladder |= kShedIngestOnly;
    }

    if ((d.ladder & kShedIngestOnly) != 0) counter("serve.degraded.ingest_only");
    record_retry(d.attempts, d.ladder);
    counter("serve.windows.applied");

    record.ladder = d.ladder;
    record.searched = d.searched;
    record.retrained = d.retrained;
    record.attempts = d.attempts;
    if ((d.ladder & kShedIngestOnly) == 0 && box.has_rec) {
        record.cpu = box.rec_cpu;
        record.ram = box.rec_ram;
    }
    out.status = ApplyStatus::kApplied;
    out.ladder = d.ladder;
    out.attempts = d.attempts;
    out.cpu = record.cpu;
    out.ram = record.ram;
    return out;
}

void ServeEngine::ingest_samples(int box_index, const WindowUpdate& update) {
    const auto bi = static_cast<std::size_t>(box_index);
    const BoxMeta& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const double alpha = config_.pipeline.alpha;
    std::uint64_t bad = 0;
    for (std::size_t vm = 0; vm < meta.vm_cpu_capacity.size(); ++vm) {
        for (int kind = 0; kind < 2; ++kind) {
            const bool is_cpu = kind == 0;
            const std::size_t flat = vm * 2 + static_cast<std::size_t>(kind);
            std::vector<double>& history = box.history[flat];
            double actual = is_cpu ? update.cpu[vm] : update.ram[vm];
            if (!std::isfinite(actual) || actual < 0.0) {
                ++bad;
                actual = history.empty() ? 0.0 : history.back();
            }
            // Rolling one-step forecast accuracy (vs. last_forecast, which
            // predicted exactly this window) and ticket accounting on the
            // static allocation vs. the engine's recommendation.
            if (box.has_forecast && std::abs(actual) > 1e-9) {
                const double ape =
                    std::abs(actual - box.last_forecast[flat]) /
                    std::abs(actual);
                if (std::isfinite(ape)) {
                    obs::HistogramSnapshot& hist = metrics_.histograms["serve.ape"];
                    if (hist.bounds.empty() && hist.count == 0) {
                        const auto bounds = obs::default_histogram_bounds();
                        hist.bounds.assign(bounds.begin(), bounds.end());
                    }
                    hist.record(ape);
                }
            }
            const double static_cap = is_cpu ? meta.vm_cpu_capacity[vm]
                                             : meta.vm_ram_capacity[vm];
            const char* kind_name = is_cpu ? "cpu" : "ram";
            if (actual > alpha * static_cap) {
                counter(std::string("serve.tickets.") + kind_name + ".before");
            }
            if (box.has_rec) {
                const double rec_cap =
                    is_cpu ? box.rec_cpu[vm] : box.rec_ram[vm];
                if (actual > alpha * rec_cap) {
                    counter(std::string("serve.tickets.") + kind_name +
                            ".after");
                }
            }
            history.push_back(actual);
            if (history.size() > train_len_) {
                history.erase(history.begin());
            }
        }
    }
    if (bad != 0) counter("serve.sanitize.bad_samples", bad);
}

// ---------------------------------------------------------------------------
// Per-window model work (live + forced replay)

void ServeEngine::model_work(int box_index, std::uint64_t epoch, Decisions& d,
                             const exec::CancellationToken* slo) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];

    // Drift-gated signature search. The drift statistic is deterministic
    // (history only), so live and replay agree on *wanting* a search; the
    // journal pins whether one actually ran (SLO shed is wall-clock).
    bool want_search = !box.has_model;
    if (box.has_model) {
        const double drift =
            std::abs(mean_abs_correlation(box) - box.corr_at_search);
        metrics_.gauges["serve.drift"] = drift;
        if (drift > config_.drift_threshold) want_search = true;
    }
    if (d.forced ? d.searched : want_search) {
        const bool committed =
            run_search(box_index, d.forced ? nullptr : slo);
        if (!d.forced) d.searched = committed;
    }
    if (d.searched) {
        counter("serve.search.runs");
    } else if (want_search) {
        counter("serve.degraded.skip_search");
        if (!d.forced) d.ladder |= kShedRefresh;
    }

    // Warm retrain on a fixed cadence (deterministic), skipped the window
    // a search already cold-fit everything.
    const bool retrain_due =
        box.has_model && !d.searched &&
        config_.pipeline.temporal == forecast::TemporalModel::kNeuralNetwork &&
        epoch % static_cast<std::uint64_t>(config_.retrain_every) == 0;
    if (d.forced ? d.retrained != 0 : retrain_due) {
        bool committed = false;
        if (d.forced || slo == nullptr || !slo->cancelled()) {
            committed = run_retrain(box_index, epoch, d.forced ? nullptr : slo);
        }
        if (!d.forced) d.retrained = committed ? 1 : 0;
        if (committed || d.forced) counter("serve.retrain.warm");
    }
    if (retrain_due && d.retrained == 0) {
        counter("serve.degraded.skip_retrain");
        if (!d.forced) d.ladder |= kShedRefresh;
    }

    if (!box.has_model) {
        // Nothing to shed to: no spatial model yet and this window's
        // search did not land one.
        d.ladder |= kShedIngestOnly;
        return;
    }

    // Forecast the next window, or reuse the previous forecast under SLO
    // pressure (rung 2).
    bool reuse = d.forced && (d.ladder & kShedForecast) != 0;
    if (!d.forced && slo != nullptr && slo->cancelled()) {
        reuse = true;
        d.ladder |= kShedForecast;
    }
    if (reuse && !box.has_forecast) {
        d.ladder |= kShedIngestOnly;
        return;
    }
    if (reuse) {
        counter("serve.degraded.reuse_forecast");
    } else {
        forecast_next(box_index);
    }

    // Resize on the forecast; under SLO pressure fall to max-min (rung 3),
    // which needs no MCKP iterations.
    bool max_min = d.forced && (d.ladder & kShedResize) != 0;
    if (!d.forced && !max_min) {
        try {
            exec::checkpoint(slo, "serve.resize");
            resize_window(box_index, false, slo);
        } catch (const exec::OperationCancelled&) {
            max_min = true;
            d.ladder |= kShedResize;
        }
    }
    if (max_min) {
        resize_window(box_index, true, nullptr);
        counter("serve.degraded.max_min");
    } else if (d.forced) {
        resize_window(box_index, false, nullptr);
    }
}

double ServeEngine::mean_abs_correlation(const BoxState& box) const {
    const std::size_t n = box.history.size();
    if (n < 2) return 0.0;
    const std::size_t len = box.history[0].size();
    if (len < 2) return 0.0;
    std::vector<double> mean(n, 0.0);
    std::vector<double> norm(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (const double x : box.history[i]) sum += x;
        mean[i] = sum / static_cast<double>(len);
        double sq = 0.0;
        for (const double x : box.history[i]) {
            const double c = x - mean[i];
            sq += c * c;
        }
        norm[i] = std::sqrt(sq);
    }
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            ++pairs;
            if (norm[i] < 1e-12 || norm[j] < 1e-12) continue;
            double dot = 0.0;
            for (std::size_t t = 0; t < len; ++t) {
                dot += (box.history[i][t] - mean[i]) *
                       (box.history[j][t] - mean[j]);
            }
            total += std::abs(dot / (norm[i] * norm[j]));
        }
    }
    return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

bool ServeEngine::run_search(int box_index,
                             const exec::CancellationToken* slo) {
    const auto bi = static_cast<std::size_t>(box_index);
    BoxState& box = *boxes_[bi];
    // Staged: everything lands in locals + a scratch registry, committed
    // only when the whole unit finishes — an SLO trip mid-search leaves
    // the previous model (and metrics) untouched, so replay (which skips
    // the shed search entirely) reproduces the same state.
    obs::MetricsRegistry scratch;
    try {
        std::vector<int> signatures;
        core::SignatureSearchOptions options = config_.pipeline.search;
        options.metrics = &scratch;
        options.cancel = slo;
        options.pool = nullptr;
        options.dtw_cache = nullptr;  // history changes every window
        if (config_.workspace != nullptr) {
            options.dtw_workspace = &config_.workspace->dtw;
        }
        try {
            core::SignatureSearchResult result =
                core::find_signatures(box.history, options);
            signatures = std::move(result.signatures);
            if (signatures.empty()) throw std::runtime_error("empty set");
        } catch (const exec::OperationCancelled&) {
            throw;
        } catch (const std::exception&) {
            // Degenerate clustering: fall back to the all-signature set
            // (every series its own predictor), same as the batch ladder.
            signatures.clear();
            for (std::size_t i = 0; i < box.history.size(); ++i) {
                signatures.push_back(static_cast<int>(i));
            }
            scratch.add("serve.search.fallback");
        }
        core::SpatialModel spatial;
        try {
            spatial.fit(box.history, signatures);
        } catch (const exec::OperationCancelled&) {
            throw;
        } catch (const std::exception&) {
            signatures.clear();
            for (std::size_t i = 0; i < box.history.size(); ++i) {
                signatures.push_back(static_cast<int>(i));
            }
            spatial.fit(box.history, signatures);  // no dependents left
            scratch.add("serve.search.fallback");
        }
        std::vector<WarmModel> models(signatures.size());
        const std::uint64_t box_seed =
            exec::derive_seed(config_.pipeline.seed,
                              static_cast<std::uint64_t>(box_index));
        pending_.clear();
        for (std::size_t k = 0; k < signatures.size(); ++k) {
            const auto series = static_cast<std::size_t>(signatures[k]);
            const std::uint64_t sig_seed =
                exec::derive_seed(box_seed, static_cast<std::uint64_t>(series));
            cold_fit(models[k], box.history[series], sig_seed, &scratch, slo);
            scratch.add("serve.retrain.cold");
        }
        train_queued();
        box.signatures = std::move(signatures);
        box.spatial = std::move(spatial);
        box.models = std::move(models);
        box.has_model = true;
        box.corr_at_search = mean_abs_correlation(box);
        metrics_.merge(scratch.snapshot());
        return true;
    } catch (const exec::OperationCancelled&) {
        return false;
    }
}

bool ServeEngine::run_retrain(int box_index, std::uint64_t epoch,
                              const exec::CancellationToken* slo) {
    const auto bi = static_cast<std::size_t>(box_index);
    BoxState& box = *boxes_[bi];
    obs::MetricsRegistry scratch;
    const std::uint64_t box_seed = exec::derive_seed(
        config_.pipeline.seed, static_cast<std::uint64_t>(box_index));
    try {
        // Staged copies: a cancelled retrain must leave the previous
        // weights exactly as they were (replay skips the whole stage).
        // Every network (warm continuations and rescaling cold refits
        // alike) trains in one lane batch once all are queued.
        std::vector<WarmModel> updated;
        updated.reserve(box.models.size());
        pending_.clear();
        for (std::size_t k = 0; k < box.models.size(); ++k) {
            const WarmModel& current = box.models[k];
            const auto series = static_cast<std::size_t>(box.signatures[k]);
            const std::vector<double>& history = box.history[series];
            const std::uint64_t sig_seed =
                exec::derive_seed(box_seed, static_cast<std::uint64_t>(series));
            WarmModel next;
            const auto [lo_it, hi_it] =
                std::minmax_element(history.begin(), history.end());
            const double span = current.scaler.max() - current.scaler.min();
            const bool out_of_scale =
                current.degenerate || current.net == nullptr ||
                span < 1e-12 ||
                *lo_it < current.scaler.min() - 0.5 * span ||
                *hi_it > current.scaler.max() + 0.5 * span;
            if (out_of_scale) {
                // The rolling window left the pinned feature space: cold
                // refit with a fresh scaler instead of warm-starting.
                cold_fit(next, history,
                         exec::derive_seed(sig_seed, epoch + 1), &scratch,
                         slo);
                scratch.add("serve.retrain.rescale");
            } else {
                next.mlp = true;
                next.scaler = current.scaler;
                next.degenerate = false;
                next.net = std::make_unique<forecast::MlpNetwork>(*current.net);
                queue_fit(*next.net, current.scaler.transform(history),
                          config_.retrain_epochs,
                          exec::derive_seed(sig_seed, epoch + 1), &scratch,
                          slo);
            }
            updated.push_back(std::move(next));
        }
        train_queued();
        box.models = std::move(updated);
        metrics_.merge(scratch.snapshot());
        return true;
    } catch (const exec::OperationCancelled&) {
        return false;
    }
}

void ServeEngine::cold_fit(WarmModel& model,
                           const std::vector<double>& history,
                           std::uint64_t sig_seed,
                           obs::MetricsRegistry* scratch,
                           const exec::CancellationToken* slo) {
    if (config_.pipeline.temporal != forecast::TemporalModel::kNeuralNetwork) {
        model.mlp = false;
        model.degenerate = false;
        return;
    }
    model.mlp = true;
    model.scaler.fit(history);
    const auto [lo_it, hi_it] =
        std::minmax_element(history.begin(), history.end());
    std::vector<int> layers{kMlp.num_lags + 1};
    layers.insert(layers.end(), kMlp.hidden.begin(), kMlp.hidden.end());
    layers.push_back(1);
    auto net = std::make_unique<forecast::MlpNetwork>(
        layers, kMlp.activation, static_cast<unsigned>(sig_seed));
    const bool queued =
        *hi_it - *lo_it >= 1e-12 &&
        queue_fit(*net, model.scaler.transform(history), config_.train_epochs,
                  sig_seed, scratch, slo);
    model.degenerate = !queued;
    if (queued) model.net = std::move(net);
}

/// Builds the lag dataset of `scaled` into the next free slot and queues
/// `net` to train on it (train_queued); false, queueing nothing, when
/// the history is too short for 4 examples.
bool ServeEngine::queue_fit(forecast::MlpNetwork& net,
                            const std::vector<double>& scaled, int epochs,
                            std::uint64_t seed, obs::MetricsRegistry* scratch,
                            const exec::CancellationToken* slo) {
    const std::size_t slot = pending_.size();
    if (features_.size() <= slot) {
        features_.resize(slot + 1);
        targets_.resize(slot + 1);
    }
    ts::make_lag_dataset_flat(scaled, kMlp.num_lags, windows_per_day_,
                              features_[slot], targets_[slot]);
    if (features_[slot].rows() < 4) return false;
    forecast::MlpTrainJob job;
    job.network = &net;
    job.options.epochs = epochs;
    job.options.seed = static_cast<unsigned>(seed);
    job.options.metrics = scratch;
    job.options.cancel = slo;
    pending_.push_back(job);
    return true;
}

/// Trains every queued network in one lane batch (bitwise the same as
/// training them one by one) and empties the queue.
void ServeEngine::train_queued() {
    for (std::size_t k = 0; k < pending_.size(); ++k) {
        pending_[k].features = &features_[k];
        pending_[k].targets = targets_[k];
    }
    forecast::MlpNetwork::train_batch(pending_, &mlp_workspace());
    pending_.clear();
}

forecast::MlpWorkspace& ServeEngine::mlp_workspace() {
    return config_.workspace != nullptr ? config_.workspace->mlp
                                        : mlp_workspace_;
}

double ServeEngine::predict_one(const WarmModel& model,
                                const std::vector<double>& history) {
    const std::size_t len = history.size();
    if (!model.mlp) {
        // Seasonal naive: repeat the sample one period back.
        const auto period = static_cast<std::size_t>(windows_per_day_);
        return len >= period ? history[len - period] : history.back();
    }
    if (model.degenerate || model.net == nullptr) return history.back();
    std::vector<double>& features = predict_features_;
    features.clear();
    for (int k = kMlp.num_lags; k >= 1; --k) {
        const auto lag = static_cast<std::size_t>(k);
        features.push_back(model.scaler.transform(
            len >= lag ? history[len - lag] : history.front()));
    }
    const auto period = static_cast<std::size_t>(windows_per_day_);
    features.push_back(model.scaler.transform(
        len >= period ? history[len - period] : history.front()));
    const double scaled = std::clamp(
        model.net->predict(features, mlp_workspace()), -0.25, 1.25);
    return model.scaler.inverse(scaled);
}

void ServeEngine::forecast_next(int box_index) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    std::vector<std::vector<double>> signature_values(box.signatures.size());
    for (std::size_t k = 0; k < box.signatures.size(); ++k) {
        const auto series = static_cast<std::size_t>(box.signatures[k]);
        double predicted = predict_one(box.models[k], box.history[series]);
        if (!std::isfinite(predicted)) {
            predicted = box.history[series].back();
            counter("serve.forecast.nonfinite");
        }
        signature_values[k] = {predicted};
    }
    const std::vector<std::vector<double>> full =
        box.spatial.reconstruct(signature_values);
    box.last_forecast.resize(box.history.size());
    for (std::size_t i = 0; i < box.history.size(); ++i) {
        double value = full[i][0];
        if (!std::isfinite(value)) {
            value = box.history[i].back();
            counter("serve.forecast.nonfinite");
        }
        box.last_forecast[i] = value;
    }
    box.has_forecast = true;
}

void ServeEngine::resize_window(int box_index, bool max_min_only,
                                const exec::CancellationToken* slo) {
    const auto bi = static_cast<std::size_t>(box_index);
    const BoxMeta& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const std::size_t num_vms = meta.vm_cpu_capacity.size();
    const auto window = static_cast<std::size_t>(windows_per_day_);
    std::vector<double> rec_cpu(num_vms, 0.0);
    std::vector<double> rec_ram(num_vms, 0.0);
    for (int kind = 0; kind < 2; ++kind) {
        const bool is_cpu = kind == 0;
        resize::ResizeInput input;
        input.total_capacity = is_cpu ? meta.cpu_capacity : meta.ram_capacity;
        input.alpha = config_.pipeline.alpha;
        input.metrics = nullptr;
        input.cancel = slo;
        input.demands.resize(num_vms);
        for (std::size_t vm = 0; vm < num_vms; ++vm) {
            const std::size_t flat = vm * 2 + static_cast<std::size_t>(kind);
            input.demands[vm] = {std::max(0.0, box.last_forecast[flat])};
            const double cap =
                is_cpu ? meta.vm_cpu_capacity[vm] : meta.vm_ram_capacity[vm];
            if (config_.pipeline.epsilon_pct > 0.0) {
                input.epsilons.push_back(config_.pipeline.epsilon_pct / 100.0 *
                                         cap);
            }
            if (config_.pipeline.use_lower_bounds) {
                const std::vector<double>& history = box.history[flat];
                const std::size_t tail = std::min(window, history.size());
                double peak = 0.0;
                for (std::size_t t = history.size() - tail;
                     t < history.size(); ++t) {
                    peak = std::max(peak, history[t]);
                }
                input.lower_bounds.push_back(peak);
            }
            input.current_capacities.push_back(cap);
        }
        resize::ResizeResult result;
        if (max_min_only) {
            result = resize::max_min_fairness_resize(input);
        } else {
            bool fallback = false;
            try {
                result = resize::apply_policy(config_.policy, input);
                if (!result.feasible) fallback = true;
            } catch (const exec::OperationCancelled&) {
                throw;
            } catch (const std::exception&) {
                fallback = true;
            }
            if (fallback) {
                // Deterministic infeasibility (not an SLO trip): max-min
                // replays identically, so no journal bit is needed.
                input.cancel = nullptr;
                result = resize::max_min_fairness_resize(input);
                counter("serve.resize.fallback");
            }
        }
        for (std::size_t vm = 0; vm < num_vms; ++vm) {
            (is_cpu ? rec_cpu : rec_ram)[vm] = result.capacities[vm];
        }
    }
    box.rec_cpu = std::move(rec_cpu);
    box.rec_ram = std::move(rec_ram);
    box.has_rec = true;
}

void ServeEngine::record_retry(int attempts, int ladder) {
    const int extra = attempts - 1;
    if (extra <= 0) return;
    counter("serve.retry.attempts", static_cast<std::uint64_t>(extra));
    counter((ladder & kShedIngestOnly) != 0 ? "serve.retry.exhausted"
                                            : "serve.retry.recovered");
}

void ServeEngine::counter(const std::string& name, std::uint64_t delta) {
    metrics_.counters[name] += delta;
}

}  // namespace atm::serve
