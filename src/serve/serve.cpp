#include "serve/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/cancel.hpp"
#include "exec/seed.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/json.hpp"
#include "timeseries/resource.hpp"
#include "timeseries/stats.hpp"

namespace atm::serve {

// ---------------------------------------------------------------------------
// Engine-internal state

struct ServeEngine::BoxState {
    /// Rolling demand history per flat series (VM-major CPU,RAM), capped
    /// at train_len_ samples. All rows stay equal length by construction.
    std::vector<std::vector<double>> history;
    std::uint64_t next_epoch = 0;

    bool has_model = false;
    core::BoxModel model;
    double corr_at_search = 0.0;
    /// The drift statistic of this box's latest window that had a model;
    /// the serve.drift gauge is the largest over the boxes.
    std::optional<double> drift;

    /// One-step forecast APEs of this box; metrics_ carries their merge.
    obs::HistogramSnapshot ape;

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

/// The drift statistic: mean |ρ| over the box's distinct series pairs.
double mean_abs_rho(const std::vector<std::vector<double>>& history) {
    const la::FlatMatrix rho = ts::correlation_matrix(history);
    const std::size_t n = rho.rows();
    if (n < 2) return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) total += std::abs(rho(i, j));
    }
    return total / static_cast<double>(n * (n - 1) / 2);
}
}  // namespace

// ---------------------------------------------------------------------------
// Config validation, digest, header

std::string ServeConfig::validate() const {
    std::string problems = pipeline.validate();
    const auto add = [&problems](const std::string& problem) {
        if (!problems.empty()) problems += "; ";
        problems += problem;
    };
    const core::PipelineConfig& p = pipeline;
    if (p.train_days < 2) {
        add("train_days must be >= 2 (serve keeps a rolling window and "
            "needs at least warmup + one day), got " +
            std::to_string(p.train_days));
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
    return problems;
}

std::uint64_t serve_config_digest(const ServeConfig& config) {
    std::uint64_t hash = exec::kFnv1a64Offset;
    exec::mix_u64(hash, core::pipeline_config_digest(config.pipeline));
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.policy));
    exec::mix_double(hash, config.drift_threshold);
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.retrain_every));
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.retrain_epochs));
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.train_epochs));
    // Retry/fault knobs are result-affecting through the journaled
    // attempt counts and the per-(epoch, attempt) fault draws.
    exec::mix_u64(hash, static_cast<std::uint64_t>(config.max_retries));
    exec::mix_u64(hash, config.faults.seed);
    exec::mix_u64(hash, config.faults.rules.size());
    for (const exec::FaultRule& rule : config.faults.rules) {
        exec::mix_string(hash, rule.site);
        exec::mix_u64(hash, static_cast<std::uint64_t>(rule.action));
        exec::mix_double(hash, rule.rate);
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
               obs::json::Value::of(exec::hex16(core::trace_fingerprint(trace))));
    header.set("config",
               obs::json::Value::of(exec::hex16(serve_config_digest(config))));
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
        trace::BoxTrace meta;
        meta.name = box.name;
        meta.cpu_capacity_ghz = box.cpu_capacity_ghz;
        meta.ram_capacity_gb = box.ram_capacity_gb;
        meta.vms.resize(box.vms.size());
        for (std::size_t vm = 0; vm < box.vms.size(); ++vm) {
            meta.vms[vm].name = box.vms[vm].name;
            meta.vms[vm].cpu_capacity_ghz = box.vms[vm].cpu_capacity_ghz;
            meta.vms[vm].ram_capacity_gb = box.vms[vm].ram_capacity_gb;
        }
        meta_.push_back(std::move(meta));
        auto state = std::make_unique<BoxState>();
        state->history.resize(box.vms.size() * 2);
        boxes_.push_back(std::move(state));
    }

    if (config_.journal_path.empty()) return;
    // Accept the longest decodable prefix whose per-box epochs are
    // contiguous from 0; the first bad record and everything after it
    // are truncated, like checksum corruption.
    std::vector<std::uint64_t> expected(boxes_.size(), 0);
    const auto replay = [&](const std::string& payload) {
        core::ServeEpochRecord record = core::decode_epoch_record(payload);
        if (record.box_index < 0 ||
            record.box_index >= static_cast<int>(boxes_.size())) {
            throw std::runtime_error("serve journal: box index out of range");
        }
        const auto bi = static_cast<std::size_t>(record.box_index);
        if (record.epoch != expected[bi]) {
            throw std::runtime_error("serve journal: epoch out of order");
        }
        ++expected[bi];
        boxes_[bi]->replay.push_back(std::move(record));
    };
    exec::JournalOpen opened =
        exec::open_journal(config_.journal_path,
                           serve_journal_header(trace, config_),
                           config_.resume, replay);
    journal_ = std::move(opened.writer);
    resumed_ = opened.resumed;
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
    const trace::BoxTrace& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const std::size_t num_vms = meta.vms.size();
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
    const trace::BoxTrace& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const double alpha = config_.pipeline.alpha;
    std::uint64_t bad = 0;
    bool ape_recorded = false;
    for (std::size_t vm = 0; vm < meta.vms.size(); ++vm) {
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
                    if (box.ape.bounds.empty()) {
                        const auto bounds = obs::default_histogram_bounds();
                        box.ape.bounds.assign(bounds.begin(), bounds.end());
                    }
                    box.ape.record(ape);
                    ape_recorded = true;
                }
            }
            const double static_cap = meta.vms[vm].capacity(
                is_cpu ? ts::ResourceKind::kCpu : ts::ResourceKind::kRam);
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
    if (ape_recorded) {
        // serve.ape merges the per-box histograms in box order, so its
        // floating-point sum does not depend on how connections interleave
        // their boxes' windows.
        obs::HistogramSnapshot merged;
        for (const auto& state : boxes_) merged.merge(state->ape);
        metrics_.histograms["serve.ape"] = std::move(merged);
    }
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
        box.drift = std::abs(mean_abs_rho(box.history) - box.corr_at_search);
        if (*box.drift > config_.drift_threshold) want_search = true;
        // The largest drift over the boxes, so the gauge does not depend
        // on the order in which connections interleave their boxes.
        double largest = 0.0;
        for (const auto& state : boxes_) {
            if (state->drift) largest = std::max(largest, *state->drift);
        }
        metrics_.gauges["serve.drift"] = largest;
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

core::PipelineConfig ServeEngine::model_config(
    obs::MetricsRegistry* metrics, const exec::CancellationToken* slo) {
    core::PipelineConfig config = config_.pipeline;
    config.metrics = metrics;
    config.cancel = slo;
    config.workspace = &workspace_;
    config.search.pool = nullptr;
    return config;
}

core::BoxModel::Training ServeEngine::training(
    int box_index, std::optional<std::uint64_t> retrain_epoch) const {
    core::BoxModel::Training training;
    training.epochs = config_.train_epochs;
    training.warm_epochs = config_.retrain_epochs;
    const std::uint64_t box_seed = exec::derive_seed(
        config_.pipeline.seed, static_cast<std::uint64_t>(box_index));
    const std::size_t series =
        boxes_[static_cast<std::size_t>(box_index)]->history.size();
    for (std::size_t s = 0; s < series; ++s) {
        std::uint64_t seed = exec::derive_seed(box_seed, s);
        if (retrain_epoch) seed = exec::derive_seed(seed, *retrain_epoch + 1);
        training.seeds.push_back(static_cast<unsigned>(seed));
    }
    return training;
}

bool ServeEngine::run_search(int box_index,
                             const exec::CancellationToken* slo) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    // Staged: the search fits a fresh model into a scratch registry, both
    // committed only when the whole unit finishes — an SLO trip mid-search
    // leaves the previous model (and metrics) untouched, so replay (which
    // skips the shed search entirely) reproduces the same state.
    obs::MetricsRegistry scratch;
    try {
        core::BoxModel model;
        model.fit(box.history, windows_per_day_, model_config(&scratch, slo),
                  training(box_index, std::nullopt), nullptr);
        scratch.add("serve.retrain.cold", model.signatures().size());
        box.model = std::move(model);
        box.has_model = true;
        box.corr_at_search = mean_abs_rho(box.history);
        metrics_.merge(scratch.snapshot());
        return true;
    } catch (const exec::OperationCancelled&) {
        return false;
    }
}

bool ServeEngine::run_retrain(int box_index, std::uint64_t epoch,
                              const exec::CancellationToken* slo) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    obs::MetricsRegistry scratch;
    try {
        // warm_update commits all or nothing: a cancelled retrain leaves
        // the previous weights exactly as they were (replay skips the
        // whole stage).
        const std::size_t rescaled =
            box.model.warm_update(box.history, model_config(&scratch, slo),
                                  training(box_index, epoch));
        if (rescaled > 0) scratch.add("serve.retrain.rescale", rescaled);
        metrics_.merge(scratch.snapshot());
        return true;
    } catch (const exec::OperationCancelled&) {
        return false;
    }
}

void ServeEngine::forecast_next(int box_index) {
    BoxState& box = *boxes_[static_cast<std::size_t>(box_index)];
    std::uint64_t held = 0;
    const core::BoxModel::Series next = box.model.forecast(
        box.history, 1, model_config(nullptr, nullptr), nullptr, &held);
    if (held > 0) counter("serve.forecast.nonfinite", held);
    box.last_forecast.resize(next.size());
    for (std::size_t i = 0; i < next.size(); ++i) box.last_forecast[i] = next[i][0];
    box.has_forecast = true;
}

void ServeEngine::resize_window(int box_index, bool max_min_only,
                                const exec::CancellationToken* slo) {
    const auto bi = static_cast<std::size_t>(box_index);
    const trace::BoxTrace& meta = meta_[bi];
    BoxState& box = *boxes_[bi];
    const std::size_t num_vms = meta.vms.size();
    const auto window = static_cast<std::size_t>(windows_per_day_);
    const core::PipelineConfig config = model_config(nullptr, slo);
    std::vector<double> rec[2];
    std::vector<core::Degradation> fallbacks;
    for (int kind = 0; kind < 2; ++kind) {
        core::BoxModel::Series demands(num_vms);
        std::vector<double> lower_bounds;
        for (std::size_t vm = 0; vm < num_vms; ++vm) {
            const std::size_t flat = vm * 2 + static_cast<std::size_t>(kind);
            demands[vm] = {std::max(0.0, box.last_forecast[flat])};
            if (config.use_lower_bounds) {
                // Peak demand over the last day of the rolling window.
                const std::vector<double>& history = box.history[flat];
                const std::size_t tail = std::min(window, history.size());
                double peak = 0.0;
                for (std::size_t t = history.size() - tail;
                     t < history.size(); ++t) {
                    peak = std::max(peak, history[t]);
                }
                lower_bounds.push_back(peak);
            }
        }
        rec[kind] = core::BoxModel::resize(
                        meta, kind == 0 ? ts::ResourceKind::kCpu
                                        : ts::ResourceKind::kRam,
                        std::move(demands), std::move(lower_bounds),
                        max_min_only ? resize::ResizePolicy::kMaxMinFairness
                                     : config_.policy,
                        config, &fallbacks)
                        .capacities;
    }
    // An infeasible ATM resize falls back to max-min deterministically
    // (not an SLO trip), so replay needs no journal bit for it. Counted
    // only once both resources are sized: a resize the SLO cancels midway
    // is redone as max-min, and replay never sees the discarded attempt.
    if (!fallbacks.empty()) counter("serve.resize.fallback", fallbacks.size());
    box.rec_cpu = std::move(rec[0]);
    box.rec_ram = std::move(rec[1]);
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
