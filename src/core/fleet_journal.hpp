#pragma once

#include <cstdint>
#include <string>

#include "core/fleet.hpp"

namespace atm::core {

/// Schema tag of the fleet checkpoint journal's header record. Bump when
/// the record encoding changes incompatibly, or when a build's results
/// change under an otherwise identical header (v2: vector-path MLP
/// numerics became the scalar path's; v3: MLP activations moved from
/// libm to the project's own; v4: per-box metric snapshots lost the DTW
/// memo's counter): a resume against an older journal then starts fresh
/// instead of mis-decoding or mixing results.
inline constexpr const char* kFleetJournalSchema = "atm.fleet-journal.v4";

/// Schema tag of the serve daemon's epoch journal. Same framing as the
/// fleet journal (exec::JournalWriter), but each record is one applied
/// streaming window rather than one finished box. Versioned like the
/// fleet journal (v2 and v3 for the same reasons; v4: the drift gate's
/// correlation arithmetic became ts::correlation_matrix's), so an older
/// daemon's journal restarts fresh instead of tripping the
/// replay-divergence check.
inline constexpr const char* kServeJournalSchema = "atm.serve-journal.v4";

/// Digest of everything about the *input data* that affects per-box
/// results: windows_per_day, per-box names/gap flags/VM counts and the
/// exact bit patterns of every sample. Two traces with the same
/// fingerprint produce the same fleet results for a given config.
[[nodiscard]] std::uint64_t trace_fingerprint(const trace::Trace& trace);

/// Digest of every PipelineConfig field that affects per-box results.
/// Shared by the fleet digest below and the serve daemon's journal
/// header (which binds serve knobs separately).
[[nodiscard]] std::uint64_t pipeline_config_digest(const PipelineConfig& config);

/// Digest of every FleetConfig field that affects per-box *results*.
/// Execution-only knobs are deliberately excluded so a journal stays
/// valid across them: `jobs` (results are schedule-independent by
/// contract), `checkpoint_path`/`resume` (the journal itself),
/// `box_deadline_seconds` and the stop token (interrupted boxes are never
/// journaled, so resuming with a longer deadline just retries them).
[[nodiscard]] std::uint64_t fleet_config_digest(const FleetConfig& config);

/// The journal's header payload: one compact JSON line binding the file
/// to (schema, trace fingerprint, config digest, seed). A resume whose
/// header does not match byte-for-byte ignores the old journal and
/// starts fresh.
[[nodiscard]] std::string fleet_journal_header(const trace::Trace& trace,
                                               const FleetConfig& config);

/// Encodes one completed box outcome as a compact single-line JSON
/// payload for exec::JournalWriter. Everything that feeds the fleet
/// aggregates and the resume-equivalence contract is included: the error
/// triple or the full BoxPipelineResult (search, APEs, predicted demands,
/// policy tickets, degradations, metrics snapshot) plus the attempt
/// count. Doubles are serialized at full precision, so a decoded record
/// is bit-identical to the in-memory original.
[[nodiscard]] std::string encode_box_record(const FleetBoxResult& box);

/// Inverse of encode_box_record. Throws std::runtime_error (or the JSON
/// parser's errors) on malformed payloads; the fleet driver treats a
/// record that fails to decode like checksum corruption — the journal is
/// truncated to the records before it.
[[nodiscard]] FleetBoxResult decode_box_record(const std::string& payload);

/// One applied streaming window in the serve journal. The record captures
/// the *control decisions* the daemon took (shed-load rung, whether search
/// or a retrain ran, how many apply attempts it cost) plus the emitted
/// recommendation. Warm restart replays incoming windows below a box's
/// recorded next epoch with these decisions *forced*, so the rebuilt
/// state, counters, and recommendations are bit-identical to the
/// uninterrupted run even when the original decisions were driven by
/// wall-clock SLO deadlines that would not reproduce.
struct ServeEpochRecord {
    int box_index = 0;
    std::uint64_t epoch = 0;
    /// Shed-load ladder, encoded as a bitmask because the rungs are not
    /// strictly nested (a window can compute a fresh forecast and still
    /// shed the resize step): 0 full work, bit 1 = model refresh skipped
    /// (search or retrain), bit 2 = last forecast reused, bit 4 = max-min
    /// fallback resize, bit 8 = ingest only (retries exhausted, or no
    /// model and nothing to shed to).
    int ladder = 0;
    bool searched = false;  ///< signature search (re-)ran this window
    int retrained = 0;      ///< 1 when a retrain (warm or cold) committed
    int attempts = 1;       ///< apply attempts (retries = attempts - 1)
    std::vector<double> cpu;  ///< per-VM recommended CPU allocation (GHz)
    std::vector<double> ram;  ///< per-VM recommended RAM allocation (GB)
};

/// Encode/decode one ServeEpochRecord as a compact single-line JSON
/// payload (doubles at full precision, same contract as box records).
/// decode throws on malformed payloads and on fields out of range
/// (ladder outside 0..15, retrained not 0/1, attempts < 1); the serve
/// driver treats that like checksum corruption and truncates the journal
/// at the bad record.
[[nodiscard]] std::string encode_epoch_record(const ServeEpochRecord& record);
[[nodiscard]] ServeEpochRecord decode_epoch_record(const std::string& payload);

}  // namespace atm::core
