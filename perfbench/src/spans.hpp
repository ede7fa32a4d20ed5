#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary steady epoch (the recorder's origin).
[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// In-memory span log for the traced run: one span per call the benchmark
/// makes into a layer (name, start, end, parent, and one id per box or
/// window). Spans are kept in memory and written once, when the run ends.
/// Thread-safe: the stream generator records from several threads.
class SpanRecorder {
  public:
    static constexpr int kNoParent = -1;

    explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// Records a finished span; returns its index (a parent handle), or
    /// kNoParent when disabled.
    int add(const std::string& name, Clock::time_point start,
            Clock::time_point end, int parent = kNoParent, std::uint64_t id = 0);

    /// Opens a span whose end is filled in by close(); for parents whose
    /// children are recorded before they finish.
    int open(const std::string& name, int parent = kNoParent, std::uint64_t id = 0);
    void close(int span);

    [[nodiscard]] bool enabled() const { return enabled_; }

    /// Per span name: count, total and self time (duration minus the part
    /// covered by direct children), in seconds.
    struct NameTotals {
        std::size_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };
    [[nodiscard]] std::map<std::string, NameTotals> totals() const;

    /// Writes every span as one JSON array of
    /// {"name","start_us","end_us","parent","id"} objects (times relative
    /// to the recorder's creation).
    void write_json(const std::string& path) const;

  private:
    struct Span {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = kNoParent;
        std::uint64_t id = 0;
    };

    const bool enabled_;
    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

}  // namespace perfbench
