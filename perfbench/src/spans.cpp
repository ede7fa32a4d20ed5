#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "exec/io.hpp"
#include "obs/json.hpp"

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

int SpanRecorder::add(const std::string& name, Clock::time_point start,
                      Clock::time_point end, int parent, std::uint64_t id) {
    if (!enabled_) return kNoParent;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start, end, parent, id});
    return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::open(const std::string& name, int parent, std::uint64_t id) {
    const Clock::time_point now = Clock::now();
    return add(name, now, now, parent, id);
}

void SpanRecorder::close(int span) {
    if (span < 0) return;
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(span)].end = now;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::totals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Children's intervals per parent, merged so overlapping children
    // (concurrent generator threads) are not subtracted twice.
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
        }
    }
    std::map<std::string, NameTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        double covered = 0.0;
        Clock::time_point cursor = s.start;
        for (const auto& [begin, end] : intervals) {
            const Clock::time_point lo = std::max(begin, cursor);
            const Clock::time_point hi = std::min(end, s.end);
            if (hi > lo) {
                covered += seconds_between(lo, hi);
                cursor = hi;
            }
        }
        NameTotals& t = out[s.name];
        const double duration = seconds_between(s.start, s.end);
        ++t.count;
        t.total_s += duration;
        t.self_s += duration - covered;
    }
    return out;
}

void SpanRecorder::write_json(const std::string& path) const {
    namespace json = atm::obs::json;
    json::Value array = json::Value::make_array();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        array.array.reserve(spans_.size());
        for (const Span& s : spans_) {
            json::Value v = json::Value::make_object();
            v.set("name", json::Value::of(s.name));
            v.set("start_us", json::Value::of(1e6 * seconds_between(origin_, s.start)));
            v.set("end_us", json::Value::of(1e6 * seconds_between(origin_, s.end)));
            v.set("parent", json::Value::of(static_cast<std::int64_t>(s.parent)));
            v.set("id", json::Value::of(s.id));
            array.array.push_back(std::move(v));
        }
    }
    atm::exec::write_file_atomic(path, json::serialize(array, 0) + "\n");
}

}  // namespace perfbench
