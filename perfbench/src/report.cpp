#include "report.hpp"

#include <cstdio>

namespace perfbench {

void print_report(const std::string& workload, const Outcome& outcome,
                  const atm::obs::json::Value& stamp) {
    namespace json = atm::obs::json;
    std::printf("%-32s %16s %-6s %8s  %s\n", ("[" + workload + "] metric").c_str(),
                "value", "unit", "samples", "note");
    for (const Metric& m : outcome.metrics) {
        std::printf("%-32s %16.6g %-6s %8zu  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples, m.note.c_str());
    }
    for (const std::string& f : outcome.failures) {
        std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("stamp: %s\n", json::serialize(stamp, 0).c_str());

    json::Value metrics = json::Value::make_object();
    for (const Metric& m : outcome.metrics) {
        json::Value v = json::Value::make_object();
        v.set("value", json::Value::of(m.value));
        v.set("unit", json::Value::of(m.unit));
        metrics.set(m.name, std::move(v));
    }
    json::Value result = json::Value::make_object();
    result.set("correct", json::Value::of(outcome.failures.empty()));
    result.set("attempted", json::Value::of(outcome.attempted));
    result.set("failed", json::Value::of(outcome.failed));
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", json::serialize(result, 0).c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
