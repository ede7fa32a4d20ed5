// Golden-run regression suite: runs the full fleet pipeline on a small
// fixed-seed synthetic trace and compares the outcome — signatures, APEs,
// per-policy tickets, and the deterministic metrics counters — against a
// checked-in JSON file. Any behavioral drift in clustering, forecasting,
// reconstruction, or resizing fails this suite even when unit tests of
// each stage still pass.
//
// Regenerating after an *intentional* behavior change:
//
//   ATM_UPDATE_GOLDEN=1 ./build/tests/test_golden
//
// rewrites tests/golden/fleet_seed42.json in the source tree (the path is
// baked in via the ATM_GOLDEN_DIR compile definition); review the diff
// and commit it together with the change that caused it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "core/fleet.hpp"
#include "exec/io.hpp"
#include "linalg/simd/simd.hpp"
#include "obs/json.hpp"
#include "tracegen/generator.hpp"

#ifndef ATM_GOLDEN_DIR
#error "ATM_GOLDEN_DIR must point at the source-tree golden directory"
#endif

namespace atm {
namespace {

namespace json = obs::json;

constexpr const char* kGoldenFile = ATM_GOLDEN_DIR "/fleet_seed42.json";

/// Pins the SIMD dispatch for a test's scope and restores the ambient
/// path afterwards (exception/skip-safe). The checked-in golden file is
/// generated on the scalar path, the reference every vector path must
/// reproduce bit for bit (linalg/simd/simd.hpp FP policy).
class ScopedSimdPath {
  public:
    explicit ScopedSimdPath(simd::Path path) : saved_(simd::active_path()) {
        simd::set_path(path);
    }
    ScopedSimdPath(const ScopedSimdPath&) = delete;
    ScopedSimdPath& operator=(const ScopedSimdPath&) = delete;
    ~ScopedSimdPath() { simd::set_path(saved_); }

  private:
    simd::Path saved_;
};

/// The fixed scenario: everything here is part of the golden contract.
trace::Trace golden_trace() {
    trace::TraceGenOptions options;
    options.num_boxes = 5;
    options.num_days = 6;
    options.windows_per_day = 24;
    options.gappy_box_fraction = 0.0;
    options.seed = 42;
    return trace::generate_trace(options);
}

core::FleetConfig golden_config() {
    core::FleetConfig config;
    config.pipeline.search.method = core::ClusteringMethod::kDtw;
    config.pipeline.temporal = forecast::TemporalModel::kNeuralNetwork;
    config.pipeline.train_days = 5;
    config.pipeline.seed = 42;
    config.jobs = 2;
    config.collect_metrics = true;
    config.policies = {resize::ResizePolicy::kAtmGreedy,
                       resize::ResizePolicy::kMaxMinFairness,
                       resize::ResizePolicy::kStingy};
    return config;
}

// Works for both per-box core::PolicyTickets (int) and the fleet's
// core::FleetPolicyTotals (int64) — the serialized JSON is identical.
template <typename PolicyLike>
json::Value policy_to_json(const PolicyLike& p) {
    json::Value entry = json::Value::make_object();
    entry.set("policy", json::Value::of(resize::to_string(p.policy)));
    entry.set("cpu_before", json::Value::of(std::int64_t{p.cpu_before}));
    entry.set("cpu_after", json::Value::of(std::int64_t{p.cpu_after}));
    entry.set("ram_before", json::Value::of(std::int64_t{p.ram_before}));
    entry.set("ram_after", json::Value::of(std::int64_t{p.ram_after}));
    return entry;
}

/// Projects a fleet run onto the golden schema. Timers are deliberately
/// absent: they are wall-clock measurements, not behavior.
json::Value golden_view(const core::FleetResult& fleet) {
    json::Value doc = json::Value::make_object();
    doc.set("schema", json::Value::of("atm.golden.v1"));

    json::Value summary = json::Value::make_object();
    summary.set("boxes_in_trace", json::Value::of(
                                      static_cast<std::uint64_t>(fleet.boxes_in_trace)));
    summary.set("boxes_skipped",
                json::Value::of(static_cast<std::uint64_t>(fleet.boxes_skipped)));
    summary.set("boxes_failed",
                json::Value::of(static_cast<std::uint64_t>(fleet.boxes_failed)));
    summary.set("mean_ape_all", json::Value::of(fleet.mean_ape_all));
    summary.set("mean_ape_peak", json::Value::of(fleet.mean_ape_peak));
    json::Value totals = json::Value::make_array();
    for (const core::FleetPolicyTotals& p : fleet.totals) {
        totals.array.push_back(policy_to_json(p));
    }
    summary.set("totals", std::move(totals));

    json::Value counters = json::Value::make_object();
    for (const auto& [name, value] : fleet.metrics.counters) {
        counters.set(name, json::Value::of(value));
    }
    summary.set("metrics_counters", std::move(counters));
    doc.set("fleet", std::move(summary));

    json::Value boxes = json::Value::make_array();
    for (const core::FleetBoxResult& b : fleet.boxes) {
        json::Value box = json::Value::make_object();
        box.set("name", json::Value::of(b.box_name));
        box.set("error", json::Value::of(b.error));
        json::Value signatures = json::Value::make_array();
        for (int s : b.result.search.signatures) {
            signatures.array.push_back(json::Value::of(std::int64_t{s}));
        }
        box.set("signatures", std::move(signatures));
        box.set("num_clusters",
                json::Value::of(std::int64_t{b.result.search.num_clusters}));
        box.set("ape_all", json::Value::of(b.result.ape_all));
        box.set("ape_peak", json::Value::of(b.result.ape_peak));
        json::Value policies = json::Value::make_array();
        for (const core::PolicyTickets& p : b.result.policies) {
            policies.array.push_back(policy_to_json(p));
        }
        box.set("policies", std::move(policies));
        boxes.array.push_back(std::move(box));
    }
    doc.set("boxes", std::move(boxes));
    return doc;
}

/// Recursive compare: exact for strings/bools/integers/structure, a tiny
/// relative tolerance for non-integral numbers (doubles cross compiler
/// versions, and code outside the MLP kernels still calls libm; APEs
/// agree to ~1e-12 but we allow 1e-9).
void expect_json_near(const json::Value& expected, const json::Value& actual,
                      const std::string& path) {
    ASSERT_EQ(expected.type, actual.type) << "at " << path;
    switch (expected.type) {
        case json::Value::Type::kNull:
            break;
        case json::Value::Type::kBool:
            EXPECT_EQ(expected.boolean, actual.boolean) << "at " << path;
            break;
        case json::Value::Type::kNumber: {
            const double e = expected.number;
            const double a = actual.number;
            if (std::nearbyint(e) == e && std::nearbyint(a) == a) {
                EXPECT_EQ(e, a) << "at " << path;
            } else {
                const double scale = std::max({1.0, std::fabs(e), std::fabs(a)});
                EXPECT_NEAR(e, a, 1e-9 * scale) << "at " << path;
            }
            break;
        }
        case json::Value::Type::kString:
            EXPECT_EQ(expected.string, actual.string) << "at " << path;
            break;
        case json::Value::Type::kArray: {
            ASSERT_EQ(expected.array.size(), actual.array.size()) << "at " << path;
            for (std::size_t i = 0; i < expected.array.size(); ++i) {
                expect_json_near(expected.array[i], actual.array[i],
                                 path + "[" + std::to_string(i) + "]");
            }
            break;
        }
        case json::Value::Type::kObject: {
            ASSERT_EQ(expected.object.size(), actual.object.size())
                << "at " << path;
            for (std::size_t i = 0; i < expected.object.size(); ++i) {
                EXPECT_EQ(expected.object[i].first, actual.object[i].first)
                    << "at " << path;
                expect_json_near(expected.object[i].second,
                                 actual.object[i].second,
                                 path + "." + expected.object[i].first);
            }
            break;
        }
    }
}

TEST(GoldenFleetTest, MatchesCheckedInGoldenRun) {
    // Forced to the scalar path: this comparison (and the
    // ATM_UPDATE_GOLDEN regen below) must be independent of the machine's
    // best ISA. Vectorized paths are pinned to it exactly further down.
    const ScopedSimdPath scoped(simd::Path::kScalar);
    const trace::Trace t = golden_trace();
    const core::FleetResult fleet =
        core::run_pipeline_on_fleet(t, golden_config());
    ASSERT_EQ(fleet.boxes_failed, 0u);
    const json::Value actual = golden_view(fleet);

    if (const char* update = std::getenv("ATM_UPDATE_GOLDEN");
        update != nullptr && std::string(update) == "1") {
        // Atomic write: an interrupted regen must not truncate the
        // checked-in golden file.
        exec::write_file_atomic(kGoldenFile, json::serialize(actual, 2) + '\n');
        GTEST_SKIP() << "golden file regenerated at " << kGoldenFile
                     << "; review the diff and re-run without "
                        "ATM_UPDATE_GOLDEN";
    }

    std::ifstream in(kGoldenFile);
    ASSERT_TRUE(in) << "missing " << kGoldenFile
                    << " — run ATM_UPDATE_GOLDEN=1 ./test_golden once";
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const json::Value expected = json::parse(text);
    expect_json_near(expected, actual, "$");
}

TEST(GoldenFleetTest, ScalarPathRegenerationIsByteIdentical) {
    // The ATM_UPDATE_GOLDEN contract: regenerating on the scalar path is
    // deterministic down to the byte, so a golden diff always means a
    // real behavior change, never FP noise. (Cross-machine the doubles
    // may still vary with libm outside the MLP kernels, whose
    // activations are the project's own — that is what
    // expect_json_near's 1e-9 absorbs — but one machine must reproduce
    // itself exactly.)
    const ScopedSimdPath scoped(simd::Path::kScalar);
    const trace::Trace t = golden_trace();
    const core::FleetResult first =
        core::run_pipeline_on_fleet(t, golden_config());
    const core::FleetResult second =
        core::run_pipeline_on_fleet(t, golden_config());
    EXPECT_EQ(json::serialize(golden_view(first), 2),
              json::serialize(golden_view(second), 2));
}

TEST(GoldenFleetTest, VectorizedPathsMatchGoldenWithinTolerance) {
    // The tolerance is zero: DTW and MLP training are bit-identical on
    // every path, so each vector path's golden view — APEs, tickets,
    // signatures and every counter, MLP epochs and MCKP iterations
    // included — must serialize to exactly the scalar path's bytes
    // (%.17g, lossless), which MatchesCheckedInGoldenRun pins to the
    // checked-in file.
    std::vector<simd::Path> vector_paths;
    for (simd::Path p : simd::supported_paths()) {
        if (p != simd::Path::kScalar) vector_paths.push_back(p);
    }
    if (vector_paths.empty()) {
        GTEST_SKIP() << "no vectorized SIMD path available on this machine";
    }
    const trace::Trace t = golden_trace();

    std::string scalar_bytes;
    {
        const ScopedSimdPath scoped(simd::Path::kScalar);
        scalar_bytes = json::serialize(
            golden_view(core::run_pipeline_on_fleet(t, golden_config())), 2);
    }
    for (simd::Path path : vector_paths) {
        const ScopedSimdPath scoped(path);
        const core::FleetResult fleet =
            core::run_pipeline_on_fleet(t, golden_config());
        ASSERT_EQ(fleet.boxes_failed, 0u) << simd::to_string(path);
        EXPECT_EQ(fleet.simd_path, simd::to_string(path));
        EXPECT_EQ(scalar_bytes, json::serialize(golden_view(fleet), 2))
            << simd::to_string(path);
    }
}

TEST(GoldenFleetTest, GoldenRunIsScheduleInvariant) {
    // The golden file is generated at jobs=2; this guards the implicit
    // assumption that regenerating on any machine gives the same file.
    const trace::Trace t = golden_trace();
    core::FleetConfig config = golden_config();
    const core::FleetResult at_two = core::run_pipeline_on_fleet(t, config);
    config.jobs = 1;
    const core::FleetResult serial = core::run_pipeline_on_fleet(t, config);
    expect_json_near(golden_view(serial), golden_view(at_two), "$");
}

}  // namespace
}  // namespace atm
