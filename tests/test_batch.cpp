// Batch engine: job-count independence of the per-spec records, poisoned
// specs failing in isolation, the record projection of pipeline results, the
// schema stability of the JSON report, the store never caching a
// deadline-cut search, and the persistent work-stealing pool's batch-reuse
// contract.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "batch/pool.hpp"
#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "store/result_store.hpp"

using namespace asynth;
using batch::batch_options;
using batch::batch_report;
using batch::run_batch;

namespace {

/// A small mixed workload: two paper specs + four generated ones.
std::vector<benchmarks::named_spec> small_workload() {
    std::vector<benchmarks::named_spec> specs;
    specs.push_back({"fig1", benchmarks::fig1_controller()});
    specs.push_back({"lr", benchmarks::lr_process()});
    benchmarks::generator_options gen;
    gen.size = 3;
    auto more = benchmarks::generate_workload(1, 4, gen);
    specs.insert(specs.end(), more.begin(), more.end());
    return specs;
}

/// A spec that parses but fails state-graph generation (two a+ in a row).
stg poisoned_spec() {
    auto net = parse_astg(R"(.model poison
.outputs a
.graph
a+/1 p1
p1 a+/2
a+/2 p2
p2 a+/1
.marking { p2 }
.end
)");
    return net;
}

/// Everything except the wall-clock fields must match across job counts.
void expect_records_equal(const batch::spec_record& a, const batch::spec_record& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.synthesized, b.synthesized);
    EXPECT_EQ(a.failed_stage, b.failed_stage);
    EXPECT_EQ(a.message, b.message);
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.arcs, b.arcs);
    EXPECT_EQ(a.signals, b.signals);
    EXPECT_EQ(a.explored, b.explored);
    EXPECT_EQ(a.csc_solved, b.csc_solved);
    EXPECT_EQ(a.csc_signals, b.csc_signals);
    EXPECT_DOUBLE_EQ(a.initial_cost, b.initial_cost);
    EXPECT_DOUBLE_EQ(a.reduced_cost, b.reduced_cost);
    EXPECT_EQ(a.literals, b.literals);
    EXPECT_DOUBLE_EQ(a.area, b.area);
    EXPECT_DOUBLE_EQ(a.cycle, b.cycle);
}

}  // namespace

TEST(pool, persistent_pool_runs_many_batches) {
    // One pool, many run() calls of varying size (the exploration engine's
    // usage: several small batches per search level): every index of every
    // batch must run exactly once, including sizes below, at and above the
    // worker count, and empty batches.
    batch::work_stealing_pool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    for (std::size_t tasks : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{64},
                              std::size_t{7}, std::size_t{1000}}) {
        std::vector<std::atomic<int>> hits(tasks);
        pool.run(tasks, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < tasks; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "batch size " << tasks << " index " << i;
    }
}

TEST(pool, single_worker_pool_is_serial) {
    batch::work_stealing_pool pool(1);
    std::vector<std::size_t> order;
    pool.run(8, [&](std::size_t i) { order.push_back(i); });  // no race: 1 worker
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(batch, records_independent_of_job_count) {
    auto specs = small_workload();
    batch_options one, many;
    one.jobs = 1;
    many.jobs = 4;
    auto a = run_batch(specs, one);
    auto b = run_batch(specs, many);
    EXPECT_EQ(a.jobs, 1u);
    EXPECT_EQ(b.jobs, 4u);
    ASSERT_EQ(a.specs.size(), specs.size());
    ASSERT_EQ(b.specs.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].name);
        expect_records_equal(a.specs[i], b.specs[i]);
        // Records land in input order regardless of which worker ran them.
        EXPECT_EQ(a.specs[i].name, specs[i].name);
    }
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.synthesized, b.synthesized);
    EXPECT_EQ(a.total_states, b.total_states);
}

TEST(batch, poisoned_spec_fails_alone) {
    auto specs = small_workload();
    specs.insert(specs.begin() + 1, {"poison", poisoned_spec()});
    batch_options opt;
    opt.jobs = 3;
    auto rep = run_batch(specs, opt);
    ASSERT_EQ(rep.specs.size(), specs.size());
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(rep.completed, specs.size() - 1);
    const auto& bad = rep.specs[1];
    EXPECT_EQ(bad.name, "poison");
    EXPECT_FALSE(bad.completed);
    EXPECT_FALSE(bad.failed_stage.empty());
    EXPECT_FALSE(bad.message.empty());
    for (std::size_t i = 0; i < rep.specs.size(); ++i) {
        if (i != 1) {
            EXPECT_TRUE(rep.specs[i].completed) << rep.specs[i].name;
        }
    }
}

TEST(batch, record_projection_of_fig1) {
    auto r = run_pipeline(benchmarks::fig1_controller());
    const store::result_summary rec = store::summarize(r);
    EXPECT_TRUE(rec.completed);
    EXPECT_FALSE(rec.synthesized);
    EXPECT_TRUE(rec.failed_stage.empty());
    EXPECT_FALSE(rec.message.empty());  // the CSC verdict travels along
    EXPECT_EQ(rec.states, 5u);
    EXPECT_EQ(rec.arcs, 6u);
    EXPECT_FALSE(rec.csc_solved);
    EXPECT_EQ(rec.area, -1.0);
    EXPECT_EQ(rec.timings.size(), r.timings.size());
    EXPECT_DOUBLE_EQ(rec.seconds, r.total_seconds);
    // The report row and the store record hold one and the same summary.
    const store::stored_record stored = store::record_of(r, "fp");
    EXPECT_TRUE(rec == stored);
}

TEST(batch, aggregates_and_percentiles) {
    batch_options opt;
    opt.jobs = 2;
    auto rep = run_batch(small_workload(), opt);
    EXPECT_EQ(rep.count, rep.specs.size());
    EXPECT_EQ(rep.completed + rep.failed, rep.count);
    EXPECT_GT(rep.wall_seconds, 0.0);
    EXPECT_GT(rep.specs_per_second, 0.0);
    double cpu = 0.0;
    for (const auto& s : rep.specs) cpu += s.seconds;
    EXPECT_DOUBLE_EQ(rep.cpu_seconds, cpu);
    ASSERT_FALSE(rep.stages.empty());
    for (const auto& st : rep.stages) {
        SCOPED_TRACE(st.stage);
        // No parse stage: the sweep starts from in-memory specs.
        EXPECT_NE(st.stage, "parse");
        // emit/verify run only for specs that synthesised a circuit; every
        // other stage runs on every completed spec.
        if (st.stage == "emit" || st.stage == "verify")
            EXPECT_LE(st.runs, rep.count);
        else
            EXPECT_EQ(st.runs, rep.count);
        EXPECT_LE(st.p50_ms, st.p90_ms);
        EXPECT_LE(st.p90_ms, st.max_ms);
        EXPECT_LE(st.max_ms, st.total_ms + 1e-12);
    }
}

TEST(batch, verify_impl_sweep_checks_every_synthesised_spec) {
    batch_options opt;
    opt.jobs = 2;
    auto rep = run_batch(small_workload(), opt);
    EXPECT_EQ(rep.failed, 0u) << "a diverging implementation would fail its spec";
    EXPECT_GT(rep.synthesized, 0u);
    EXPECT_EQ(rep.impl_checked, rep.synthesized);
    for (const auto& s : rep.specs) {
        SCOPED_TRACE(s.name);
        EXPECT_EQ(s.impl_checked, s.synthesized);
        if (s.impl_checked) {
            EXPECT_GT(s.impl_states, 0u);
        }
    }
    std::string json = batch::report_json(rep);
    EXPECT_NE(json.find("\"impl_checked\": " + std::to_string(rep.impl_checked)),
              std::string::npos);
    // The verify stage's timing joins the percentile table (schema v3).
    bool saw_verify = false;
    for (const auto& st : rep.stages) saw_verify |= st.stage == "verify";
    EXPECT_TRUE(saw_verify);
}

TEST(batch, report_json_is_schema_stable) {
    batch_options opt;
    opt.jobs = 2;
    auto rep = run_batch(small_workload(), opt);
    std::string json = batch::report_json(rep);
    // Aggregate block, stage percentiles and one object per spec, with the
    // documented keys in a fixed order.
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json[json.size() - 2], '}');
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"tool\": \"asynth batch\""), std::string::npos);
    EXPECT_NE(json.find("\"specs_per_second\": "), std::string::npos);
    // schema_version 2: store efficiency + queue-wait aggregates are always
    // present (zero for a storeless sweep) so readers can rely on the keys.
    EXPECT_NE(json.find("\"store_hits\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"store_misses\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait_p90_ms\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"store_hit\": false"), std::string::npos);
    // schema_version 3: the verification aggregate is always present and
    // every spec carries its flag; every synthesised spec is verified, and
    // fig1 (no circuit) is not.
    EXPECT_GT(rep.synthesized, 0u);
    EXPECT_EQ(rep.impl_checked, rep.synthesized);
    EXPECT_NE(json.find("\"impl_checked\": " + std::to_string(rep.synthesized)),
              std::string::npos);
    EXPECT_NE(json.find("\"impl_checked\": false"), std::string::npos);
    // schema_version 4: the metrics-registry counters block sits between the
    // aggregates and the stage percentiles; a real sweep always records at
    // least the pipeline run counter.
    EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(json.find("\"asynth_pipeline_runs_total\": "), std::string::npos);
    // schema_version 6: every spec carries its deadline flag (false for an
    // undeadlined sweep); the v5 quality fields are gone.
    EXPECT_NE(json.find("\"deadline_hit\": false"), std::string::npos);
    EXPECT_EQ(json.find("\"quality\""), std::string::npos);
    EXPECT_NE(json.find("\"stage_percentiles\": ["), std::string::npos);
    EXPECT_NE(json.find("\"specs\": ["), std::string::npos);
    EXPECT_LT(json.find("\"schema_version\""), json.find("\"counters\""));
    EXPECT_LT(json.find("\"counters\""), json.find("\"stage_percentiles\""));
    EXPECT_LT(json.find("\"stage_percentiles\""), json.find("\"specs\""));
    for (const auto& s : rep.specs)
        EXPECT_NE(json.find("\"name\": \"" + s.name + "\""), std::string::npos) << s.name;
    // Diagnostics are escaped, never raw (quotes/backslashes would break
    // downstream parsers).
    EXPECT_EQ(json.find("\n\""), std::string::npos);
}

// A sweep with a failing spec flushes a partial report to the checkpoint
// path (batch_options::checkpoint_file) before the sweep finishes its bookkeeping,
// so a killed run still leaves a parsable report behind.
TEST(batch, failing_spec_flushes_a_checkpoint_report) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "asynth_batch_checkpoint_test.json").string();
    fs::remove(path);

    std::vector<benchmarks::named_spec> specs;
    specs.push_back({"good", benchmarks::fig1_controller()});
    specs.push_back({"poison", poisoned_spec()});
    batch_options opt;
    opt.jobs = 1;  // deterministic order: "good" finishes before "poison" fails
    opt.checkpoint_file = path;
    auto rep = run_batch(specs, opt);
    EXPECT_EQ(rep.failed, 1u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no checkpoint written to " << path;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    // The checkpoint is a normal v6 report over the rows finished so far --
    // here both rows, since the failing one flushed after its own record landed.
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"good\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"poison\""), std::string::npos);
    EXPECT_NE(json.find("\"completed\": false"), std::string::npos);
    fs::remove(path);
}

// Without a failure nothing is checkpointed: the final report is the CLI's
// job, and a clean sweep must not pay the serialisation twice.
TEST(batch, clean_sweep_writes_no_checkpoint) {
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "asynth_batch_no_checkpoint_test.json").string();
    fs::remove(path);
    std::vector<benchmarks::named_spec> specs;
    specs.push_back({"good", benchmarks::fig1_controller()});
    batch_options opt;
    opt.checkpoint_file = path;
    auto rep = run_batch(specs, opt);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_FALSE(fs::exists(path));
}

TEST(batch, empty_workload) {
    auto rep = run_batch({}, batch_options{});
    EXPECT_EQ(rep.count, 0u);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_TRUE(rep.specs.empty());
    std::string json = batch::report_json(rep);
    EXPECT_NE(json.find("\"specs\": []"), std::string::npos);
}

TEST(batch, deadline_cut_anytime_results_are_not_cached) {
    // A search cut by its deadline depends on the machine's speed,
    // not only on (spec, options): the store must not keep it, so the same
    // sweep run again misses instead of replaying the cut result.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("asynth_batch_anytime_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::vector<benchmarks::named_spec> specs{{"mmu", benchmarks::mmu_controller()}};
    batch_options opt;
    opt.jobs = 1;
    opt.pipeline.search.deadline_ms = 1;
    opt.store = store::result_store::open(dir.string());
    ASSERT_TRUE(opt.store.enabled());

    const auto first = run_batch(specs, opt);
    ASSERT_EQ(first.specs.size(), 1u);
    ASSERT_TRUE(first.specs[0].completed);
    // The multi-level search cannot finish inside 1 ms: the row says so.
    ASSERT_TRUE(first.specs[0].deadline_hit);
    EXPECT_EQ(first.store_misses, 1u);

    const auto second = run_batch(specs, opt);
    EXPECT_EQ(second.store_hits, 0u);
    EXPECT_EQ(second.store_misses, 1u);
    EXPECT_FALSE(second.specs[0].store_hit);
    std::filesystem::remove_all(dir);
}
