// The content-addressed result store: record round-trips, key discipline,
// and -- most importantly -- the robustness battery: truncated, bit-flipped
// and version-skewed on-disk records must read as *misses* (re-synthesis),
// never crash and never return wrong data; concurrent readers and writers
// (multiple handles, as across processes) must stay torn-read free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "batch/batch.hpp"
#include "benchmarks/corpus.hpp"
#include "petri/astg_io.hpp"
#include "option_values.hpp"
#include "pipeline/pipeline.hpp"
#include "service/options.hpp"
#include "store/result_store.hpp"

using namespace asynth;
namespace fs = std::filesystem;

namespace {

/// Fresh store directory per test, removed on teardown.
struct store_test : ::testing::Test {
    std::string dir;
    void SetUp() override {
        dir = (fs::temp_directory_path() /
               ("asynth_store_test_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                  .string();
        fs::remove_all(dir);
    }
    void TearDown() override { fs::remove_all(dir); }
};

store::stored_record sample_record(const char* msg = "") {
    pipeline_result r = run_pipeline(benchmarks::lr_process());
    store::stored_record rec = store::record_of(r, "fp-test");
    rec.message = msg;
    return rec;
}

/// The summary part of a record or report row, for whole-summary compares.
const store::result_summary& summary(const store::result_summary& s) { return s; }

/// The single record file under dir/objects (fails the test when not unique).
std::string sole_object_path(const std::string& dir) {
    std::vector<std::string> found;
    for (const auto& e : fs::recursive_directory_iterator(dir + "/objects"))
        if (e.is_regular_file()) found.push_back(e.path().string());
    EXPECT_EQ(found.size(), 1u);
    return found.empty() ? std::string() : found[0];
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return std::move(text).str();
}

void spit(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

}  // namespace

// ---- record serialisation ---------------------------------------------------

TEST(store_record, roundtrips_a_real_pipeline_result) {
    pipeline_result r = run_pipeline(benchmarks::lr_process());
    ASSERT_TRUE(r.completed);
    const store::stored_record rec = store::record_of(r, "fp");
    store::stored_record back;
    ASSERT_EQ(store::parse_record(store::serialize_record(rec), back), store::parse_status::ok);

    EXPECT_EQ(back.fingerprint, "fp");
    EXPECT_TRUE(summary(back) == summary(rec));
    ASSERT_EQ(back.netlist.size(), rec.netlist.size());
    for (std::size_t i = 0; i < rec.netlist.size(); ++i) {
        EXPECT_EQ(back.netlist[i].name, rec.netlist[i].name);
        EXPECT_EQ(back.netlist[i].kind, rec.netlist[i].kind);
        EXPECT_EQ(back.netlist[i].area, rec.netlist[i].area);
        EXPECT_EQ(back.netlist[i].equation, rec.netlist[i].equation);
    }
    EXPECT_EQ(back.recovered_astg, rec.recovered_astg);
    // The recovered text must itself be parseable (it re-enters the pipeline
    // when a client replays a stored result).
    ASSERT_FALSE(back.recovered_astg.empty());
    EXPECT_NO_THROW((void)parse_astg(back.recovered_astg));
    // Schema v2: the emitted netlists and the verification outcome ride
    // along (LR synthesises, so both emissions are nonempty).
    ASSERT_FALSE(rec.verilog.empty());
    ASSERT_FALSE(rec.cmodel.empty());
    EXPECT_EQ(back.verilog, rec.verilog);
    EXPECT_EQ(back.cmodel, rec.cmodel);
}

TEST(store_record, verification_outcome_roundtrips) {
    pipeline_result r = run_pipeline(benchmarks::lr_process());
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.impl_check.ok);
    const store::stored_record rec = store::record_of(r, "fp");
    EXPECT_TRUE(rec.impl_checked);
    EXPECT_GT(rec.impl_states, 0u);
    store::stored_record back;
    ASSERT_EQ(store::parse_record(store::serialize_record(rec), back), store::parse_status::ok);
    EXPECT_TRUE(back.impl_checked);
    EXPECT_EQ(back.impl_states, rec.impl_states);
}

TEST(store_record, strings_with_newlines_and_specials_roundtrip) {
    store::stored_record rec = sample_record("line1\nline2\t\"quoted\" \\ \x01 end");
    rec.netlist.push_back({"sig with space", "complex", 12.5, "a = b' c + d\ne = f"});
    store::stored_record back;
    ASSERT_EQ(store::parse_record(store::serialize_record(rec), back), store::parse_status::ok);
    EXPECT_EQ(back.message, rec.message);
    EXPECT_EQ(back.netlist.back().name, "sig with space");
    EXPECT_EQ(back.netlist.back().equation, "a = b' c + d\ne = f");
}

TEST(store_record, truncation_at_every_boundary_is_corrupt_not_a_crash) {
    const std::string text = store::serialize_record(sample_record());
    store::stored_record out;
    // Every prefix, stepped to keep the test fast, plus the exact header/
    // payload boundaries.
    for (std::size_t keep = 0; keep < text.size();
         keep += (keep < 64 ? 1 : std::max<std::size_t>(1, text.size() / 97))) {
        EXPECT_NE(store::parse_record(std::string_view(text).substr(0, keep), out),
                  store::parse_status::ok)
            << "prefix of " << keep << " bytes parsed as a valid record";
    }
}

TEST(store_record, every_single_bit_flip_is_rejected) {
    const std::string text = store::serialize_record(sample_record("bitflip target"));
    store::stored_record out;
    std::size_t version_skews = 0;
    for (std::size_t byte = 0; byte < text.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = text;
            bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
            const auto st = store::parse_record(bad, out);
            // A flip inside the schema digits may legitimately read as a
            // *different version* -- still a miss.  Nothing may read as ok:
            // the payload is covered by the checksum and the header fields
            // are cross-checked against it.
            EXPECT_NE(st, store::parse_status::ok)
                << "bit " << bit << " of byte " << byte << " flipped undetected";
            version_skews += st == store::parse_status::version_skew ? 1 : 0;
        }
    }
    EXPECT_GT(version_skews, 0u);  // the schema-digit flips really were exercised
}

TEST(store_record, version_skew_is_detected_before_checksum) {
    std::string text = store::serialize_record(sample_record());
    const auto pos = text.find("asynth-record v4 ");
    ASSERT_NE(pos, std::string::npos);
    // A record of the previous schema (v3, which still carried the quality
    // fields) reads as version skew -- a miss, never a misparse.
    text[pos + std::string("asynth-record v").size()] = '3';
    store::stored_record out;
    EXPECT_EQ(store::parse_record(text, out), store::parse_status::version_skew);
}

// ---- keys -------------------------------------------------------------------

TEST(store_record, key_separates_specs_and_result_affecting_options) {
    const pipeline_options defaults;
    pipeline_options other = defaults;
    other.search.cost.w = 0.25;

    const auto k_lr = store::key_of(benchmarks::lr_process(), defaults);
    const auto k_fig1 = store::key_of(benchmarks::fig1_controller(), defaults);
    const auto k_lr_w = store::key_of(benchmarks::lr_process(), other);
    EXPECT_NE(k_lr, k_fig1);
    EXPECT_NE(k_lr, k_lr_w);

    // The fingerprint's contract, row by row of the option table: every
    // result-affecting flow option splits the key and every other one (the
    // deadline, the search jobs) does not.  A result-affecting row missing
    // from options_fingerprint fails here.
    for (const auto& o : service::pipeline_option_table()) {
        pipeline_options changed = defaults;
        const std::string arg = non_default_arg(o, defaults);
        ASSERT_TRUE(service::apply_option(o, service::option_arg_value(o, arg.c_str()), changed))
            << o.flag << " " << arg;
        ASSERT_NE(o.get(changed), o.get(defaults)) << o.flag;
        const auto key = store::key_of(benchmarks::lr_process(), changed);
        // A deadline-cut run is never cached and an uncut one equals the
        // undeadlined run; search jobs never change a result.
        const std::string_view flag = o.flag;
        EXPECT_EQ(o.affects_result, flag != "--deadline" && flag != "--search-jobs") << flag;
        if (o.affects_result)
            EXPECT_NE(k_lr, key) << o.flag;
        else
            EXPECT_EQ(k_lr, key) << o.flag;
    }

    // Library-only fields, by hand: each result-affecting one splits the
    // key ...
    using tweak = void (*)(pipeline_options&);
    const std::pair<const char*, tweak> affecting[] = {
        {"max_states", [](pipeline_options& o) { o.expand.max_states += 1; }},
        {"csc_weight", [](pipeline_options& o) { o.search.cost.csc_weight += 1.0; }},
        {"csc_beam", [](pipeline_options& o) { o.csc.beam_width += 1; }},
        {"synth.exact", [](pipeline_options& o) { o.synth.exact = !o.synth.exact; }},
        {"delays", [](pipeline_options& o) { o.delays.input_delay += 1.0; }},
    };
    for (const auto& [name, change] : affecting) {
        pipeline_options o = defaults;
        change(o);
        EXPECT_NE(k_lr, store::key_of(benchmarks::lr_process(), o)) << name;
    }

    // ... and every result-neutral one does not: the engines, minimisers
    // and job counts provably compute the same result.
    const std::pair<const char*, tweak> neutral[] = {
        {"engine", [](pipeline_options& o) { o.search.engine = search_engine::reference; }},
        {"minimizer", [](pipeline_options& o) { o.search.minimizer = minimizer_mode::exact; }},
        {"jobs", [](pipeline_options& o) { o.search.jobs = 7; }},
    };
    for (const auto& [name, change] : neutral) {
        pipeline_options o = defaults;
        change(o);
        EXPECT_EQ(k_lr, store::key_of(benchmarks::lr_process(), o)) << name;
    }
}

// ---- the store on disk ------------------------------------------------------

TEST_F(store_test, miss_then_put_then_hit) {
    auto st = store::result_store::open(dir);
    ASSERT_TRUE(st.enabled()) << st.message();
    const auto key = store::key_of(benchmarks::lr_process(), pipeline_options{});

    EXPECT_FALSE(st.get(key).has_value());
    const auto rec = sample_record("verdict text");
    ASSERT_TRUE(st.put(key, rec));
    const auto got = st.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->message, "verdict text");
    EXPECT_EQ(got->area, rec.area);

    const auto s = st.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.writes, 1u);
}

TEST_F(store_test, reopened_store_sees_previous_records) {
    const auto key = store::key_of(benchmarks::mmu_controller(), pipeline_options{});
    {
        auto st = store::result_store::open(dir);
        ASSERT_TRUE(st.put(key, sample_record("persisted")));
    }
    auto st2 = store::result_store::open(dir);
    const auto got = st2.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->message, "persisted");
}

TEST_F(store_test, on_disk_corruption_degrades_to_miss_and_put_heals) {
    auto st = store::result_store::open(dir);
    const auto key = store::key_of(benchmarks::lr_process(), pipeline_options{});
    ASSERT_TRUE(st.put(key, sample_record("good")));
    const std::string path = sole_object_path(dir);
    const std::string good = slurp(path);

    // Truncate (a writer killed without the atomic-rename protocol).
    spit(path, good.substr(0, good.size() / 2));
    EXPECT_FALSE(st.get(key).has_value());
    EXPECT_EQ(st.stats().corrupt, 1u);

    // Bit-flip (disk rot).
    std::string flipped = good;
    flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
    spit(path, flipped);
    EXPECT_FALSE(st.get(key).has_value());

    // Zero-length file (crash between open and write, without rename).
    spit(path, "");
    EXPECT_FALSE(st.get(key).has_value());

    // The caller's re-synthesis heals the entry in place.
    ASSERT_TRUE(st.put(key, sample_record("healed")));
    const auto got = st.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->message, "healed");
}

TEST_F(store_test, version_skewed_record_is_a_miss_not_stale_data) {
    auto st = store::result_store::open(dir);
    const auto key = store::key_of(benchmarks::lr_process(), pipeline_options{});
    ASSERT_TRUE(st.put(key, sample_record()));
    const std::string path = sole_object_path(dir);
    std::string text = slurp(path);
    const auto pos = text.find(" v" + std::to_string(store::record_schema_version) + " ");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 2] = '9';
    spit(path, text);
    EXPECT_FALSE(st.get(key).has_value());
    EXPECT_EQ(st.stats().version_skew, 1u);
}

TEST_F(store_test, foreign_format_directory_disables_instead_of_crashing) {
    fs::create_directories(dir);
    spit(dir + "/format", "somebody-elses-cache v3\n");
    auto st = store::result_store::open(dir);
    EXPECT_FALSE(st.enabled());
    EXPECT_FALSE(st.message().empty());
    // Disabled handles behave as a permanently cold cache.
    const auto key = store::key_of(benchmarks::lr_process(), pipeline_options{});
    EXPECT_FALSE(st.get(key).has_value());
    EXPECT_FALSE(st.put(key, sample_record()));
    EXPECT_EQ(st.stats().write_errors, 1u);
}

TEST_F(store_test, stray_temp_files_do_not_confuse_lookups) {
    auto st = store::result_store::open(dir);
    const auto key = store::key_of(benchmarks::lr_process(), pipeline_options{});
    ASSERT_TRUE(st.put(key, sample_record("real")));
    const std::string path = sole_object_path(dir);
    // A crashed writer's leftover: same fanout directory, tmp prefix.
    spit(path.substr(0, path.find_last_of('/')) + "/.tmp-dead-1234-0", "garbage");
    const auto got = st.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->message, "real");
}

TEST_F(store_test, concurrent_readers_and_writers_never_tear) {
    // Two handles on one directory (= two processes sharing the store), four
    // writer threads re-putting K keys while four readers hammer get().
    // Every successful get must parse to the matching record -- the payload
    // checksum turns any torn/partial read into a visible failure.
    auto writer_store = store::result_store::open(dir);
    auto reader_store = store::result_store::open(dir);
    ASSERT_TRUE(writer_store.enabled());
    ASSERT_TRUE(reader_store.enabled());

    constexpr std::size_t kKeys = 4, kWriters = 4, kReaders = 4, kRounds = 60;
    std::vector<store::store_key> keys;
    std::vector<store::stored_record> recs;
    for (std::size_t k = 0; k < kKeys; ++k) {
        keys.push_back(store::key_of("spec-" + std::to_string(k), "fp"));
        auto rec = sample_record(("record for key " + std::to_string(k)).c_str());
        rec.states = 1000 + k;  // per-key sentinel the readers verify
        recs.push_back(std::move(rec));
    }

    std::atomic<std::size_t> torn{0}, hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kWriters + kReaders);
    for (std::size_t w = 0; w < kWriters; ++w)
        threads.emplace_back([&, w] {
            for (std::size_t r = 0; r < kRounds; ++r) {
                const std::size_t k = (w + r) % kKeys;
                writer_store.put(keys[k], recs[k]);
            }
        });
    for (std::size_t rd = 0; rd < kReaders; ++rd)
        threads.emplace_back([&, rd] {
            for (std::size_t r = 0; r < kRounds * 2; ++r) {
                const std::size_t k = (rd + r) % kKeys;
                if (auto got = reader_store.get(keys[k])) {
                    ++hits;
                    if (got->states != 1000 + k ||
                        got->message != "record for key " + std::to_string(k))
                        ++torn;
                }
            }
        });
    for (auto& t : threads) t.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(hits.load(), 0u);
    // Nothing the readers saw was corrupt: rename is atomic and every read
    // is checksummed.
    EXPECT_EQ(reader_store.stats().corrupt, 0u);
}

// ---- store-backed batch sweeps ---------------------------------------------

TEST_F(store_test, batch_sweep_is_resumable_and_warm_hits_everything) {
    auto specs = benchmarks::corpus_specs();
    specs.resize(4);  // keep the test quick; any slice works

    batch::batch_options opt;
    opt.jobs = 2;
    opt.store = store::result_store::open(dir);
    ASSERT_TRUE(opt.store.enabled());

    const auto cold = batch::run_batch(specs, opt);
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_EQ(cold.store_misses, specs.size());

    const auto warm = batch::run_batch(specs, opt);
    EXPECT_EQ(warm.store_hits, specs.size());
    EXPECT_EQ(warm.store_misses, 0u);

    // The warm rows replay the cold rows exactly (names and whole summaries,
    // even the producing run's timings) apart from the hit flag.
    ASSERT_EQ(warm.specs.size(), cold.specs.size());
    for (std::size_t i = 0; i < cold.specs.size(); ++i) {
        const auto& c = cold.specs[i];
        const auto& w = warm.specs[i];
        EXPECT_TRUE(w.store_hit);
        EXPECT_FALSE(c.store_hit);
        EXPECT_EQ(w.name, c.name);
        EXPECT_TRUE(summary(w) == summary(c)) << c.name;
    }

    // A grown sweep only synthesises the new tail: resumability.
    auto more = benchmarks::corpus_specs();
    more.resize(6);
    const auto resumed = batch::run_batch(more, opt);
    EXPECT_EQ(resumed.store_hits, 4u);
    EXPECT_EQ(resumed.store_misses, 2u);
}

TEST(store_json, report_json_is_schema_version_6_with_store_fields) {
    batch::batch_report rep;
    rep.queue_wait_p90_ms = 1.5;
    rep.impl_checked = 2;
    const std::string json = batch::report_json(rep);
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"store_hits\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"store_misses\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait_p50_ms\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait_p90_ms\": 1.5"), std::string::npos);
    EXPECT_NE(json.find("\"impl_checked\": 2"), std::string::npos);
}
