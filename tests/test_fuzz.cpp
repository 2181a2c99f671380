// The differential fuzz harness: the pinned counterexample corpus must
// replay clean through every oracle, the fuzzing loop must be deterministic
// and green on the current code, the shrinker must minimise without escaping
// the failing bug class, and an injected engine bug must be caught, shrunk
// and written out as a replayable counterexample (mutation testing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "fuzz/fuzz.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"

using namespace asynth;
using benchmarks::spec_node;
using node_kind = spec_node::kind;
namespace fs = std::filesystem;

namespace {

std::string corpus_dir() { return std::string(ASYNTH_TEST_DATA_DIR) + "/fuzz"; }

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::vector<fs::path> corpus_files() {
    std::vector<fs::path> out;
    for (const auto& e : fs::directory_iterator(corpus_dir()))
        if (e.path().extension() == ".g") out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

spec_node call_node() { return spec_node{}; }

}  // namespace

// ---- pinned corpus ---------------------------------------------------------

TEST(fuzz_corpus, every_pinned_file_replays_clean_through_all_oracles) {
    auto files = corpus_files();
    ASSERT_GE(files.size(), 5u) << "corpus missing from " << corpus_dir();
    for (const auto& f : files) {
        std::string text = read_file(f);
        ASSERT_FALSE(text.empty()) << f;
        fs::path csp_path = f;
        csp_path.replace_extension(".csp");
        std::string csp = fs::exists(csp_path) ? read_file(csp_path) : std::string();
        std::string diag =
            fuzz::replay_text(text, csp, fuzz::all_oracles, fuzz::profile_of_counterexample(text));
        EXPECT_EQ(diag, "") << f.filename();
    }
}

TEST(fuzz_corpus, pinned_files_replay_clean_through_impl_vs_sg) {
    // The implementation oracle joined the rotation after the corpus was
    // pinned: every historical counterexample's emitted netlist must also
    // agree with its state graph (all_oracles above covers this too; this
    // test keeps the guarantee explicit if the mask ever changes).
    for (const auto& f : corpus_files()) {
        std::string text = read_file(f);
        std::string diag = fuzz::replay_text(text, "", fuzz::oracle_bit(fuzz::oracle::impl_vs_sg),
                                             fuzz::profile_of_counterexample(text));
        EXPECT_EQ(diag, "") << f.filename();
    }
}

TEST(fuzz_corpus, profile_header_names_the_replay_profile) {
    using fuzz::fuzz_profile;
    using fuzz::profile_of_counterexample;
    EXPECT_EQ(profile_of_counterexample("# oracle: engines\n# profile: shallow\n.model x\n"),
              fuzz_profile::shallow);
    EXPECT_EQ(profile_of_counterexample("# profile: deep"), fuzz_profile::deep);
    // Only the header counts, an unknown name means deep, and so does no header.
    EXPECT_EQ(profile_of_counterexample(".model x\n# profile: shallow\n"), fuzz_profile::deep);
    EXPECT_EQ(profile_of_counterexample("# profile: bogus\n"), fuzz_profile::deep);
    EXPECT_EQ(profile_of_counterexample(""), fuzz_profile::deep);
}

TEST(fuzz_corpus, covers_both_profiles_and_a_csp_pair) {
    auto files = corpus_files();
    bool deep = false, shallow = false, csp = false;
    for (const auto& f : files) {
        auto p = fuzz::profile_of_counterexample(read_file(f));
        deep |= p == fuzz::fuzz_profile::deep;
        shallow |= p == fuzz::fuzz_profile::shallow;
        fs::path c = f;
        c.replace_extension(".csp");
        csp |= fs::exists(c);
    }
    EXPECT_TRUE(deep);
    EXPECT_TRUE(shallow);
    EXPECT_TRUE(csp);
}

// ---- single-spec oracle checks ---------------------------------------------

TEST(fuzz_oracles, all_pipeline_oracles_agree_on_a_corpus_entry) {
    const stg spec = benchmarks::lr_process();
    for (auto o : {fuzz::oracle::engines, fuzz::oracle::minimizers,
                   fuzz::oracle::store_roundtrip, fuzz::oracle::text_roundtrip,
                   fuzz::oracle::impl_vs_sg})
        EXPECT_EQ(fuzz::check_oracle(o, spec), "") << fuzz::oracle_name(o);
}

TEST(fuzz_oracles, diff_results_finds_a_real_difference) {
    pipeline_options a;
    auto ra = run_pipeline(benchmarks::lr_process(), a);
    auto rb = run_pipeline(benchmarks::lr_process(), a);
    EXPECT_EQ(fuzz::diff_results(ra, rb, /*ignore_pruned=*/false), "");

    pipeline_options b = a;
    b.search.cost.w = 0.9;  // different weight, different reduction costs
    auto rc = run_pipeline(benchmarks::lr_process(), b);
    EXPECT_NE(fuzz::diff_results(ra, rc, /*ignore_pruned=*/true), "");
}

TEST(fuzz_oracles, names_round_trip) {
    for (std::size_t i = 0; i < fuzz::oracle_count; ++i) {
        auto o = static_cast<fuzz::oracle>(i);
        auto back = fuzz::oracle_from_name(fuzz::oracle_name(o));
        ASSERT_TRUE(back.has_value()) << fuzz::oracle_name(o);
        EXPECT_EQ(*back, o);
    }
    EXPECT_FALSE(fuzz::oracle_from_name("bogus").has_value());
    for (auto p : {fuzz::fuzz_profile::deep, fuzz::fuzz_profile::shallow}) {
        auto back = fuzz::profile_from_name(fuzz::profile_name(p));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, p);
    }
}

// ---- CSP rendering ---------------------------------------------------------

TEST(fuzz_csp, rendered_text_agrees_with_the_materialiser) {
    spec_node tree;
    tree.k = node_kind::sequence;
    spec_node par;
    par.k = node_kind::parallel;
    par.children = {call_node(), call_node()};
    tree.children = {call_node(), par};

    ASSERT_TRUE(fuzz::csp_renderable(tree));
    std::string text = fuzz::render_csp(tree, "p");
    EXPECT_NE(text.find("||"), std::string::npos);
    EXPECT_EQ(fuzz::check_csp_agreement(text, benchmarks::build_spec(tree, "p")), "");
}

TEST(fuzz_csp, counters_render_as_repeated_calls) {
    spec_node counter;
    counter.k = node_kind::counter;
    counter.repeats = 3;
    ASSERT_TRUE(fuzz::csp_renderable(counter));
    std::string text = fuzz::render_csp(counter, "p");
    EXPECT_EQ(fuzz::check_csp_agreement(text, benchmarks::build_spec(counter, "p")), "");
}

TEST(fuzz_csp, selects_and_arbitration_are_not_renderable) {
    spec_node choice;
    choice.k = node_kind::choice;
    choice.children = {call_node(), call_node()};
    EXPECT_FALSE(fuzz::csp_renderable(choice));

    spec_node arb;
    arb.k = node_kind::arbitration;
    arb.children = {call_node(), call_node()};
    EXPECT_FALSE(fuzz::csp_renderable(arb));

    spec_node seq;  // unrenderable anywhere in the tree poisons the root
    seq.k = node_kind::sequence;
    seq.children = {call_node(), choice};
    EXPECT_FALSE(fuzz::csp_renderable(seq));
}

TEST(fuzz_csp, disagreement_is_reported) {
    // A deliberately different process: the diagnosis must be nonempty.
    spec_node two;
    two.k = node_kind::sequence;
    two.children = {call_node(), call_node()};
    std::string wrong = "p = t? ; a0! ; a0? ; t!";  // one call, not two
    EXPECT_NE(fuzz::check_csp_agreement(wrong, benchmarks::build_spec(two, "p")), "");
}

// ---- shrinking -------------------------------------------------------------

TEST(fuzz_shrink, always_failing_reduces_to_a_single_call) {
    spec_node tree;
    tree.k = node_kind::sequence;
    spec_node par;
    par.k = node_kind::parallel;
    par.children = {call_node(), call_node(), call_node()};
    spec_node counter;
    counter.k = node_kind::counter;
    counter.repeats = 4;
    tree.children = {par, counter, call_node()};

    fuzz::shrink_stats stats;
    auto shrunk =
        fuzz::shrink_recipe(tree, [](const spec_node&) { return true; }, 400, &stats);
    EXPECT_EQ(shrunk.channels(), 1);
    EXPECT_EQ(shrunk.k, node_kind::call);
    EXPECT_GT(stats.accepted, 0u);
    EXPECT_GE(stats.evaluations, stats.accepted);
}

TEST(fuzz_shrink, preserves_the_failing_class) {
    // Only recipes containing arbitration "fail": the minimum is the bare
    // two-branch arbitration, never a plain call.
    spec_node tree;
    tree.k = node_kind::sequence;
    spec_node arb;
    arb.k = node_kind::arbitration;
    arb.children = {call_node(), call_node(), call_node()};
    tree.children = {call_node(), arb, call_node()};

    auto shrunk = fuzz::shrink_recipe(
        tree, [](const spec_node& n) { return n.contains(node_kind::arbitration); });
    EXPECT_EQ(shrunk.k, node_kind::arbitration);
    ASSERT_EQ(shrunk.children.size(), 2u);  // one branch dropped
    EXPECT_EQ(shrunk.channels(), 4);        // 2 branches + 2 mutex channels
}

TEST(fuzz_shrink, nothing_accepted_when_nothing_fails) {
    spec_node tree;
    tree.k = node_kind::parallel;
    tree.children = {call_node(), call_node()};
    fuzz::shrink_stats stats;
    auto shrunk =
        fuzz::shrink_recipe(tree, [](const spec_node&) { return false; }, 400, &stats);
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_GT(stats.evaluations, 0u);
    EXPECT_EQ(shrunk.channels(), tree.channels());
}

TEST(fuzz_shrink, evaluation_cap_is_respected) {
    spec_node tree;
    tree.k = node_kind::parallel;
    tree.children = {call_node(), call_node(), call_node(), call_node()};
    fuzz::shrink_stats stats;
    (void)fuzz::shrink_recipe(tree, [](const spec_node&) { return true; }, 3, &stats);
    EXPECT_LE(stats.evaluations, 3u);
}

// ---- the fuzzing loop ------------------------------------------------------

TEST(fuzz_loop, deterministic_and_green_on_current_code) {
    fuzz::fuzz_options opt;
    opt.seed = 1;
    opt.iterations = fuzz::oracle_count;  // one check per oracle (rotation covers all)
    opt.max_size = 4;
    opt.jobs = 2;
    auto a = fuzz::run_fuzz(opt);
    EXPECT_TRUE(a.ok()) << a.summary();
    EXPECT_EQ(a.iterations, fuzz::oracle_count);
    for (std::size_t i = 0; i < fuzz::oracle_count; ++i)
        EXPECT_EQ(a.oracles[i].checks, 1u) << fuzz::oracle_name(static_cast<fuzz::oracle>(i));

    // Worker count must not change what any iteration does.
    opt.jobs = 1;
    auto b = fuzz::run_fuzz(opt);
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(a.families, b.families);

    auto s = a.summary();
    EXPECT_NE(s.find("FUZZ OK"), std::string::npos);
    EXPECT_NE(s.find("oracle"), std::string::npos);
}

TEST(fuzz_loop, injected_engine_bug_is_caught_shrunk_and_written) {
    // Mutation testing: perturb the candidate side's cost weight.  The
    // engines oracle must fire, the shrinker must get the repro down to a
    // tiny spec, and the counterexample file must be a valid replayable .g.
    auto dir = fs::temp_directory_path() / "asynth_fuzz_test_cex";
    fs::remove_all(dir);

    fuzz::fuzz_options opt;
    opt.seed = 1;
    opt.iterations = 2;
    opt.max_size = 4;
    opt.oracles = fuzz::oracle_bit(fuzz::oracle::engines);
    opt.dir = dir.string();
    opt.inject = [](pipeline_options& p) { p.search.cost.w = 0.9; };

    auto report = fuzz::run_fuzz(opt);
    ASSERT_FALSE(report.ok()) << "an injected engine bug must be caught";
    for (const auto& f : report.findings) {
        EXPECT_LE(f.shrunk.channels(), 4) << "shrinking must reach a tiny spec";
        EXPECT_FALSE(f.diagnosis.empty());
        ASSERT_FALSE(f.file.empty());
        ASSERT_TRUE(fs::exists(f.file));

        std::string text = read_file(f.file);
        EXPECT_NE(text.find("# oracle: engines"), std::string::npos);
        EXPECT_NE(text.find("# repro: asynth fuzz --seed 1"), std::string::npos);
        // The file (comments and all) must parse back into the shrunk spec.
        stg parsed;
        ASSERT_NO_THROW(parsed = parse_astg(text));
        EXPECT_EQ(write_astg(parsed), f.spec_astg);
        // Without the injection the engines agree again: the bug was the
        // injected mutation, not the spec.
        EXPECT_EQ(fuzz::replay_text(text, "", opt.oracles, f.profile), "");
    }
    fs::remove_all(dir);
}

TEST(fuzz_loop, injected_netlist_bug_is_caught_by_impl_vs_sg) {
    // Netlist-level mutation testing: invert the first real gate network's
    // output after synthesis.  The impl-vs-sg oracle must report the
    // divergence, and the written counterexample must replay clean without
    // the injection (the bug was the mutation, not the spec).
    auto dir = fs::temp_directory_path() / "asynth_fuzz_test_netcex";
    fs::remove_all(dir);

    fuzz::fuzz_options opt;
    opt.seed = 1;
    opt.iterations = 3;  // one spec each from the plain/counter/arbiter families
    opt.max_size = 4;
    opt.oracles = fuzz::oracle_bit(fuzz::oracle::impl_vs_sg);
    opt.dir = dir.string();
    opt.max_shrink_evals = 60;
    opt.inject_net = [](circuit_netlist& nl) {
        for (auto& net : nl.nets) {
            netlist* t = net.kind == impl_kind::gc_element ? &net.set_net : &net.fn;
            if (t->output == -1 || t->output == -2) continue;
            t->gates.push_back(gate{gate_kind::inverter, t->output, -1});
            t->output = static_cast<int32_t>(t->gates.size() - 1);
            return;
        }
    };

    auto report = fuzz::run_fuzz(opt);
    ASSERT_FALSE(report.ok()) << "an injected netlist bug must be caught\n" << report.summary();
    for (const auto& f : report.findings) {
        EXPECT_EQ(f.o, fuzz::oracle::impl_vs_sg);
        EXPECT_NE(f.diagnosis.find("diverges"), std::string::npos) << f.diagnosis;
        ASSERT_FALSE(f.file.empty());
        std::string text = read_file(f.file);
        EXPECT_NE(text.find("# oracle: impl-vs-sg"), std::string::npos);
        EXPECT_EQ(fuzz::replay_text(text, "", opt.oracles, f.profile), "");
    }
    fs::remove_all(dir);
}

TEST(fuzz_loop, exceptions_surface_as_findings) {
    // An inject hook that poisons the options into throwing must produce a
    // finding (the pipeline promises not to throw), not a crash.
    fuzz::fuzz_options opt;
    opt.seed = 1;
    opt.iterations = 1;
    opt.max_size = 4;
    opt.oracles = fuzz::oracle_bit(fuzz::oracle::engines);
    opt.max_shrink_evals = 4;
    opt.inject = [](pipeline_options&) { throw error("injected failure"); };
    auto report = fuzz::run_fuzz(opt);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_NE(report.findings[0].diagnosis.find("exception"), std::string::npos);
}
