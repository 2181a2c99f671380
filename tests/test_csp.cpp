// The CSP-like front end: parsed processes must match the hand-written
// channel STGs of the corpus, and the parser must fail loudly (never
// crash) on the adversarial inputs the fuzz corpus can replay at it.
#include <gtest/gtest.h>

#include <string>

#include "benchmarks/corpus.hpp"
#include "benchmarks/fragment_builder.hpp"
#include "core/expand.hpp"
#include "pipeline/pipeline.hpp"
#include "sg/analysis.hpp"
#include "spec/csp.hpp"

using namespace asynth;

TEST(csp, lr_process_matches_corpus_spec) {
    auto spec = parse_csp("lr = l? ; r! ; r? ; l!");
    EXPECT_EQ(spec.model_name, "lr");
    EXPECT_EQ(spec.transitions().size(), 4u);
    auto a = state_graph::generate(expand_handshakes(spec)).graph;
    auto b = state_graph::generate(expand_handshakes(benchmarks::lr_process())).graph;
    EXPECT_TRUE(lts_equivalent(subgraph::full(a), subgraph::full(b)));
}

TEST(csp, par_component_matches_corpus_spec) {
    auto spec = parse_csp("par = a? ; (b! ; b?) || (c! ; c?) ; a!");
    auto a = state_graph::generate(expand_handshakes(spec)).graph;
    auto b = state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    EXPECT_TRUE(lts_equivalent(subgraph::full(a), subgraph::full(b)));
}

TEST(csp, nested_parallelism) {
    auto spec = parse_csp("x = t? ; a! ; a? || (b! ; b? ; (c! ; c?) || (d! ; d?)) ; t!");
    auto gen = state_graph::generate(expand_handshakes(spec));
    auto g = subgraph::full(gen.graph);
    EXPECT_TRUE(check_speed_independence(g).ok());
    EXPECT_TRUE(deadlock_states(g).empty());
}

TEST(csp, channels_declared_implicitly_once) {
    auto spec = parse_csp("p = a? ; a!");
    std::size_t channels = 0;
    for (const auto& s : spec.signals())
        if (s.kind == signal_kind::channel) ++channels;
    EXPECT_EQ(channels, 1u);
}

TEST(csp, syntax_errors_are_reported) {
    EXPECT_THROW((void)parse_csp("nodefinition"), parse_error);
    EXPECT_THROW((void)parse_csp("p = a"), parse_error);        // missing ?/!
    EXPECT_THROW((void)parse_csp("p = (a? ; b!"), parse_error);  // unbalanced
    EXPECT_THROW((void)parse_csp("p = a? ; ; b!"), parse_error);
    EXPECT_THROW((void)parse_csp("p = a? extra!"), parse_error);  // trailing
    EXPECT_THROW((void)parse_csp(""), parse_error);              // empty input
    EXPECT_THROW((void)parse_csp("p ="), parse_error);           // empty body
    EXPECT_THROW((void)parse_csp("p = ()"), parse_error);        // empty parens
    EXPECT_THROW((void)parse_csp("p = a? || "), parse_error);    // dangling ||
    EXPECT_THROW((void)parse_csp("= a? ; a!"), parse_error);     // nameless
}

TEST(csp, errors_carry_the_line_number) {
    try {
        (void)parse_csp("p =\n  a? ;\n  b");
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        // The missing '?'/'!' is on line 3; the diagnostic must say so.
        EXPECT_NE(std::string(e.what()).find("3"), std::string::npos) << e.what();
    }
}

TEST(csp, nesting_depth_is_bounded) {
    // Recursive descent must answer pathological nesting with a parse error,
    // never a stack overflow: 64 levels parse, 65 and far beyond must throw.
    auto nested = [](int depth) {
        return "p = t? ; " + std::string(static_cast<std::size_t>(depth), '(') + "a! ; a?" +
               std::string(static_cast<std::size_t>(depth), ')') + " ; t!";
    };
    EXPECT_NO_THROW((void)parse_csp(nested(64)));
    EXPECT_THROW((void)parse_csp(nested(65)), parse_error);
    try {
        (void)parse_csp(nested(4096));
        FAIL() << "expected parse_error";
    } catch (const parse_error& e) {
        EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos) << e.what();
    }
}

TEST(csp, channel_reuse_builds_multi_instance_transitions) {
    // Sequential reuse of one channel (the counter shape): one signal, four
    // transitions, and the expansion stays speed-independent and live.
    auto spec = parse_csp("p = t? ; a! ; a? ; a! ; a? ; t!");
    std::size_t channels = 0;
    for (const auto& s : spec.signals())
        if (s.kind == signal_kind::channel) ++channels;
    EXPECT_EQ(channels, 2u);  // a and the trigger t
    EXPECT_EQ(spec.transitions().size(), 6u);
    auto gen = state_graph::generate(expand_handshakes(spec));
    auto g = subgraph::full(gen.graph);
    EXPECT_TRUE(check_speed_independence(g).ok());
    EXPECT_TRUE(deadlock_states(g).empty());
}

TEST(csp, counter_text_matches_hand_built_fragment) {
    // The same process hand-assembled from fragment_builder primitives: the
    // front end and the generator's materialiser must agree on the LTS.
    stg net;
    auto a = static_cast<int32_t>(net.add_signal("a", signal_kind::channel));
    auto body = benchmarks::detail::counter_fragment(net, a, 3);
    auto hand = benchmarks::detail::finish_trigger(std::move(net), body, "p");

    auto parsed = parse_csp("p = t? ; a! ; a? ; a! ; a? ; a! ; a? ; t!");
    auto ga = state_graph::generate(expand_handshakes(parsed)).graph;
    auto gb = state_graph::generate(expand_handshakes(hand)).graph;
    EXPECT_TRUE(lts_equivalent(subgraph::full(ga), subgraph::full(gb)));
}

TEST(csp, parsed_process_runs_through_the_flow) {
    auto spec = parse_csp("lr = l? ; r! ; r? ; l!");
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.2;
    o.search.size_frontier = 6;
    auto rep = run_pipeline(spec, o);
    ASSERT_TRUE(rep.completed) << rep.message;
    ASSERT_TRUE(rep.synth.ok);
    EXPECT_EQ(rep.area(), 0.0);  // the two-wire LR solution, from CSP text
}
