// A command-line front end for the whole flow: reads an extended .g
// specification (from a file argument, or from stdin when the argument is
// `-`), expands it, reshuffles, resolves CSC, synthesises and prints the
// results.  With no argument it runs a built-in demo spec.
//
//   ./custom_spec spec.g [W] [frontier]     W in [0,1], frontier an integer >= 1
//   ./custom_spec - [W] [frontier] < spec.g
//
// The format accepts .inputs/.outputs/.internal signal declarations plus
// the extensions .channels, .partial, .initial and .keepconc (see
// petri/astg_io.hpp).  Examples:
//
//   .model wine_shop
//   .channels shop
//   .outputs lamp
//   .partial lamp
//   .graph
//   shop? lamp+
//   lamp+ shop!
//   shop! shop?
//   .marking { <shop!,shop?> }
//   .end
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "service/options.hpp"

using namespace asynth;

int main(int argc, char** argv) {
    std::string text;
    if (argc > 1) {
        std::ostringstream ss;
        if (std::string(argv[1]) == "-") {
            ss << std::cin.rdbuf();
        } else {
            std::ifstream in(argv[1]);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", argv[1]);
                return 1;
            }
            ss << in.rdbuf();
        }
        text = ss.str();
    } else {
        // Built-in demo spec: a wine-shop style controller.
        text = R"(.model wine_shop
.channels shop
.outputs lamp
.partial lamp
.graph
shop? lamp+
lamp+ shop!
shop! shop?
.marking { <shop!,shop?> }
.end
)";
        std::printf("(no file given; using the built-in demo spec)\n");
    }

    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.5;
    if (argc > 2 && !service::parse_unit(argv[2], o.search.cost.w)) {
        std::fprintf(stderr, "W must be %s\n", service::unit_constraint);
        return 2;
    }
    o.search.size_frontier = 4;
    if (argc > 3) {
        // The frontier is checked as `asynth --frontier` checks it.
        const service::pipeline_option& frontier = *service::find_option_flag("--frontier");
        if (!service::apply_option(frontier, service::option_arg_value(frontier, argv[3]), o)) {
            std::fprintf(stderr, "frontier must be %s\n",
                         service::option_constraint(frontier).c_str());
            return 2;
        }
    }

    auto rep = run_pipeline_text(text, o);
    if (!rep.completed) {
        std::fprintf(stderr, "error: %s\n", rep.message.c_str());
        return 1;
    }
    std::printf("expanded STG:\n%s\n", write_astg(rep.expanded).c_str());
    std::printf("state graph: %zu states -> reduced to %zu (cost %.1f -> %.1f)\n",
                rep.base_sg->state_count(), rep.reduced.live_state_count(),
                rep.initial_cost.value, rep.reduced_cost.value);
    std::printf("CSC: %zu state signal(s) inserted%s\n", rep.csc.signals_inserted,
                rep.csc.solved ? "" : (" [" + rep.csc.message + "]").c_str());
    if (rep.synth.ok) {
        std::printf("circuit (area %.0f, cycle %.1f):\n", rep.area(), rep.cycle());
        for (const auto& i : rep.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
    } else {
        std::printf("synthesis failed: %s\n", rep.synth.message.c_str());
    }
    if (rep.recovered.ok)
        std::printf("\nrecovered STG:\n%s", write_astg(rep.recovered.net).c_str());
    return 0;
}
