// Shared helpers for the reproduction benches: the paper rows of
// paper_rows.hpp plus table printing.  Each bench binary prints the
// reproduced table first and then runs its google-benchmark micro timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/protocol.hpp"
#include "paper_rows.hpp"
#include "sg/analysis.hpp"

namespace bench_util {

using namespace asynth;

inline void print_header(const std::string& title) {
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-22s %10s %10s %10s %12s\n", "circuit", "area", "#CSC sign.", "cr.cycle",
                "inp.events");
}

inline void print_row(const std::string& name, const pipeline_result& r) {
    if (r.synth.ok)
        std::printf("%-22s %10.0f %10zu %10.1f %12zu\n", name.c_str(), r.area(),
                    r.csc.signals_inserted, r.cycle(), r.perf.input_events_on_cycle);
    else
        std::printf("%-22s %10s %10zu %10s %12s  (%s)\n", name.c_str(), "-",
                    r.csc.signals_inserted, "-", "-",
                    (r.completed ? r.synth.message : r.message).c_str());
}

inline void print_rows(const std::vector<paper_row>& rows) {
    for (const auto& r : rows) print_row(r.name, r.result);
}

}  // namespace bench_util
