#include "batch/batch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "batch/pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "petri/astg_io.hpp"
#include "util/json_escape.hpp"
#include "util/percentile.hpp"

namespace asynth::batch {

namespace {

void aggregate(batch_report& rep) {
    rep.count = rep.specs.size();
    for (const auto& s : rep.specs) {
        rep.completed += s.completed ? 1 : 0;
        rep.synthesized += s.synthesized ? 1 : 0;
        rep.csc_solved += s.csc_solved ? 1 : 0;
        rep.store_hits += s.store_hit ? 1 : 0;
        rep.impl_checked += s.impl_checked ? 1 : 0;
        rep.total_states += s.states;
        rep.total_arcs += s.arcs;
        rep.total_explored += s.explored;
        rep.total_csc_signals += s.csc_signals;
        rep.total_literals += s.literals;
        if (s.synthesized) rep.total_area += s.area;
        rep.cpu_seconds += s.seconds;
    }
    rep.failed = rep.count - rep.completed;
    if (rep.wall_seconds > 0.0)
        rep.specs_per_second = static_cast<double>(rep.count) / rep.wall_seconds;

    // Per-stage distributions, iterating the contiguous pipeline_stage enum
    // so a newly added stage can never silently drop out of the percentiles.
    for (uint8_t si = 0; si <= static_cast<uint8_t>(pipeline_stage_last); ++si) {
        const auto stage = static_cast<pipeline_stage>(si);
        std::vector<double> samples;
        for (const auto& s : rep.specs)
            for (const auto& t : s.timings)
                if (t.stage == stage) samples.push_back(t.seconds);
        if (samples.empty()) continue;
        std::sort(samples.begin(), samples.end());
        stage_stats st;
        st.stage = stage_name(stage);
        st.runs = samples.size();
        st.p50_ms = nearest_rank(samples, 0.5) * 1e3;
        st.p90_ms = nearest_rank(samples, 0.9) * 1e3;
        st.max_ms = samples.back() * 1e3;
        for (double v : samples) st.total_ms += v * 1e3;
        rep.stages.push_back(std::move(st));
    }
}

// ---- JSON ------------------------------------------------------------------

void json_number(std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += buf;
}

/// Counter deltas across a sweep: for every name in @p after, its value
/// minus the matching @p before value (0 when newly registered).  Both
/// inputs are name-sorted (registry::counter_values()), so one merge pass.
std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(after.size());
    std::size_t i = 0;
    for (const auto& [name, value] : after) {
        while (i < before.size() && before[i].first < name) ++i;
        const std::uint64_t base =
            (i < before.size() && before[i].first == name) ? before[i].second : 0;
        out.emplace_back(name, value - base);
    }
    return out;
}

/// Temp-file + rename, so a reader never sees a half-written checkpoint.
void write_report_atomically(const std::string& path, const batch_report& rep) {
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary);
    out << report_json(rep);
    out.close();
    if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) std::remove(tmp.c_str());
}

/// Appends `"key": value` pairs with stable ordering and formatting.
struct json_object {
    std::string& out;
    bool first = true;

    void key(const char* k) {
        if (!first) out += ", ";
        first = false;
        out += '"';
        out += k;
        out += "\": ";
    }
    void field(const char* k, const std::string& v) { key(k), json_append_escaped(out, v); }
    void field(const char* k, double v) { key(k), json_number(out, v); }
    void field(const char* k, std::size_t v) { key(k), out += std::to_string(v); }
    void field(const char* k, bool v) { key(k), out += v ? "true" : "false"; }
};

}  // namespace

batch_report run_batch(const std::vector<benchmarks::named_spec>& specs,
                       const batch_options& opt) {
    obs::span sweep_sp("batch.sweep", "batch");
    sweep_sp.arg("specs", static_cast<std::uint64_t>(specs.size()));
    batch_report rep;
    rep.specs.resize(specs.size());
    const std::size_t jobs =
        std::min(resolve_jobs(opt.jobs), std::max<std::size_t>(specs.size(), 1));
    rep.jobs = jobs;
    sweep_sp.arg("jobs", static_cast<std::uint64_t>(jobs));

    // One fingerprint per sweep: every spec runs under the same options.
    // Computed even with the store off -- the (spec, options) key doubles as
    // the per-spec correlation id on log lines and trace spans.
    const std::string fingerprint = store::options_fingerprint(opt.pipeline);

    // The v4 counter block carries what *this sweep* contributed, not the
    // process-lifetime totals (several sweeps can share one process).
    const auto counters_before = obs::registry::global().counter_values();

    if (!specs.empty()) {
        // done[i] tells the failure-path checkpoint which rows are safe to
        // read while other workers are still writing theirs.
        auto done = std::make_unique<std::atomic<bool>[]>(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) done[i].store(false);
        std::mutex checkpoint_m;
        auto flush_checkpoint = [&] {
            if (opt.checkpoint_file.empty()) return;
            std::lock_guard<std::mutex> lock(checkpoint_m);
            std::vector<spec_record> rows;
            for (std::size_t i = 0; i < specs.size(); ++i)
                if (done[i].load(std::memory_order_acquire)) rows.push_back(rep.specs[i]);
            write_report_atomically(opt.checkpoint_file,
                                    make_report(std::move(rows), jobs, sweep_sp.seconds()));
        };

        work_stealing_pool pool(jobs);
        pool.run(specs.size(), [&](std::size_t i) {
            // run_pipeline converts stage failures into structured errors; the
            // belt-and-braces catch keeps one poisoned spec (e.g. resource
            // exhaustion outside a stage) from sinking the whole sweep.
            try {
                const auto key = store::key_of(write_astg(specs[i].net), fingerprint);
                // Stable per-spec req_id derived from the store key: the same
                // spec under the same options logs the same id in every
                // sweep, so failures can be diffed across runs.
                obs::log_context log_ctx(key.hex().substr(0, 16));
                auto run = store::run_cached(
                    opt.store, opt.store.enabled() ? std::optional(key) : std::nullopt,
                    specs[i].net, opt.pipeline, fingerprint);
                rep.specs[i] = {std::move(run.record), specs[i].name, run.hit, run.deadline_hit};
            } catch (const std::exception& e) {
                spec_record bad;
                bad.name = specs[i].name;
                bad.failed_stage = "batch";
                bad.message = e.what();
                rep.specs[i] = std::move(bad);
            }
            done[i].store(true, std::memory_order_release);
            // A failure checkpoints everything finished so far: if the sweep
            // later dies outright, the report file still parses.
            if (!rep.specs[i].completed) flush_checkpoint();
        });
    }
    rep.wall_seconds = sweep_sp.seconds();
    aggregate(rep);
    rep.store_misses = opt.store.enabled() ? rep.count - rep.store_hits : 0;
    rep.counters = counter_delta(counters_before, obs::registry::global().counter_values());
    return rep;
}

batch_report make_report(std::vector<spec_record> specs, std::size_t jobs, double wall_seconds) {
    batch_report rep;
    rep.specs = std::move(specs);
    rep.jobs = jobs;
    rep.wall_seconds = wall_seconds;
    aggregate(rep);
    return rep;
}

std::string report_json(const batch_report& r) {
    std::string out = "{\n  ";
    json_object top{out};
    top.field("schema_version", std::size_t{6});
    top.field("tool", std::string("asynth batch"));
    top.field("jobs", r.jobs);
    top.field("count", r.count);
    top.field("completed", r.completed);
    top.field("failed", r.failed);
    top.field("synthesized", r.synthesized);
    top.field("csc_solved", r.csc_solved);
    top.field("wall_seconds", r.wall_seconds);
    top.field("cpu_seconds", r.cpu_seconds);
    top.field("specs_per_second", r.specs_per_second);
    top.field("total_states", r.total_states);
    top.field("total_arcs", r.total_arcs);
    top.field("total_explored", r.total_explored);
    top.field("total_csc_signals", r.total_csc_signals);
    top.field("total_literals", r.total_literals);
    top.field("total_area", r.total_area);
    // schema_version 2 additions: result-store efficiency and (service only)
    // the request queue-wait distribution.
    top.field("store_hits", r.store_hits);
    top.field("store_misses", r.store_misses);
    top.field("queue_wait_p50_ms", r.queue_wait_p50_ms);
    top.field("queue_wait_p90_ms", r.queue_wait_p90_ms);
    top.field("queue_wait_max_ms", r.queue_wait_max_ms);
    // schema_version 3 addition: implementation-level verification coverage
    // (the emit/verify per-stage timings appear via the generic <stage>_ms
    // mechanism and the stage_percentiles block).
    top.field("impl_checked", r.impl_checked);

    // schema_version 4 addition: the metrics-registry counter block (sweep
    // deltas for run_batch, absolute totals for a service drain).
    out += ",\n  \"counters\": {";
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        json_append_escaped(out, r.counters[i].first);
        out += ": " + std::to_string(r.counters[i].second);
    }
    out += r.counters.empty() ? "}" : "\n  }";

    out += ",\n  \"stage_percentiles\": [";
    for (std::size_t i = 0; i < r.stages.size(); ++i) {
        const auto& st = r.stages[i];
        out += i ? ",\n    " : "\n    ";
        out += "{";
        json_object o{out};
        o.field("stage", st.stage);
        o.field("runs", st.runs);
        o.field("p50_ms", st.p50_ms);
        o.field("p90_ms", st.p90_ms);
        o.field("max_ms", st.max_ms);
        o.field("total_ms", st.total_ms);
        out += "}";
    }
    out += r.stages.empty() ? "]" : "\n  ]";

    out += ",\n  \"specs\": [";
    for (std::size_t i = 0; i < r.specs.size(); ++i) {
        const auto& s = r.specs[i];
        out += i ? ",\n    " : "\n    ";
        out += "{";
        json_object o{out};
        o.field("name", s.name);
        o.field("completed", s.completed);
        o.field("synthesized", s.synthesized);
        if (!s.failed_stage.empty()) o.field("failed_stage", s.failed_stage);
        if (!s.message.empty()) o.field("message", s.message);
        o.field("states", s.states);
        o.field("arcs", s.arcs);
        o.field("signals", s.signals);
        o.field("explored", s.explored);
        o.field("csc_solved", s.csc_solved);
        o.field("csc_signals", s.csc_signals);
        o.field("initial_cost", s.initial_cost);
        o.field("reduced_cost", s.reduced_cost);
        o.field("literals", s.literals);
        o.field("area", s.area);
        o.field("cycle", s.cycle);
        o.field("seconds", s.seconds);
        o.field("store_hit", s.store_hit);
        o.field("impl_checked", s.impl_checked);
        if (s.impl_checked) o.field("impl_states", s.impl_states);
        // schema_version 6: a deadline cut this spec's search short.
        o.field("deadline_hit", s.deadline_hit);
        for (const auto& t : s.timings) {
            std::string k = std::string(stage_name(t.stage)) + "_ms";
            o.field(k.c_str(), t.seconds * 1e3);
        }
        out += "}";
    }
    out += r.specs.empty() ? "]" : "\n  ]";
    out += "\n}\n";
    return out;
}

std::string report_text(const batch_report& r) {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line, "%-16s %7s %7s %6s %8s %8s %9s  %s\n", "spec", "states",
                  "explored", "csc", "area", "cycle", "ms", "verdict");
    out += line;
    for (const auto& s : r.specs) {
        const char* verdict = !s.completed ? "FAILED" : (s.synthesized ? "ok" : "no circuit");
        std::snprintf(line, sizeof line, "%-16s %7zu %7zu %6zu %8.0f %8.1f %9.2f  %s%s%s%s%s\n",
                      s.name.c_str(), s.states, s.explored, s.csc_signals, s.area, s.cycle,
                      s.seconds * 1e3, verdict, s.deadline_hit ? " (deadline hit)" : "",
                      s.store_hit ? " (store)" : "", s.failed_stage.empty() ? "" : " at ",
                      s.failed_stage.c_str());
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "batch: %zu specs, %zu completed (%zu synthesized, %zu failed), "
                  "%zu states, jobs=%zu, %.2f s wall (%.2f s cpu), %.1f specs/s\n",
                  r.count, r.completed, r.synthesized, r.failed, r.total_states, r.jobs,
                  r.wall_seconds, r.cpu_seconds, r.specs_per_second);
    out += line;
    if (r.store_hits + r.store_misses > 0) {
        std::snprintf(line, sizeof line, "store: %zu hits, %zu misses\n", r.store_hits,
                      r.store_misses);
        out += line;
    }
    return out;
}

}  // namespace asynth::batch
