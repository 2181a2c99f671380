// Batch synthesis engine: run_pipeline() over a whole corpus on a
// work-stealing thread pool, aggregated into one report.
//
// The paper's experiments (Tables 1 and 2) are statements about a *corpus*,
// not a single spec; this module makes such sweeps a first-class operation.
// run_batch() executes every spec independently -- the pipeline layers are
// pure over their inputs (see the thread-safety notes in
// pipeline/pipeline.hpp and sg/state_graph.hpp) -- and the per-spec records
// land in input order, so the report is byte-for-byte independent of the job count
// apart from the timing fields.
//
// report_json() serialises the report in a schema-stable layout
// (schema_version 6) written as BENCH_pipeline.json by `asynth batch
// --report`; the checked-in BENCH_pipeline.json at the repo root is the perf
// baseline subsequent PRs measure against.  Version 2 added the result-store
// hit/miss aggregates and the service's queue-wait percentiles on top of
// version 1; version 3 added the implementation-verification coverage fields
// and the emit/verify per-stage timings; version 4 adds the "counters" block
// -- the process-wide metrics registry (src/obs/) snapshotted around the
// sweep, so BENCH runs carry explored/pruned/memo-hit/store counters, not
// just timings; version 5 added the fields of a since-removed search-quality
// dial; version 6 replaces them with a per-spec "deadline_hit" flag.
// tools/check_bench_regression.py reads all six.
//
// With batch_options::store set (CLI: --store DIR), the sweep is *resumable*:
// each spec is first looked up in the content-addressed result store
// (store/result_store.hpp) under its canonical-text + options key, hits are
// reported from the stored record's summary without re-running the pipeline,
// and misses are synthesised and written back -- so a killed sweep re-run over
// the same corpus skips everything it already finished, and batch and the
// synthesis service share one corpus of results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/corpus.hpp"
#include "pipeline/pipeline.hpp"
#include "store/result_store.hpp"

namespace asynth::batch {

/// Configuration of one sweep.
struct batch_options {
    pipeline_options pipeline;  ///< applied identically to every spec
    /// Worker threads; 0 picks std::thread::hardware_concurrency().  The
    /// per-spec records do not depend on this value (only the timings do).
    std::size_t jobs = 0;
    /// Result store consulted/filled by the sweep; the default handle is
    /// disabled (every spec synthesised, nothing written).  Open one with
    /// store::result_store::open() to make sweeps resumable.
    store::result_store store;
    /// When non-empty, a partial report (the rows finished so far) is flushed
    /// to this path every time a spec *fails*, via temp-file + rename.  A
    /// sweep that aborts mid-corpus therefore still leaves a parsable report;
    /// a clean finish overwrites it with the full one (the CLI wires --report
    /// here).
    std::string checkpoint_file;
};

/// One report row: the run's summary (store/record.hpp) plus the row's name
/// and flags.  For a store hit the summary -- `seconds` and `timings`
/// included -- is the *producing* run's; the sweep-level wall_seconds
/// carries the actual elapsed time.
struct spec_record : store::result_summary {
    std::string name;        ///< spec name within the sweep
    bool store_hit = false;  ///< row served from the result store
    /// A search deadline cut the search short (v6); the row then holds the
    /// best-so-far result.  Always false for store hits: cut runs are never
    /// cached.
    bool deadline_hit = false;
};

/// Wall-clock distribution of one pipeline stage across the sweep.
struct stage_stats {
    std::string stage;      ///< stage name ("expand", "state-graph", ...)
    std::size_t runs = 0;   ///< specs that executed the stage
    double p50_ms = 0.0;    ///< median stage wall-clock, milliseconds
    double p90_ms = 0.0;    ///< 90th percentile, milliseconds
    double max_ms = 0.0;    ///< worst spec, milliseconds
    double total_ms = 0.0;  ///< sum over the sweep, milliseconds
};

/// Corpus-level outcome of one sweep.
struct batch_report {
    std::size_t jobs = 1;            ///< worker threads actually used
    double wall_seconds = 0.0;       ///< sweep wall-clock (threads overlap)
    double cpu_seconds = 0.0;        ///< sum of per-spec pipeline totals
    double specs_per_second = 0.0;   ///< count / wall_seconds
    std::size_t count = 0;           ///< specs in the sweep
    std::size_t completed = 0;       ///< specs whose every stage ran
    std::size_t failed = 0;          ///< count - completed
    std::size_t synthesized = 0;     ///< specs that produced a circuit
    std::size_t csc_solved = 0;      ///< specs whose CSC was resolved
    std::size_t total_states = 0;    ///< sum of base SG states
    std::size_t total_arcs = 0;      ///< sum of base SG arcs
    std::size_t total_explored = 0;  ///< sum of search explorations
    std::size_t total_csc_signals = 0;  ///< sum of inserted state signals
    std::size_t total_literals = 0;  ///< sum of reduced-SG literal estimates
    double total_area = 0.0;         ///< sum of areas over synthesized specs
    std::size_t store_hits = 0;      ///< specs served from the result store
    std::size_t store_misses = 0;    ///< specs synthesised (store open but cold)
    /// Per-request queue-wait distribution, milliseconds.  Filled by the
    /// synthesis service (service/service.hpp), which aggregates its request
    /// accounting through this same report; always 0 for batch sweeps, where
    /// nothing queues behind a socket.
    double queue_wait_p50_ms = 0.0;
    double queue_wait_p90_ms = 0.0;
    double queue_wait_max_ms = 0.0;
    std::size_t impl_checked = 0;    ///< specs whose netlist emulated clean (v3)
    /// Metrics-registry counters (v4), name-sorted.  run_batch fills deltas
    /// accumulated across the sweep; the service's drain report fills the
    /// absolute process totals.
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<stage_stats> stages; ///< per-stage percentiles, stage order
    std::vector<spec_record> specs;  ///< one record per spec, input order
};

/// Runs the pipeline over every spec on a work-stealing pool and aggregates.
/// A spec that fails -- structured pipeline error or a stray exception --
/// yields a failed record without affecting the rest of the sweep.
[[nodiscard]] batch_report run_batch(const std::vector<benchmarks::named_spec>& specs,
                                     const batch_options& opt = {});

/// Aggregates already-collected rows into a report (counts, stage
/// percentiles, specs/second).  The synthesis service drains through this so
/// its report and report_json(BENCH_pipeline.json) stay one schema.
[[nodiscard]] batch_report make_report(std::vector<spec_record> specs, std::size_t jobs,
                                       double wall_seconds);

/// Schema-stable JSON serialisation of the report (schema_version 6): fixed
/// key order, aggregate block first, then the counters block, then stage
/// percentiles, then one object per spec.  This is the BENCH_pipeline.json
/// format.  v2 = v1 plus store_hits/store_misses, the queue_wait_*
/// percentiles and per-spec store_hit flags; v3 = v2 plus the impl_checked
/// aggregates/flags and the emit/verify stage timings; v4 = v3 plus the
/// "counters" object (metrics-registry snapshot); v5 = v4 plus the fields of
/// a since-removed search-quality dial; v6 = v4 plus the per-spec
/// "deadline_hit" flag.  Readers that index specs[] keep
/// working across versions.
[[nodiscard]] std::string report_json(const batch_report& r);

/// Compact per-spec table plus the aggregate line, for terminal output.
[[nodiscard]] std::string report_text(const batch_report& r);

}  // namespace asynth::batch
