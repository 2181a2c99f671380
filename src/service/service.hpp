// The synthesis service engine: protocol requests in, one-line JSON
// responses out, with the content-addressed result store in front of the
// pipeline.
//
// This layer is deliberately transport-free -- it never touches a socket --
// so the same engine serves three callers: the Unix-socket daemon
// (service/server.hpp), the in-process throughput bench
// (bench/service_throughput.cpp) and the unit tests.  The daemon owns
// connection handling and queuing; the engine owns request semantics:
//
//   parse_request   one protocol line -> typed request (op, spec, overrides)
//   execute         store lookup -> run_pipeline on miss -> store fill,
//                   with per-request wall-clock + queue-wait accounting
//   stats_line      one-line JSON counters (hits, misses, percentiles)
//   drain_report    the accumulated rows as a batch_report, so a service
//                   lifetime serialises into the same schema_version-2
//                   BENCH_pipeline.json format as a batch sweep
//
// Request options: a request may override every per-request row of the
// option table (service/options.hpp), each under its request key; keys the
// table does not know are ignored.  Result-affecting overrides flow into the
// store fingerprint, so differently configured requests can never alias one
// cache entry; the deadline stays out because a cut run is never cached and
// an uncut one equals the undeadlined run.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"
#include "service/json.hpp"
#include "store/result_store.hpp"

namespace asynth::service {

/// Service-level configuration (the daemon adds transport knobs on top).
struct service_options {
    pipeline_options pipeline;     ///< defaults for every request
    std::string store_dir;         ///< result store directory; "" = no store
    std::size_t jobs = 0;          ///< synthesis workers; 0 = hardware cores
    std::size_t queue_capacity = 64;  ///< bounded request queue (daemon enforces)
    /// Requests slower than this log their per-stage breakdown at warn level
    /// ("service.slow_request"); 0 disables the slow-request log.
    double slow_ms = 0.0;
    /// Readiness high-water mark: `{"op":"ready"}` reports ready:false while
    /// the queue holds at least this many requests.  0 = 3/4 of
    /// queue_capacity (at least 1).
    std::size_t ready_high_water = 0;
};

/// One parsed protocol request.
struct request {
    std::string op;  ///< "synth" | "stats" | "metrics" | "ping" | "health" | "ready" | "shutdown"
    std::uint64_t id = 0;   ///< client-chosen correlation id, echoed back
    std::string req_id;     ///< correlation id threaded through logs, spans and the response
    std::string spec_name;  ///< optional label for reports ("" = derived)
    std::string spec_text;  ///< astg text (op == "synth")
    pipeline_options options;  ///< defaults merged with request overrides
    bool store_bypass = false;  ///< "no_store": skip lookup AND fill
    bool want_astg = false;     ///< "astg": include recovered STG text in the response
    bool want_log = false;      ///< "log" (op stats): include the recent-events ring
};

/// Parses one request line against @p defaults.  Returns nullopt and fills
/// @p error for malformed lines (unknown op, missing spec, bad option
/// values); the daemon turns that into an error response, never a drop.
/// @p failed_id, when non-null, receives the request's (validated) id even
/// on failure, so the error response can keep the id-correlation contract
/// for pipelined clients.
[[nodiscard]] std::optional<request> parse_request(std::string_view line,
                                                   const pipeline_options& defaults,
                                                   std::string& error,
                                                   std::uint64_t* failed_id = nullptr);

/// Running totals of one engine (all monotone; snapshot via stats()).
struct engine_stats {
    std::uint64_t requests = 0;       ///< synth requests executed
    std::uint64_t completed = 0;      ///< ... whose every stage ran
    std::uint64_t failed = 0;         ///< ... that failed a stage
    std::uint64_t store_hits = 0;     ///< served from the store
    std::uint64_t store_misses = 0;   ///< synthesised (store open)
    double busy_seconds = 0.0;        ///< summed execute() wall-clock
    /// Percentiles over a bounded uniform sample of every wait ever seen
    /// (reservoir sampling -- O(1) per request, O(cap) memory), plus the
    /// exact running maximum.
    double queue_wait_p50_ms = 0.0;
    double queue_wait_p90_ms = 0.0;
    double queue_wait_max_ms = 0.0;
};

/// The transport-free request executor.  Thread-safe: execute() may be
/// called from every pool worker concurrently (the store handle and the
/// accounting mutex are shared state; the pipeline itself is pure).
class engine {
public:
    explicit engine(const service_options& opt);

    [[nodiscard]] const store::result_store& store() const { return store_; }
    [[nodiscard]] const service_options& options() const { return opt_; }

    /// Executes one synth request and returns the one-line JSON response.
    /// @p queue_wait_ms is how long the daemon held the request before a
    /// worker picked it up (0 for in-process callers); it is accounted into
    /// the queue-wait percentiles.
    [[nodiscard]] std::string execute(const request& req, double queue_wait_ms);

    /// One-line JSON stats response (op "stats").  With
    /// @p include_recent_log the response embeds the logger's bounded ring of
    /// recent events as a `recent_log` array of JSON objects.
    [[nodiscard]] std::string stats_line(bool include_recent_log = false) const;

    /// Prometheus text exposition of the process-wide metrics registry
    /// (op "metrics").  The engine pre-registers the store and queue-wait
    /// series at construction, so scrapes see them even before traffic.
    [[nodiscard]] static std::string metrics_text();

    [[nodiscard]] engine_stats stats() const;

    /// The retained per-request rows aggregated as a batch report (schema
    /// shared with `asynth batch`); @p wall_seconds is the service lifetime.
    /// Row retention is capped (8192) so a long-lived daemon cannot grow
    /// without bound; the counters keep counting past the cap, and the
    /// queue-wait percentiles stay faithful to the whole stream via the
    /// reservoir.
    [[nodiscard]] batch::batch_report drain_report(double wall_seconds) const;

private:
    service_options opt_;
    store::result_store store_;

    mutable std::mutex m_;
    engine_stats totals_;
    obs::reservoir queue_wait_{8192};          ///< bounded uniform sample of all waits
    double queue_wait_max_ms_ = 0.0;           ///< exact running maximum
    std::vector<batch::spec_record> rows_;     ///< retained rows (capped)
    static constexpr std::size_t max_retained = 8192;
};

}  // namespace asynth::service
