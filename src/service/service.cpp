#include "service/service.hpp"

#include <algorithm>

#include "batch/pool.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "petri/astg_io.hpp"
#include "service/options.hpp"
#include "util/percentile.hpp"

namespace asynth::service {

namespace {

/// Process-wide service metrics, registered once (and pre-registered by the
/// engine constructor so a scrape before any traffic still sees the series).
struct service_metrics {
    obs::counter& requests;
    obs::counter& completed;
    obs::counter& failed;
    obs::histogram& queue_wait_ms;
    obs::histogram& request_ms;
};

service_metrics& svc_obs() {
    auto& reg = obs::registry::global();
    static service_metrics m{
        reg.get_counter("asynth_service_requests_total", "Synth requests executed"),
        reg.get_counter("asynth_service_completed_total", "Requests whose pipeline completed"),
        reg.get_counter("asynth_service_failed_total", "Requests that failed (parse or stage)"),
        reg.get_histogram("asynth_service_queue_wait_ms", obs::default_ms_buckets(),
                          "Time requests waited in the daemon queue (ms)"),
        reg.get_histogram("asynth_service_request_ms", obs::default_ms_buckets(),
                          "execute() wall time per request (ms)"),
    };
    return m;
}

}  // namespace

std::optional<request> parse_request(std::string_view line, const pipeline_options& defaults,
                                     std::string& error, std::uint64_t* failed_id) {
    if (failed_id) *failed_id = 0;
    auto msg = json_parse(line);
    if (!msg || msg->k != json_value::kind::object) {
        error = "request is not a JSON object";
        return std::nullopt;
    }
    request req;
    req.op = msg->get_string("op", "synth");
    // Range-check before converting: casting a negative or huge double to
    // uint64_t is undefined behaviour, and this value arrives off a socket.
    if (const json_value* v = msg->find("id");
        v && v->k == json_value::kind::number && v->num >= 0.0 && v->num <= 9e15 &&
        v->num == static_cast<double>(static_cast<std::uint64_t>(v->num)))
        req.id = static_cast<std::uint64_t>(v->num);
    // From here on a failure can still be correlated by the client.
    if (failed_id) *failed_id = req.id;
    // The string correlation id rides along on every op and is echoed in the
    // response; its length is bounded because it lands in every log line.
    if (const json_value* v = msg->find("req_id")) {
        if (v->k != json_value::kind::string) {
            error = "'req_id' must be a string";
            return std::nullopt;
        }
        if (v->str.size() > 128) {
            error = "'req_id' must be at most 128 characters";
            return std::nullopt;
        }
        req.req_id = v->str;
    }
    if (req.op == "stats") {
        req.want_log = msg->get_bool("log", false);
        return req;
    }
    if (req.op == "metrics" || req.op == "ping" || req.op == "health" || req.op == "ready" ||
        req.op == "shutdown")
        return req;
    if (req.op != "synth") {
        error = "unknown op '" + req.op + "' (synth|stats|metrics|ping|health|ready|shutdown)";
        return std::nullopt;
    }
    req.spec_text = msg->get_string("spec");
    if (req.spec_text.empty()) {
        error = "op synth requires a non-empty 'spec' (astg text)";
        return std::nullopt;
    }
    req.spec_name = msg->get_string("name");
    req.store_bypass = msg->get_bool("no_store", false);
    req.want_astg = msg->get_bool("astg", false);
    req.options = defaults;
    if (!apply_request_options(*msg, req.options, error)) return std::nullopt;
    return req;
}

engine::engine(const service_options& opt) : opt_(opt) {
    opt_.jobs = batch::resolve_jobs(opt_.jobs);
    if (!opt_.store_dir.empty()) store_ = store::result_store::open(opt_.store_dir);
    // Touch the service series and the store counters now: `metrics` must
    // expose them (at zero) before the first request arrives.
    svc_obs();
    auto& reg = obs::registry::global();
    reg.get_counter("asynth_store_hits_total", "Result-store lookups served from disk");
    reg.get_counter("asynth_store_misses_total", "Result-store lookups that required synthesis");
}

std::string engine::execute(const request& req, double queue_wait_ms) {
    // Bind the request identity first: every log line, span arg and
    // slow-request record emitted while serving this request carries it.
    obs::log_context log_ctx(req.req_id);
    obs::span sp("service.request", "service");
    sp.arg("queue_ms", queue_wait_ms);
    if (!req.req_id.empty()) sp.arg("req_id", req.req_id);

    // The parse stage runs inside run_pipeline_text; for the store key the
    // text must be canonicalised first (write∘parse fixpoint), so parse once
    // here and reuse the stg for the pipeline on a miss.
    std::string parse_error;
    std::optional<stg> spec;
    try {
        spec = parse_astg(req.spec_text);
    } catch (const std::exception& e) {
        parse_error = e.what();
    }

    std::optional<store::cached_run> run;
    if (spec) {
        std::string fingerprint = store::options_fingerprint(req.options);
        std::optional<store::store_key> key;
        if (store_.enabled() && !req.store_bypass)
            key = store::key_of(write_astg(*spec), fingerprint);
        run = store::run_cached(store_, key, *spec, req.options, std::move(fingerprint));
    }
    const store::stored_record* rec = run ? &run->record : nullptr;
    const bool hit = run && run->hit;
    const bool deadline_hit = run && run->deadline_hit;  // cut runs are never stored

    const double service_ms = sp.seconds() * 1e3;
    const std::string spec_label =
        spec ? (req.spec_name.empty() ? spec->model_name : req.spec_name) : std::string();
    const char* store_state =
        !store_.enabled() || req.store_bypass ? "off" : (hit ? "hit" : "miss");

    // ---- response line ----------------------------------------------------
    json_line line;
    line.field("op", "synth");
    if (req.id != 0) line.field("id", req.id);
    if (!req.req_id.empty()) line.field("req_id", req.req_id);
    if (!spec) {
        line.field("ok", false);
        line.field("error", "parse: " + parse_error);
    } else {
        line.field("ok", rec->completed);
        line.field("completed", rec->completed);
        line.field("synthesized", rec->synthesized);
        line.field("csc_solved", rec->csc_solved);
        if (!rec->failed_stage.empty()) line.field("failed_stage", rec->failed_stage);
        if (!rec->message.empty()) line.field("verdict", rec->message);
        line.field("states", rec->states);
        line.field("arcs", rec->arcs);
        line.field("signals", rec->signals);
        line.field("explored", rec->explored);
        line.field("csc_signals", rec->csc_signals);
        line.field("literals", rec->literals);
        line.field("area", rec->area);
        line.field("cycle", rec->cycle);
        line.field("store", store_state);
        line.field("synth_seconds", rec->seconds);
        line.field("queue_ms", queue_wait_ms);
        line.field("service_ms", service_ms);
        // A deadline-cut answer says so, so a caller can always tell a
        // best-so-far result from a full search's.
        if (deadline_hit) line.field("deadline_hit", true);
        if (!rec->netlist.empty()) {
            std::string eqs = "[";
            for (std::size_t i = 0; i < rec->netlist.size(); ++i) {
                if (i) eqs += ",";
                json_append_escaped(eqs, rec->netlist[i].equation);
            }
            eqs += "]";
            line.raw("equations", eqs);
        }
        if (rec->impl_checked) {
            line.field("impl_checked", true);
            line.field("impl_states", rec->impl_states);
        }
        // The recovered STG rides along only on request: astg text dwarfs the
        // scalar fields, and most callers only want the verdict.
        if (req.want_astg) line.field("astg", rec->recovered_astg);
    }

    // ---- accounting -------------------------------------------------------
    if (spec) {
        sp.arg("spec", spec_label);
        sp.arg("store", store_state);
    }
    {
        obs::log_event ev(obs::log_level::info, "service.request");
        ev.field("spec", spec_label);
        ev.field("ok", spec && rec->completed);
        ev.field("store", store_state);
        ev.field("queue_ms", queue_wait_ms);
        ev.field("service_ms", service_ms);
        if (!spec) ev.field("error", "parse: " + parse_error);
    }
    // Requests over the slow threshold log their per-stage breakdown at warn
    // level, so a tail-latency incident can be diagnosed from the log alone.
    if (opt_.slow_ms > 0.0 && service_ms > opt_.slow_ms) {
        obs::log_event ev(obs::log_level::warn, "service.slow_request");
        ev.field("spec", spec_label);
        ev.field("store", store_state);
        ev.field("queue_ms", queue_wait_ms);
        ev.field("service_ms", service_ms);
        ev.field("slow_ms", opt_.slow_ms);
        if (spec && rec)
            for (const auto& t : rec->timings)
                ev.field(std::string("stage.") + stage_name(t.stage) + "_ms", t.seconds * 1e3);
    }
    service_metrics& sm = svc_obs();
    sm.requests.add();
    (spec && rec->completed ? sm.completed : sm.failed).add();
    sm.queue_wait_ms.observe(queue_wait_ms);
    sm.request_ms.observe(service_ms);
    {
        std::lock_guard<std::mutex> lock(m_);
        ++totals_.requests;
        totals_.busy_seconds += sp.seconds();
        if (spec && rec->completed) ++totals_.completed;
        else ++totals_.failed;
        queue_wait_.offer(queue_wait_ms);
        queue_wait_max_ms_ = std::max(queue_wait_max_ms_, queue_wait_ms);
        if (rows_.size() < max_retained && spec)
            rows_.push_back({*rec, spec_label, hit, deadline_hit});
    }
    return std::move(line).finish();
}

engine_stats engine::stats() const {
    engine_stats out;
    std::vector<double> sorted;
    {
        // Snapshot under the lock, sort outside it: the sort over the full
        // reservoir is O(n log n) and must not stall the workers' accounting
        // blocks.
        std::lock_guard<std::mutex> lock(m_);
        out = totals_;
        sorted = queue_wait_.samples();
        out.queue_wait_max_ms = queue_wait_max_ms_;
    }
    // The store counts its own lookups; only the engine looks this handle up.
    const store::store_stats ss = store_.stats();
    out.store_hits = ss.hits;
    out.store_misses = ss.lookups() - ss.hits;
    std::sort(sorted.begin(), sorted.end());
    out.queue_wait_p50_ms = nearest_rank(sorted, 0.5);
    out.queue_wait_p90_ms = nearest_rank(sorted, 0.9);
    return out;
}

std::string engine::metrics_text() { return obs::registry::global().prometheus_text(); }

std::string engine::stats_line(bool include_recent_log) const {
    const engine_stats s = stats();
    const store::store_stats ss = store_.stats();
    json_line line;
    line.field("op", "stats");
    line.field("ok", true);
    line.field("requests", s.requests);
    line.field("completed", s.completed);
    line.field("failed", s.failed);
    line.field("store_enabled", store_.enabled());
    line.field("store_hits", s.store_hits);
    line.field("store_misses", s.store_misses);
    line.field("store_corrupt", ss.corrupt);
    line.field("store_version_skew", ss.version_skew);
    line.field("store_writes", ss.writes);
    line.field("busy_seconds", s.busy_seconds);
    line.field("queue_wait_p50_ms", s.queue_wait_p50_ms);
    line.field("queue_wait_p90_ms", s.queue_wait_p90_ms);
    line.field("queue_wait_max_ms", s.queue_wait_max_ms);
    if (include_recent_log) {
        // Every ring entry is a self-contained JSON object (obs/log.hpp), so
        // the array can be assembled verbatim.
        std::string arr = "[";
        const auto lines = obs::recent_log_lines();
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (i) arr += ",";
            arr += lines[i];
        }
        arr += "]";
        line.raw("recent_log", arr);
    }
    return std::move(line).finish();
}

batch::batch_report engine::drain_report(double wall_seconds) const {
    engine_stats s = stats();
    std::vector<batch::spec_record> rows;
    {
        std::lock_guard<std::mutex> lock(m_);
        rows = rows_;
    }
    auto rep = batch::make_report(std::move(rows), opt_.jobs, wall_seconds);
    // Absolute process totals (a daemon lifetime is one "sweep"); run_batch
    // reports deltas instead.
    rep.counters = obs::registry::global().counter_values();
    // The counters are authoritative beyond the retention cap.
    rep.store_hits = s.store_hits;
    rep.store_misses = s.store_misses;
    rep.queue_wait_p50_ms = s.queue_wait_p50_ms;
    rep.queue_wait_p90_ms = s.queue_wait_p90_ms;
    rep.queue_wait_max_ms = s.queue_wait_max_ms;
    rep.cpu_seconds = s.busy_seconds;
    return rep;
}

}  // namespace asynth::service
