#include "service/service.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "perf/timing.hpp"
#include "petri/astg_io.hpp"

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

/// Nearest-rank percentile over an ascending sample vector.
double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

/// Applies the documented per-request overrides onto @p opt.  Returns false
/// and fills @p error on a bad value -- a typo must produce an error
/// response, not a silently different synthesis.
[[nodiscard]] bool apply_overrides(const json_value& msg, pipeline_options& opt,
                                   std::string& error) {
    auto bad = [&](const char* what) {
        error = what;
        return false;
    };
    if (const json_value* v = msg.find("w")) {
        if (v->k != json_value::kind::number || !(v->num >= 0.0 && v->num <= 1.0))
            return bad("'w' must be a number in [0,1]");
        opt.search.cost.w = v->num;
    }
    if (const json_value* v = msg.find("strategy")) {
        if (v->k != json_value::kind::string) return bad("'strategy' must be a string");
        if (v->str == "none") opt.strategy = reduction_strategy::none;
        else if (v->str == "beam") opt.strategy = reduction_strategy::beam;
        else if (v->str == "full") opt.strategy = reduction_strategy::full;
        else return bad("'strategy' must be none|beam|full");
    }
    auto positive_int = [&](const char* key, std::size_t& out, std::size_t min_v) {
        const json_value* v = msg.find(key);
        if (!v) return true;
        if (v->k != json_value::kind::number || v->num < static_cast<double>(min_v) ||
            v->num > 1e9 || v->num != static_cast<double>(static_cast<std::size_t>(v->num))) {
            error = std::string("'") + key + "' must be a small non-negative integer";
            return false;
        }
        out = static_cast<std::size_t>(v->num);
        return true;
    };
    if (!positive_int("frontier", opt.search.size_frontier, 1)) return false;
    if (!positive_int("max_levels", opt.search.max_levels, 0)) return false;
    if (!positive_int("csc_signals", opt.csc.max_signals, 0)) return false;
    if (const json_value* v = msg.find("phases")) {
        if (v->k != json_value::kind::number || (v->num != 2.0 && v->num != 4.0))
            return bad("'phases' must be 2 or 4");
        opt.expand.phases = static_cast<int>(v->num);
    }
    if (const json_value* v = msg.find("perf")) {
        if (v->k != json_value::kind::boolean) return bad("'perf' must be a boolean");
        opt.run_performance = v->b;
    }
    if (const json_value* v = msg.find("recover")) {
        if (v->k != json_value::kind::boolean) return bad("'recover' must be a boolean");
        opt.recover_stg = v->b;
    }
    if (const json_value* v = msg.find("verify")) {
        if (v->k != json_value::kind::boolean) return bad("'verify' must be a boolean");
        opt.verify_impl = v->b;
    }
    if (const json_value* v = msg.find("quality")) {
        if (v->k != json_value::kind::string) return bad("'quality' must be a string");
        if (v->str == "exact") opt.search.quality = search_quality::exact;
        else if (v->str == "bounded") opt.search.quality = search_quality::bounded;
        else if (v->str == "anytime") opt.search.quality = search_quality::anytime;
        else return bad("'quality' must be exact|bounded|anytime");
    }
    if (!positive_int("deadline_ms", opt.search.deadline_ms, 0)) return false;
    if (opt.search.deadline_ms > 0 && opt.search.quality != search_quality::anytime)
        return bad("'deadline_ms' requires 'quality': \"anytime\"");
    return true;
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
    if (!apply_overrides(*msg, req.options, error)) return std::nullopt;
    return req;
}

engine::engine(const service_options& opt) : opt_(opt) {
    if (opt_.jobs == 0)
        opt_.jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
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
    stopwatch sw;

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

    std::optional<store::stored_record> rec;
    bool hit = false;
    std::optional<store::store_key> key;
    std::string fingerprint;
    if (spec) {
        fingerprint = store::options_fingerprint(req.options);
        if (store_.enabled() && !req.store_bypass) {
            key = store::key_of(write_astg(*spec), fingerprint);
            if (auto got = store_.get(*key)) {
                rec = std::move(got);
                hit = true;
            }
        }
        if (!rec) {
            auto result = run_pipeline(*spec, req.options);
            auto fresh = store::record_of(result, fingerprint);
            // Cache only completed, uncut runs (failures and deadline-cut
            // anytime searches retry next time).
            if (key && store::cacheable(result)) store_.put(*key, fresh);
            rec = std::move(fresh);
        }
    }

    const double service_ms = sw.seconds() * 1e3;

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
        line.field("store", !store_.enabled() || req.store_bypass ? "off"
                                                                  : (hit ? "hit" : "miss"));
        line.field("synth_seconds", rec->seconds);
        line.field("queue_ms", queue_wait_ms);
        line.field("service_ms", service_ms);
        // Non-exact answers carry their quality label and bound gap, so a
        // caller can always tell an approximate result from an exact one.
        if (rec->quality != "exact") {
            line.field("quality", rec->quality);
            line.field("bound_gap", rec->bound_gap);
        }
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
    const std::string spec_label =
        spec ? (req.spec_name.empty() ? spec->model_name : req.spec_name) : std::string();
    const char* store_state =
        !store_.enabled() || req.store_bypass ? "off" : (hit ? "hit" : "miss");
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
            for (const auto& [stage, seconds] : rec->timings)
                ev.field("stage." + stage + "_ms", seconds * 1e3);
    }
    service_metrics& sm = svc_obs();
    sm.requests.add();
    (spec && rec->completed ? sm.completed : sm.failed).add();
    sm.queue_wait_ms.observe(queue_wait_ms);
    sm.request_ms.observe(service_ms);
    {
        std::lock_guard<std::mutex> lock(m_);
        ++totals_.requests;
        totals_.busy_seconds += sw.seconds();
        if (spec && rec->completed) ++totals_.completed;
        else ++totals_.failed;
        if (store_.enabled() && spec && !req.store_bypass) {
            if (hit) ++totals_.store_hits;
            else ++totals_.store_misses;
        }
        queue_wait_.offer(queue_wait_ms);
        queue_wait_max_ms_ = std::max(queue_wait_max_ms_, queue_wait_ms);
        if (rows_.size() < max_retained && spec) {
            auto row = batch::record_of_stored(
                req.spec_name.empty() ? spec->model_name : req.spec_name, *rec);
            row.store_hit = hit;
            rows_.push_back(std::move(row));
        }
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
    std::sort(sorted.begin(), sorted.end());
    out.queue_wait_p50_ms = percentile(sorted, 0.5);
    out.queue_wait_p90_ms = percentile(sorted, 0.9);
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
