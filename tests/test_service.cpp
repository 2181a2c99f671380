// The synthesis service: the JSON protocol layer, the transport-free engine
// (store-backed execution, per-request accounting, drain report) and one
// live Unix-socket daemon end-to-end (serve -> concurrent clients -> stats
// -> shutdown drain).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "benchmarks/corpus.hpp"
#include "obs/log.hpp"
#include "option_values.hpp"
#include "petri/astg_io.hpp"
#include "service/json.hpp"
#include "service/options.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

using namespace asynth;
using service::json_parse;
using service::json_value;

// ---- json -------------------------------------------------------------------

TEST(service_json, parses_the_protocol_shapes) {
    auto v = json_parse(R"({"op":"synth","id":7,"w":0.25,"flags":[true,false,null],)"
                        R"("nested":{"k":"v"},"text":"a\nb\t\"q\"A"})");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->get_string("op"), "synth");
    EXPECT_EQ(v->get_number("id"), 7.0);
    EXPECT_EQ(v->get_number("w"), 0.25);
    ASSERT_NE(v->find("flags"), nullptr);
    EXPECT_EQ(v->find("flags")->arr.size(), 3u);
    EXPECT_EQ(v->find("nested")->find("k")->str, "v");
    EXPECT_EQ(v->get_string("text"), "a\nb\t\"q\"A");
    EXPECT_EQ(v->get_string("absent", "fallback"), "fallback");
}

TEST(service_json, rejects_malformed_input) {
    EXPECT_FALSE(json_parse("").has_value());
    EXPECT_FALSE(json_parse("{").has_value());
    EXPECT_FALSE(json_parse(R"({"a":1} trailing)").has_value());
    EXPECT_FALSE(json_parse(R"({"a":})").has_value());
    EXPECT_FALSE(json_parse(R"({"unterminated)").has_value());
    EXPECT_FALSE(json_parse("{\"raw\":\"\x01\"}").has_value());  // bare control char
    EXPECT_FALSE(json_parse(R"({"bad\q":1})").has_value());
    EXPECT_FALSE(json_parse("nul").has_value());
    EXPECT_FALSE(json_parse("1e999").has_value());  // non-finite
    // Depth bomb stays bounded instead of smashing the stack.
    std::string deep(2000, '[');
    deep += std::string(2000, ']');
    EXPECT_FALSE(json_parse(deep).has_value());
}

TEST(service_json, escaping_roundtrips_through_the_parser) {
    const std::string nasty = "line\nquote\"back\\slash\ttab\rcr\x02end";
    std::string out;
    service::json_append_escaped(out, nasty);
    auto v = json_parse("{\"k\":" + out + "}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->get_string("k"), nasty);
}

TEST(service_json, json_line_builds_stable_objects) {
    service::json_line line;
    line.field("op", "stats");
    line.field("ok", true);
    line.field("n", std::uint64_t{42});
    line.field("x", 1.5);
    const std::string s = std::move(line).finish();
    EXPECT_EQ(s, R"({"op":"stats","ok":true,"n":42,"x":1.5})");
    ASSERT_TRUE(json_parse(s).has_value());
}

// ---- request parsing --------------------------------------------------------

TEST(service_request, defaults_overrides_and_errors) {
    const pipeline_options defaults;
    std::string error;

    auto ping = service::parse_request(R"({"op":"ping","id":3})", defaults, error);
    ASSERT_TRUE(ping.has_value());
    EXPECT_EQ(ping->op, "ping");
    EXPECT_EQ(ping->id, 3u);

    auto synth = service::parse_request(
        R"({"spec":".model m\n.end\n","w":0.75,"strategy":"full","frontier":8})", defaults,
        error);
    ASSERT_TRUE(synth.has_value()) << error;
    EXPECT_EQ(synth->op, "synth");  // synth is the default op
    EXPECT_EQ(synth->options.search.cost.w, 0.75);
    EXPECT_EQ(synth->options.strategy, reduction_strategy::full);
    EXPECT_EQ(synth->options.search.size_frontier, 8u);
    // Untouched knobs keep the server defaults.
    EXPECT_EQ(synth->options.csc.max_signals, defaults.csc.max_signals);

    EXPECT_FALSE(service::parse_request("not json", defaults, error).has_value());
    EXPECT_FALSE(service::parse_request(R"({"op":"launch"})", defaults, error).has_value());
    EXPECT_NE(error.find("unknown op"), std::string::npos);
    // A failing request still surfaces its id, so the error response keeps
    // the correlation contract for pipelined clients.
    std::uint64_t failed_id = 0;
    EXPECT_FALSE(service::parse_request(R"({"id":7,"spec":"x","w":5})", defaults, error,
                                        &failed_id)
                     .has_value());
    EXPECT_EQ(failed_id, 7u);
    // Hostile ids (negative, huge, fractional) read as 0 instead of UB.
    for (const char* line : {R"({"op":"ping","id":-1})", R"({"op":"ping","id":1e300})",
                             R"({"op":"ping","id":3.5})"}) {
        auto hostile = service::parse_request(line, defaults, error);
        ASSERT_TRUE(hostile.has_value()) << line;
        EXPECT_EQ(hostile->id, 0u) << line;
    }
    EXPECT_FALSE(service::parse_request(R"({"op":"synth"})", defaults, error).has_value());
    EXPECT_FALSE(
        service::parse_request(R"({"spec":"x","w":1.5})", defaults, error).has_value());
    EXPECT_NE(error.find("'w'"), std::string::npos);
    EXPECT_FALSE(
        service::parse_request(R"({"spec":"x","strategy":"fast"})", defaults, error)
            .has_value());
    EXPECT_FALSE(
        service::parse_request(R"({"spec":"x","frontier":0})", defaults, error).has_value());
    EXPECT_FALSE(
        service::parse_request(R"({"spec":"x","phases":3})", defaults, error).has_value());
}

TEST(service_request, every_surface_sets_the_same_pipeline_options) {
    // One legal non-default value per table row, set four ways: `asynth`
    // argv, `asynth batch` argv (both go through option_arg_value +
    // apply_option, from their own defaults), a hand-written JSON request,
    // and the line `asynth client` builds, read back by parse_request.
    const pipeline_options run_defaults;
    const pipeline_options batch_defaults = batch::batch_options{}.pipeline;
    const pipeline_options daemon_defaults = service::service_options{}.pipeline;
    const auto table = service::pipeline_option_table();
    for (const auto& o : table) {
        SCOPED_TRACE(o.flag);
        const std::string arg = non_default_arg(o, run_defaults);
        std::vector<pipeline_options> got(2);
        got[0] = run_defaults;
        got[1] = batch_defaults;
        for (auto& opt : got)
            ASSERT_TRUE(service::apply_option(o, service::option_arg_value(o, arg.c_str()), opt));
        EXPECT_NE(o.get(got[0]), o.get(run_defaults));

        if (o.per_request()) {
            std::string error;
            const std::string hand =
                std::string(R"({"spec":"x",")") + o.key + "\":" + json_literal(o, arg) + "}";
            service::json_line line;
            line.field("op", "synth");
            line.field("spec", "x");
            service::append_option_field(line, o, service::option_arg_value(o, arg.c_str()));
            for (const std::string& text : {hand, std::move(line).finish()}) {
                auto req = service::parse_request(text, daemon_defaults, error);
                ASSERT_TRUE(req.has_value()) << text << ": " << error;
                got.push_back(req->options);
            }
        }
        for (std::size_t i = 1; i < got.size(); ++i) {
            EXPECT_EQ(store::options_fingerprint(got[i]), store::options_fingerprint(got[0])) << i;
            for (const auto& row : table)
                EXPECT_EQ(row.get(got[i]), row.get(got[0])) << "surface " << i << ": " << row.flag;
        }
    }
}

// ---- engine (transport-free) ------------------------------------------------

namespace {

struct temp_dir {
    std::string path;
    explicit temp_dir(const char* tag) {
        path = (std::filesystem::temp_directory_path() /
                (std::string("asynth_service_") + tag + "_" + std::to_string(::getpid())))
                   .string();
        std::filesystem::remove_all(path);
    }
    ~temp_dir() { std::filesystem::remove_all(path); }
};

service::request synth_request(const stg& net, const pipeline_options& defaults) {
    service::request req;
    req.op = "synth";
    req.spec_text = write_astg(net);
    req.spec_name = net.model_name;
    req.options = defaults;
    return req;
}

}  // namespace

TEST(service_engine, executes_misses_then_hits_with_accounting) {
    temp_dir dir("engine");
    service::service_options opt;
    opt.store_dir = dir.path;
    opt.jobs = 1;
    service::engine eng(opt);
    ASSERT_TRUE(eng.store().enabled()) << eng.store().message();

    const auto req = synth_request(benchmarks::lr_process(), opt.pipeline);
    auto first = json_parse(eng.execute(req, 1.0));
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->get_bool("ok"));
    EXPECT_TRUE(first->get_bool("synthesized"));
    EXPECT_EQ(first->get_string("store"), "miss");
    EXPECT_EQ(first->get_number("area"), 0.0);  // LR synthesises to two wires
    ASSERT_NE(first->find("equations"), nullptr);
    EXPECT_EQ(first->find("equations")->arr.size(), 2u);

    auto second = json_parse(eng.execute(req, 3.0));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->get_string("store"), "hit");
    // The hit reports the *producing* run's synthesis cost.
    EXPECT_EQ(second->get_number("synth_seconds"), first->get_number("synth_seconds"));

    const auto s = eng.stats();
    EXPECT_EQ(s.requests, 2u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.store_hits, 1u);
    EXPECT_EQ(s.store_misses, 1u);
    EXPECT_EQ(s.queue_wait_p50_ms, 3.0);  // nearest-rank over {1,3} rounds up
    EXPECT_EQ(s.queue_wait_max_ms, 3.0);

    auto stats = json_parse(eng.stats_line());
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->get_number("requests"), 2.0);
    EXPECT_EQ(stats->get_number("store_hits"), 1.0);

    const auto rep = eng.drain_report(1.0);
    EXPECT_EQ(rep.count, 2u);
    EXPECT_EQ(rep.store_hits, 1u);
    EXPECT_EQ(rep.store_misses, 1u);
    EXPECT_EQ(rep.queue_wait_max_ms, 3.0);
    const std::string json = batch::report_json(rep);
    EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"store_hits\": 1"), std::string::npos);
}

TEST(service_engine, deadline_cut_anytime_results_are_not_cached) {
    // A deadline-cut search is an accident of the machine's speed:
    // the store must not keep it under the request's key, so repeating the
    // request runs the pipeline again (a miss, not a hit).
    temp_dir dir("deadline_cut");
    service::service_options opt;
    opt.store_dir = dir.path;
    opt.jobs = 1;
    service::engine eng(opt);
    ASSERT_TRUE(eng.store().enabled()) << eng.store().message();

    pipeline_options po = opt.pipeline;
    po.search.deadline_ms = 1;
    const auto req = synth_request(benchmarks::mmu_controller(), po);
    auto first = json_parse(eng.execute(req, 0.0));
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(first->get_bool("ok"));
    EXPECT_EQ(first->get_string("store"), "miss");
    // The multi-level search cannot finish inside 1 ms: the response says so.
    ASSERT_TRUE(first->get_bool("deadline_hit"));

    auto second = json_parse(eng.execute(req, 0.0));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->get_string("store"), "miss");
    EXPECT_EQ(eng.stats().store_hits, 0u);
    EXPECT_EQ(eng.stats().store_misses, 2u);
}

TEST(service_engine, uncut_deadline_request_hits_the_undeadlined_entry) {
    // The deadline is not part of the store key: cut runs are never cached,
    // and a run the deadline did not cut equals the undeadlined one.  So
    // after an undeadlined request fills the store, the same spec asked
    // with a generous deadline is served from it.
    temp_dir dir("deadline_hit");
    service::service_options opt;
    opt.store_dir = dir.path;
    opt.jobs = 1;
    service::engine eng(opt);
    ASSERT_TRUE(eng.store().enabled()) << eng.store().message();

    std::string spec;
    service::json_append_escaped(spec, write_astg(benchmarks::lr_process()));
    std::string error;
    const auto plain = service::parse_request(R"({"spec":)" + spec + "}", opt.pipeline, error);
    ASSERT_TRUE(plain.has_value()) << error;
    const auto deadlined = service::parse_request(
        R"({"spec":)" + spec + R"(,"deadline_ms":3600000})", opt.pipeline, error);
    ASSERT_TRUE(deadlined.has_value()) << error;
    EXPECT_EQ(deadlined->options.search.deadline_ms, 3600000u);

    auto first = json_parse(eng.execute(*plain, 0.0));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->get_string("store"), "miss");
    auto second = json_parse(eng.execute(*deadlined, 0.0));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->get_string("store"), "hit");
    EXPECT_EQ(second->find("deadline_hit"), nullptr);
    EXPECT_EQ(second->get_number("area"), first->get_number("area"));
}

TEST(service_engine, astg_request_returns_the_recovered_stg) {
    // The `asynth client --out` contract: a synth request with "astg":true
    // carries the recovered STG text in the response -- on the cold miss AND
    // on the store hit (the daemon fully replaces the CLI's --out).
    temp_dir dir("astg");
    service::service_options opt;
    opt.store_dir = dir.path;
    opt.jobs = 1;
    service::engine eng(opt);

    const pipeline_options defaults;
    std::string error;
    auto req = service::parse_request(
        R"({"spec":)" + [] {
            std::string s;
            service::json_append_escaped(s, write_astg(benchmarks::lr_process()));
            return s;
        }() + R"(,"astg":true})",
        defaults, error);
    ASSERT_TRUE(req.has_value()) << error;
    EXPECT_TRUE(req->want_astg);

    for (const char* pass : {"miss", "hit"}) {
        auto resp = json_parse(eng.execute(*req, 0.0));
        ASSERT_TRUE(resp.has_value());
        EXPECT_EQ(resp->get_string("store"), pass);
        const json_value* astg = resp->find("astg");
        ASSERT_NE(astg, nullptr) << pass;
        ASSERT_EQ(astg->k, json_value::kind::string);
        // The returned text is a valid astg of the reduced model.
        stg recovered;
        ASSERT_NO_THROW(recovered = parse_astg(astg->str)) << pass;
        EXPECT_NE(recovered.model_name.find("_reduced"), std::string::npos);
    }

    // Without the flag the response stays lean: no astg field.
    req->want_astg = false;
    auto lean = json_parse(eng.execute(*req, 0.0));
    ASSERT_TRUE(lean.has_value());
    EXPECT_EQ(lean->find("astg"), nullptr);
}

TEST(service_engine, every_synth_response_carries_impl_checked_and_legacy_verify_is_ignored) {
    // Verification is unconditional.  Clients written against the old
    // "verify" override keep working: the key -- even false, even mistyped
    // -- parses and changes nothing.
    const pipeline_options defaults;
    std::string error;
    for (const char* line : {R"({"spec":"x","verify":true})", R"({"spec":"x","verify":false})",
                             R"({"spec":"x","verify":1})"}) {
        auto req = service::parse_request(line, defaults, error);
        ASSERT_TRUE(req.has_value()) << line << ": " << error;
        EXPECT_EQ(store::options_fingerprint(req->options), store::options_fingerprint(defaults))
            << line;
    }

    service::service_options opt;  // no store
    opt.jobs = 1;
    service::engine eng(opt);
    auto resp = json_parse(eng.execute(synth_request(benchmarks::lr_process(), defaults), 0.0));
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->get_bool("ok"));
    EXPECT_TRUE(resp->get_bool("impl_checked"));
    EXPECT_GT(resp->get_number("impl_states"), 0.0);
}

TEST(service_engine, override_requests_do_not_alias_default_cache_entries) {
    temp_dir dir("alias");
    service::service_options opt;
    opt.store_dir = dir.path;
    opt.jobs = 1;
    service::engine eng(opt);

    auto req = synth_request(benchmarks::lr_process(), opt.pipeline);
    (void)eng.execute(req, 0.0);
    // Same spec, different W: a different fingerprint, so a miss -- never a
    // stale hit from the default entry.
    auto overridden = req;
    overridden.options.search.cost.w = 0.25;
    auto r = json_parse(eng.execute(overridden, 0.0));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->get_string("store"), "miss");
    EXPECT_EQ(eng.stats().store_misses, 2u);
}

TEST(service_engine, parse_failures_and_store_bypass) {
    service::service_options opt;  // no store
    opt.jobs = 1;
    service::engine eng(opt);

    service::request bad;
    bad.op = "synth";
    bad.spec_text = ".model broken\n.graph\nnonsense arc\n.end\n";
    bad.options = opt.pipeline;
    auto r = json_parse(eng.execute(bad, 0.0));
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->get_bool("ok"));
    EXPECT_NE(r->get_string("error").find("parse"), std::string::npos);

    auto good = synth_request(benchmarks::lr_process(), opt.pipeline);
    auto ok = json_parse(eng.execute(good, 0.0));
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->get_string("store"), "off");
    EXPECT_EQ(eng.stats().store_hits + eng.stats().store_misses, 0u);
}

// ---- the daemon, live -------------------------------------------------------

TEST(service_server, serves_concurrent_clients_and_drains_on_shutdown) {
    temp_dir dir("daemon");
    // AF_UNIX paths are length-limited (~108); keep it short and relative.
    const std::string socket_path = "svc_test_" + std::to_string(::getpid()) + ".sock";

    service::server_options opt;
    opt.socket_path = socket_path;
    opt.service.store_dir = dir.path;
    opt.service.jobs = 2;
    opt.service.queue_capacity = 32;
    opt.verbose = false;

    int server_rc = -1;
    std::thread server([&] { server_rc = service::run_server(opt); });

    service::client_options cl;
    cl.socket_path = socket_path;

    auto request_line = [&](const stg& net) {
        service::json_line line;
        line.field("op", "synth");
        line.field("spec", write_astg(net));
        line.field("name", net.model_name);
        return std::move(line).finish();
    };

    // Wait for the daemon (run_client retries the connect inside its window).
    {
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"ping"})", resp), 0) << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value());
        EXPECT_FALSE(v->get_bool("draining"));
    }

    // Two passes of concurrent clients over distinct specs: pass 1 fills the
    // store, pass 2 must be all hits.
    const std::vector<stg> specs = {benchmarks::lr_process(), benchmarks::par_component(),
                                    benchmarks::fig6_mixed(), benchmarks::mmu_controller()};
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<std::string> responses(specs.size());
        std::vector<int> codes(specs.size(), -1);
        std::vector<std::thread> clients;
        clients.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            clients.emplace_back([&, i] {
                codes[i] = service::run_client(cl, request_line(specs[i]), responses[i]);
            });
        for (auto& t : clients) t.join();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(codes[i], 0) << responses[i];
            auto v = json_parse(responses[i]);
            ASSERT_TRUE(v.has_value()) << responses[i];
            EXPECT_TRUE(v->get_bool("completed")) << responses[i];
            EXPECT_EQ(v->get_string("store"), pass == 0 ? "miss" : "hit") << responses[i];
        }
    }

    // Aggregate accounting agrees with what the clients observed.
    {
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"stats"})", resp), 0) << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->get_number("requests"), 8.0);
        EXPECT_EQ(v->get_number("store_hits"), 4.0);
        EXPECT_EQ(v->get_number("store_misses"), 4.0);
    }

    // Malformed and unknown-op lines get error responses, not hangups.
    {
        std::string resp;
        EXPECT_EQ(service::run_client(cl, "this is not json", resp), 1) << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value()) << resp;
        EXPECT_FALSE(v->get_bool("ok"));
    }

    // A one-shot client that half-closes its write side after the request
    // (send; shutdown(SHUT_WR); recv -- the `nc -N` pattern) must still get
    // its response: read-EOF is not write-broken.
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
        const std::string line = std::string(R"({"op":"ping","id":99})") + "\n";
        ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
                  static_cast<ssize_t>(line.size()));
        ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
        std::string resp;
        char buf[4096];
        for (;;) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0) break;
            resp.append(buf, static_cast<std::size_t>(n));
            if (resp.find('\n') != std::string::npos) break;
        }
        ::close(fd);
        auto v = json_parse(resp.substr(0, resp.find('\n')));
        ASSERT_TRUE(v.has_value()) << "no response after half-close: '" << resp << "'";
        EXPECT_TRUE(v->get_bool("ok"));
        EXPECT_EQ(v->get_number("id"), 99.0);
    }

    // Shutdown drains and the server thread exits 0.
    {
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"shutdown"})", resp), 0) << resp;
    }
    server.join();
    EXPECT_EQ(server_rc, 0);
    EXPECT_FALSE(std::filesystem::exists(socket_path));  // socket removed on drain
}

// ---- request correlation, health and readiness ------------------------------

TEST(service_request, req_id_parses_validates_and_threads_through) {
    const pipeline_options defaults;
    std::string error;

    auto ping = service::parse_request(R"({"op":"ping","req_id":"abc-123"})", defaults, error);
    ASSERT_TRUE(ping.has_value()) << error;
    EXPECT_EQ(ping->req_id, "abc-123");

    for (const char* op : {"health", "ready"}) {
        auto req = service::parse_request(std::string(R"({"op":")") + op + R"("})", defaults,
                                          error);
        ASSERT_TRUE(req.has_value()) << op << ": " << error;
        EXPECT_EQ(req->op, op);
    }

    // op stats may ask for the recent-events ring.
    auto stats = service::parse_request(R"({"op":"stats","log":true})", defaults, error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_TRUE(stats->want_log);
    auto plain = service::parse_request(R"({"op":"stats"})", defaults, error);
    ASSERT_TRUE(plain.has_value()) << error;
    EXPECT_FALSE(plain->want_log);

    // Hostile req_ids are structured errors, never truncated or coerced.
    const std::string too_long(129, 'x');
    EXPECT_FALSE(service::parse_request(R"({"op":"ping","req_id":")" + too_long + R"("})",
                                        defaults, error)
                     .has_value());
    EXPECT_NE(error.find("req_id"), std::string::npos);
    EXPECT_FALSE(
        service::parse_request(R"({"op":"ping","req_id":7})", defaults, error).has_value());
}

TEST(service_engine, response_echoes_req_id_and_stats_embeds_recent_log) {
    obs::set_log_level(obs::log_level::info);
    service::service_options opt;  // no store
    opt.jobs = 1;
    service::engine eng(opt);

    auto req = synth_request(benchmarks::lr_process(), opt.pipeline);
    req.req_id = "corr-42";
    auto resp = json_parse(eng.execute(req, 0.0));
    obs::set_log_level(obs::log_level::warn);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->get_string("req_id"), "corr-42");

    // The per-request service.request event landed in the ring with the same
    // id, and stats can dump the ring as a JSON array.
    auto stats = json_parse(eng.stats_line(true));
    ASSERT_TRUE(stats.has_value());
    const service::json_value* ring = stats->find("recent_log");
    ASSERT_NE(ring, nullptr);
    ASSERT_EQ(ring->k, service::json_value::kind::array);
    bool correlated = false;
    for (const auto& entry : ring->arr)
        if (entry.get_string("event") == "service.request" &&
            entry.get_string("req_id") == "corr-42")
            correlated = true;
    EXPECT_TRUE(correlated);
    // Without the flag the response stays lean.
    auto lean = json_parse(eng.stats_line());
    ASSERT_TRUE(lean.has_value());
    EXPECT_FALSE(lean->has("recent_log"));
}

TEST(service_server, health_ready_and_req_id_echo_over_the_socket) {
    const std::string socket_path = "svc_probe_" + std::to_string(::getpid()) + ".sock";
    service::server_options opt;
    opt.socket_path = socket_path;
    opt.service.jobs = 1;
    opt.service.queue_capacity = 8;
    opt.verbose = false;

    int server_rc = -1;
    std::thread server([&] { server_rc = service::run_server(opt); });
    service::client_options cl;
    cl.socket_path = socket_path;

    {
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"health","req_id":"probe-h"})", resp), 0)
            << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->get_string("req_id"), "probe-h");
        EXPECT_GE(v->get_number("uptime_s"), 0.0);
        EXPECT_FALSE(v->get_string("version").empty());
        EXPECT_GT(v->get_number("pid"), 0.0);
        EXPECT_FALSE(v->get_bool("draining", true));
    }
    {
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"ready"})", resp), 0) << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value());
        EXPECT_TRUE(v->get_bool("ready"));
        EXPECT_EQ(v->get_number("queue_depth"), 0.0);
        EXPECT_EQ(v->get_number("high_water"), 6.0);  // 3/4 of 8
        EXPECT_FALSE(v->has("reason"));
    }
    {
        // Ping carries the same fleet-fingerprint fields as health.
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"ping"})", resp), 0) << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value());
        EXPECT_GE(v->get_number("uptime_s"), 0.0);
        EXPECT_FALSE(v->get_string("version").empty());
        EXPECT_GT(v->get_number("pid"), 0.0);
    }
    {
        // A synth request's req_id comes back on its response.
        service::json_line line;
        line.field("op", "synth");
        line.field("req_id", "probe-s1");
        line.field("spec", write_astg(benchmarks::lr_process()));
        std::string resp;
        ASSERT_EQ(service::run_client(cl, std::move(line).finish(), resp), 0) << resp;
        auto v = json_parse(resp);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(v->get_string("req_id"), "probe-s1");
    }
    {
        std::string resp;
        ASSERT_EQ(service::run_client(cl, R"({"op":"shutdown"})", resp), 0) << resp;
    }
    server.join();
    EXPECT_EQ(server_rc, 0);
}
