// asynth: end-to-end synthesis of partially specified asynchronous systems.
//
// Drives the full DAC'99 flow (handshake expansion -> state graph -> Fig. 9
// concurrency reduction -> CSC -> logic synthesis -> timed analysis -> STG
// recovery) over an astg (.g) file or an embedded corpus entry, printing
// per-stage wall-clock timings and the synthesised circuit.
//
// The `batch` subcommand sweeps the embedded corpus plus a generated random
// workload on a work-stealing thread pool and can serialise the corpus-level
// report as BENCH_pipeline.json (see docs/CLI.md for the full reference):
//
// The `serve` subcommand runs the same engine as a long-lived daemon behind
// a Unix-domain socket with a content-addressed result store in front
// (docs/SERVICE.md), and `client` scripts requests against it:
//
//   asynth --corpus fig1
//   asynth --strategy full --w 0.2 spec.g
//   asynth --corpus lr --out reduced.g
// The `fuzz` subcommand differentially fuzzes the pipeline's redundant
// paths (reference vs incremental engine, exact vs dominance minimiser,
// store round trip, write/parse round trip, CSP front end, netlist vs
// state graph) over randomly generated specifications, shrinking every
// mismatch (docs/FUZZING.md):
//
//   asynth batch --count 64 --jobs 0 --report BENCH_pipeline.json
//   asynth batch --store results/ --count 64     # resumable sweep
//   asynth serve --socket svc.sock --store results/
//   asynth client --socket svc.sock --corpus lr
//   asynth fuzz --budget 60 --seed 1 --oracle all --dir cex/
//   asynth fuzz --replay cex/cex_engines_s1_i0.g
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "batch/batch.hpp"
#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "fuzz/fuzz.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "service/options.hpp"
#include "service/server.hpp"

namespace {

using namespace asynth;

void print_usage(std::FILE* to) {
    std::fprintf(to,
                 "usage: asynth [options] <spec.g>\n"
                 "       asynth [options] --corpus <name>\n"
                 "       asynth batch [batch options]\n"
                 "       asynth fuzz [fuzz options]\n"
                 "       asynth serve [serve options]\n"
                 "       asynth client [client options] [<spec.g>]\n"
                 "\n"
                 "Runs the full synthesis pipeline: parse -> handshake expansion -> state\n"
                 "graph -> concurrency-reduction search (Fig. 9) -> CSC resolution -> logic\n"
                 "synthesis -> timed analysis -> STG recovery -> netlist emission and\n"
                 "verification.  On a stage failure the failed stage and diagnostic go to\n"
                 "stderr and the exit code is 1.  See docs/CLI.md for the complete reference\n"
                 "and docs/PIPELINE.md for the stage-by-stage walkthrough.\n"
                 "\n"
                 "input:\n"
                 "  <spec.g>              astg specification file (petrify .g dialect)\n"
                 "  --corpus <name>       use an embedded paper benchmark instead of a file\n"
                 "  --list-corpus         list the embedded benchmarks and exit\n"
                 "\n"
                 "flow options (also for asynth batch; asynth client forwards them):\n");
    std::fputs(service::option_help().c_str(), to);
    std::fprintf(to,
                 "\n"
                 "output:\n"
                 "  --emit <backend>      print the emitted netlist to stdout (verilog |\n"
                 "                        cmodel; repeatable; requires a synthesised circuit)\n"
                 "  --out <file>          write the recovered (reduced) STG as astg text\n"
                 "  --dot <file>          write the reduced state graph as Graphviz dot\n"
                 "  --trace <file>        record a Chrome-trace of the run (load in Perfetto /\n"
                 "                        chrome://tracing) and print a text flamegraph\n"
                 "                        (docs/OBSERVABILITY.md)\n"
                 "  --log-level <l>       debug | info | warn | error | off; structured JSON\n"
                 "                        event lines below this level are dropped\n"
                 "                        (default warn; docs/OBSERVABILITY.md)\n"
                 "  --log-file <file>     append structured log lines there instead of stderr\n"
                 "  --print-spec          echo the parsed specification before running\n"
                 "  -q, --quiet           only print errors (exit code carries the result)\n"
                 "  -h, --help            this message\n"
                 "\n"
                 "batch subcommand (corpus sweep on a work-stealing thread pool):\n"
                 "  <flow options>        every flow option above, applied to each spec;\n"
                 "                        specs the deadline cut are flagged deadline_hit\n"
                 "  --jobs <n>            worker threads; 0 = all hardware cores (default 0)\n"
                 "  --seed <n>            first seed of the generated workload (default 1)\n"
                 "  --count <n>           number of generated random specs (default 64)\n"
                 "  --size <n>            handshake calls per generated spec (default 4)\n"
                 "  --concurrency <x>     generator concurrency degree in [0,1] (default 0.5)\n"
                 "  --choice <x>          generator free-choice probability in [0,1]\n"
                 "                        (default 0.15)\n"
                 "  --arbitration <x>     generator arbitration (shared-resource) probability\n"
                 "                        in [0,1] (default 0)\n"
                 "  --counter <x>         generator counter-leaf probability in [0,1]\n"
                 "                        (default 0)\n"
                 "  --choice-ways <k>     minimum branches per generated select (default 2);\n"
                 "                        an unsatisfiable combination with --size is a\n"
                 "                        structured error, not a silent downgrade\n"
                 "  --no-corpus           sweep only the generated workload\n"
                 "  --store <dir>         consult/fill a content-addressed result store;\n"
                 "                        finished specs are skipped on re-runs\n"
                 "  --report <file>       write the corpus report as JSON\n"
                 "                        (BENCH_pipeline.json format); a partial report is\n"
                 "                        checkpointed there whenever a spec fails\n"
                 "  --trace <file>        record a Chrome-trace of the sweep (per-worker\n"
                 "                        tracks) and print a text flamegraph\n"
                 "  --log-level <l>       structured log filter (default warn); each spec's\n"
                 "                        lines carry a req_id derived from its store key\n"
                 "  --log-file <file>     append structured log lines there instead of stderr\n"
                 "  -q, --quiet           suppress the per-spec table\n"
                 "\n"
                 "fuzz subcommand (differential fuzzing; see docs/FUZZING.md):\n"
                 "  --budget <n>[s]|<n>x  wall-clock seconds (default unit) or, with the x\n"
                 "                        suffix, an exact iteration count (default: 20x)\n"
                 "  --seed <n>            base PRNG seed; every iteration is reproducible\n"
                 "                        from (seed, index) alone (default 1)\n"
                 "  --oracle <o>          engines | minimizers | store-roundtrip |\n"
                 "                        text-roundtrip | csp-frontend | impl-vs-sg | all;\n"
                 "                        repeatable (default all)\n"
                 "  --jobs <n>            parallel iterations; 0 = all hardware cores\n"
                 "                        (default 1; results independent of the value)\n"
                 "  --max-size <n>        channel-budget cap; >= 8 enables the multi-way\n"
                 "                        choice family (default 6)\n"
                 "  --dir <dir>           write minimised counterexamples (.g, paired .csp)\n"
                 "  --replay <file.g>     re-check one counterexample through the enabled\n"
                 "                        oracles (honours its '# profile:' header) and exit\n"
                 "  -q, --quiet           only print findings and the final verdict\n"
                 "  exit codes: 0 all oracles agreed, 1 mismatch found, 2 usage error\n"
                 "\n"
                 "serve subcommand (long-running daemon; see docs/SERVICE.md):\n"
                 "  --socket <path>       Unix-domain socket to bind (default asynth.sock)\n"
                 "  --store <dir>         content-addressed result store (default: off)\n"
                 "  --jobs <n>            synthesis workers; 0 = all hardware cores\n"
                 "                        (default 0)\n"
                 "  --queue <n>           bounded request queue capacity (default 64);\n"
                 "                        overflow answers {\"error\":\"queue full\"}\n"
                 "  --report <file>       write a batch-format report on drain\n"
                 "  --trace <dir>         write one Chrome-trace file per drained request\n"
                 "                        batch into <dir> (trace_batch_<n>.json)\n"
                 "  --log-level <l>       structured log filter (default info for daemons)\n"
                 "  --log-file <file>     append structured log lines there instead of stderr\n"
                 "  --slow-ms <ms>        log a warn-level per-stage breakdown for requests\n"
                 "                        slower than this (default: off)\n"
                 "  --high-water <n>      op:\"ready\" reports ready:false at this queue depth\n"
                 "                        (default: 3/4 of --queue)\n"
                 "  -q, --quiet           suppress lifecycle output\n"
                 "  SIGTERM/SIGINT (or an op:\"shutdown\" request) drain gracefully: queued\n"
                 "  work finishes, responses flush, exit code 0; health/ready probes keep\n"
                 "  answering (ready:false) until the drain completes.\n"
                 "\n"
                 "client subcommand (one request per invocation, line-JSON protocol):\n"
                 "  --socket <path>       daemon socket (default asynth.sock)\n"
                 "  --op <op>             synth | stats | metrics | ping | health | ready |\n"
                 "                        shutdown (default synth); op metrics prints the\n"
                 "                        daemon's Prometheus text exposition; op ready's\n"
                 "                        exit code is the readiness verdict (0 = ready)\n"
                 "  <spec.g> | --corpus <name>   specification for op synth\n"
                 "  --name <label>        spec label in the daemon's report\n"
                 "  --id <n>              correlation id echoed in the response\n"
                 "  --req-id <s>          request id threaded through the daemon's log lines,\n"
                 "                        trace spans and the response (<= 128 chars;\n"
                 "                        generated for op synth when omitted)\n"
                 "  <flow options>        every flow option above but --search-jobs, sent as\n"
                 "                        a typed per-request override\n"
                 "  --out <file>          write the recovered (reduced) STG returned by the\n"
                 "                        daemon as astg text (op synth)\n"
                 "  --no-store            bypass the daemon's result store\n"
                 "  --timeout <s>         response timeout seconds (default 600)\n"
                 "  -q, --quiet           print nothing; the exit code is the verdict\n"
                 "  exit codes: 0 ok, 1 request failed, 2 transport/usage error\n");
}

[[nodiscard]] bool parse_double(const char* s, double& out) {
    char* end = nullptr;
    out = std::strtod(s, &end);
    return end && *end == '\0';
}

/// Parses an integer in [@p min, @p max]; prints a diagnostic naming @p flag
/// on failure so a typo never exits silently.  Digits only: strtoull would
/// silently wrap negative or overflowing inputs into huge values.
[[nodiscard]] bool parse_size(const char* flag, const char* s, std::size_t& out,
                              std::size_t min = 0,
                              std::size_t max = std::numeric_limits<std::size_t>::max()) {
    bool digits_only = *s != '\0';
    for (const char* c = s; *c; ++c)
        if (*c < '0' || *c > '9') digits_only = false;
    errno = 0;
    const unsigned long long v = std::strtoull(s, nullptr, 10);
    if (!digits_only || errno == ERANGE || v < min || v > max) {
        if (max == std::numeric_limits<std::size_t>::max())
            std::fprintf(stderr, "asynth: %s expects an integer >= %zu, got '%s'\n", flag, min, s);
        else
            std::fprintf(stderr, "asynth: %s expects an integer in [%zu, %zu], got '%s'\n", flag,
                         min, max, s);
        return false;
    }
    out = static_cast<std::size_t>(v);
    return true;
}

/// The whole file at @p path; nullopt when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_text(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    return std::move(text).str();
}

/// Writes @p content to @p path and says so unless @p quiet; an unwritable
/// path prints a diagnostic and returns false.
[[nodiscard]] bool write_text(const char* cmd, const std::string& path, const std::string& content,
                              bool quiet) {
    std::ofstream out(path, std::ios::binary);
    out << content;
    out.close();
    if (!out) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", cmd, path.c_str());
        return false;
    }
    if (!quiet) std::printf("wrote %s\n", path.c_str());
    return true;
}

/// The embedded corpus entry called @p name; nullptr when none.
[[nodiscard]] const benchmarks::corpus_entry* find_corpus(const std::string& name) {
    for (const auto& e : benchmarks::corpus_table())
        if (name == e.name) return &e;
    return nullptr;
}

/// Parses a --log-level value; prints a diagnostic and returns false on typos.
[[nodiscard]] bool parse_log_level(const char* s, obs::log_level& out) {
    if (auto lvl = obs::level_from_name(s)) {
        out = *lvl;
        return true;
    }
    std::fprintf(stderr, "asynth: unknown log level '%s' (debug | info | warn | error | off)\n",
                 s);
    return false;
}

/// Applies --log-level / --log-file; an unopenable log file is a usage error
/// (the user asked for a capture that cannot happen).
[[nodiscard]] bool configure_logging(obs::log_level lvl, const std::string& file) {
    obs::set_log_level(lvl);
    if (file.empty()) return true;
    std::string err;
    if (!obs::open_log_file(file, err)) {
        std::fprintf(stderr, "asynth: %s\n", err.c_str());
        return false;
    }
    return true;
}

/// A locally-unique request correlation id for `asynth client` when the user
/// did not pass --req-id: pid + monotonic nanoseconds.
[[nodiscard]] std::string generate_req_id() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count();
    char buf[64];
    std::snprintf(buf, sizeof buf, "c%x-%llx", static_cast<unsigned>(::getpid()),
                  static_cast<unsigned long long>(ns));
    return buf;
}

/// One subcommand's argv walk.
struct arg_walk {
    const char* cmd;  ///< diagnostic prefix ("asynth batch")
    int argc;
    char** argv;
    int i;

    /// The current flag's argument, advancing past it; a missing argument is
    /// a usage error (exit 2).
    const char* value() {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s requires a value\n", cmd, argv[i]);
            std::exit(2);
        }
        return argv[++i];
    }

    /// Reads the flow option @p o at argv[i] (and its argument) into @p opt
    /// and returns its typed value; a bad value prints the option's
    /// diagnostic and returns nullopt.
    std::optional<service::json_value> flow_option(const service::pipeline_option& o,
                                                   pipeline_options& opt) {
        auto v = service::option_arg_value(
            o, o.type == service::option_type::off_switch ? "" : value());
        if (service::apply_option(o, v, opt)) return v;
        std::fprintf(stderr, "%s: %s must be %s\n", cmd, o.flag,
                     service::option_constraint(o).c_str());
        return std::nullopt;
    }

    /// Reads a [0,1] knob outside the option table at argv[i] (and its
    /// argument) with the table's unit check; a bad value prints the same
    /// diagnostic a unit row would.
    bool unit(double& out) {
        const char* flag = argv[i];
        if (service::parse_unit(value(), out)) return true;
        std::fprintf(stderr, "%s: %s must be %s\n", cmd, flag, service::unit_constraint);
        return false;
    }
};

/// `asynth batch`: embedded corpus + generated workload through run_batch().
/// Exit code 0 only when every spec completed (a CSC "no circuit" verdict
/// still counts as completed -- the verdict is the result).
int run_batch_cli(int argc, char** argv) {
    batch::batch_options opt;
    benchmarks::generator_options gen;
    uint64_t seed = 1;
    std::size_t count = 64;
    bool use_corpus = true, quiet = false;
    std::string report_file, store_dir, trace_file, log_file;
    obs::log_level log_lvl = obs::log_level::warn;

    for (arg_walk a{"asynth batch", argc, argv, 2}; a.i < argc; ++a.i) {
        const std::string arg = argv[a.i];
        const char* flag = arg.c_str();
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (const auto* o = service::find_option_flag(arg)) {
            if (!a.flow_option(*o, opt.pipeline)) return 2;
        } else if (arg == "--jobs") {
            if (!parse_size(flag, a.value(), opt.jobs)) return 2;
        } else if (arg == "--seed") {
            std::size_t v = 0;
            if (!parse_size(flag, a.value(), v)) return 2;
            seed = v;
        } else if (arg == "--count") {
            if (!parse_size(flag, a.value(), count)) return 2;
        } else if (arg == "--size") {
            std::size_t v = 0;
            // Sizes beyond ~8 already exceed the state-graph budget; 4096 is
            // a generous bound that keeps the int cast from truncating.
            if (!parse_size(flag, a.value(), v, 1, 4096)) return 2;
            gen.size = static_cast<int>(v);
        } else if (arg == "--concurrency") {
            if (!a.unit(gen.concurrency)) return 2;
        } else if (arg == "--choice") {
            if (!a.unit(gen.choice)) return 2;
        } else if (arg == "--arbitration") {
            if (!a.unit(gen.arbitration)) return 2;
        } else if (arg == "--counter") {
            if (!a.unit(gen.counter)) return 2;
        } else if (arg == "--choice-ways") {
            std::size_t v = 0;
            if (!parse_size(flag, a.value(), v, 2, 64)) return 2;
            gen.min_choice_ways = static_cast<int>(v);
        } else if (arg == "--no-corpus") {
            use_corpus = false;
        } else if (arg == "--store") {
            store_dir = a.value();
        } else if (arg == "--report") {
            report_file = a.value();
        } else if (arg == "--trace") {
            trace_file = a.value();
        } else if (arg == "--log-level") {
            if (!parse_log_level(a.value(), log_lvl)) return 2;
        } else if (arg == "--log-file") {
            log_file = a.value();
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "asynth batch: unknown option '%s' (see --help)\n", flag);
            return 2;
        }
    }
    if (!configure_logging(log_lvl, log_file)) return 2;
    // --report doubles as the failure-checkpoint path: a sweep that dies
    // mid-corpus still leaves the finished rows there (batch/batch.hpp).
    opt.checkpoint_file = report_file;

    if (!store_dir.empty()) {
        opt.store = store::result_store::open(store_dir);
        // A store that cannot be opened degrades to a cold sweep; that must
        // be loud (the user asked for resumability) but not fatal.
        if (!opt.store.enabled())
            std::fprintf(stderr, "asynth batch: %s (continuing without a store)\n",
                         opt.store.message().c_str());
    }

    std::vector<benchmarks::named_spec> specs;
    if (use_corpus) specs = benchmarks::corpus_specs();
    try {
        auto generated = benchmarks::generate_workload(seed, count, gen);
        specs.insert(specs.end(), std::make_move_iterator(generated.begin()),
                     std::make_move_iterator(generated.end()));
    } catch (const error& e) {
        // An unsatisfiable knob combination (generate.hpp's validation) is a
        // usage error, reported before any work starts -- never a silently
        // degraded workload.
        std::fprintf(stderr, "asynth batch: %s\n", e.what());
        return 2;
    }
    if (specs.empty()) {
        std::fprintf(stderr, "asynth batch: nothing to run (--no-corpus with --count 0)\n");
        return 2;
    }

    obs::trace_session session;
    if (!trace_file.empty()) {
        // The calling thread is pool worker 0 (batch/pool.hpp), so it gets a
        // span track of its own; name it for the trace viewer.
        obs::name_thread("main");
        session.start();
    }
    auto report = batch::run_batch(specs, opt);
    if (!trace_file.empty()) {
        session.stop();
        if (!quiet) std::fputs(session.flamegraph().c_str(), stdout);
        if (!write_text("asynth batch", trace_file, session.chrome_json(), quiet)) return 1;
    }

    if (!quiet) std::fputs(batch::report_text(report).c_str(), stdout);
    for (const auto& s : report.specs)
        if (!s.completed)
            std::fprintf(stderr, "asynth batch: %s failed at stage %s: %s\n", s.name.c_str(),
                         s.failed_stage.c_str(), s.message.c_str());

    if (!report_file.empty() &&
        !write_text("asynth batch", report_file, batch::report_json(report), quiet))
        return 1;
    return report.failed == 0 ? 0 : 1;
}

/// Parses a fuzz --budget value: "<n>x" = iterations, "<n>" or "<n>s" =
/// wall-clock seconds.  Prints a diagnostic and returns false on typos.
[[nodiscard]] bool parse_budget(const char* s, fuzz::fuzz_options& opt) {
    std::string v = s;
    bool iterations = false, seconds_suffix = false;
    if (!v.empty() && (v.back() == 'x' || v.back() == 's')) {
        iterations = v.back() == 'x';
        seconds_suffix = v.back() == 's';
        v.pop_back();
    }
    if (iterations) {
        std::size_t n = 0;
        if (!parse_size("--budget", v.c_str(), n) || n == 0) return false;
        opt.iterations = n;
        opt.seconds = 0.0;
        return true;
    }
    double secs = 0.0;
    if (!parse_double(v.c_str(), secs) || !(secs > 0)) {
        if (!seconds_suffix)
            std::fprintf(stderr, "asynth fuzz: --budget expects <seconds>[s] or <iterations>x\n");
        return false;
    }
    opt.seconds = secs;
    opt.iterations = 0;
    return true;
}

/// `asynth fuzz`: the differential fuzzing harness (fuzz/fuzz.hpp), plus
/// counterexample replay.
int run_fuzz_cli(int argc, char** argv) {
    fuzz::fuzz_options opt;
    uint32_t mask = 0;
    bool quiet = false;
    std::string replay_file;

    for (arg_walk a{"asynth fuzz", argc, argv, 2}; a.i < argc; ++a.i) {
        const std::string arg = argv[a.i];
        const char* flag = arg.c_str();
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--budget") {
            if (!parse_budget(a.value(), opt)) return 2;
        } else if (arg == "--seed") {
            std::size_t v = 0;
            if (!parse_size(flag, a.value(), v)) return 2;
            opt.seed = v;
        } else if (arg == "--oracle") {
            const char* v = a.value();
            if (std::strcmp(v, "all") == 0) {
                mask = fuzz::all_oracles;
            } else if (auto o = fuzz::oracle_from_name(v)) {
                mask |= fuzz::oracle_bit(*o);
            } else {
                std::fprintf(stderr,
                             "asynth fuzz: unknown oracle '%s' (engines | minimizers |"
                             " store-roundtrip | text-roundtrip | csp-frontend | impl-vs-sg |"
                             " all)\n",
                             v);
                return 2;
            }
        } else if (arg == "--jobs") {
            if (!parse_size(flag, a.value(), opt.jobs)) return 2;
            if (opt.jobs == 0) opt.jobs = std::max(1u, std::thread::hardware_concurrency());
        } else if (arg == "--max-size") {
            std::size_t v = 0;
            if (!parse_size(flag, a.value(), v, 2, 64)) return 2;
            opt.max_size = static_cast<int>(v);
        } else if (arg == "--dir") {
            opt.dir = a.value();
        } else if (arg == "--replay") {
            replay_file = a.value();
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "asynth fuzz: unknown option '%s' (see --help)\n", flag);
            return 2;
        }
    }
    if (mask != 0) opt.oracles = mask;

    if (!replay_file.empty()) {
        const auto text = read_text(replay_file);
        if (!text) {
            std::fprintf(stderr, "asynth fuzz: cannot open '%s'\n", replay_file.c_str());
            return 2;
        }
        // The counterexample's '# profile:' header names the option profile
        // it was found under; replaying under another would not reproduce.
        fuzz::fuzz_profile profile = fuzz::fuzz_profile::deep;
        std::istringstream lines(*text);
        for (std::string line; std::getline(lines, line);) {
            const std::string key = "# profile: ";
            if (line.rfind(key, 0) == 0) {
                if (auto p = fuzz::profile_from_name(line.substr(key.size())))
                    profile = *p;
                break;
            }
            if (!line.empty() && line[0] != '#') break;
        }
        std::string csp_text;
        if (replay_file.size() > 2 && replay_file.ends_with(".g"))
            csp_text = read_text(replay_file.substr(0, replay_file.size() - 2) + ".csp")
                           .value_or("");
        try {
            std::string diag = fuzz::replay_text(*text, csp_text, opt.oracles, profile);
            if (diag.empty()) {
                if (!quiet) std::printf("replay OK: all enabled oracles agree\n");
                return 0;
            }
            std::fputs(diag.c_str(), stdout);
            return 1;
        } catch (const error& e) {
            std::fprintf(stderr, "asynth fuzz: %s\n", e.what());
            return 2;
        }
    }

    try {
        auto report = fuzz::run_fuzz(opt);
        std::string summary = report.summary();
        if (quiet) {
            // Keep only FINDING lines and the final verdict.
            std::istringstream lines(summary);
            summary.clear();
            for (std::string line; std::getline(lines, line);)
                if (line.rfind("  FINDING", 0) == 0 || line.rfind("FUZZ", 0) == 0)
                    summary += line + "\n";
        }
        std::fputs(summary.c_str(), stdout);
        return report.ok() ? 0 : 1;
    } catch (const error& e) {
        std::fprintf(stderr, "asynth fuzz: %s\n", e.what());
        return 2;
    }
}

/// `asynth serve`: the synthesis daemon (service/server.hpp).
int run_serve_cli(int argc, char** argv) {
    service::server_options opt;
    // Daemons default to info so the lifecycle and per-request events land in
    // the journal; one-shot commands stay at warn.
    obs::log_level log_lvl = obs::log_level::info;
    std::string log_file;
    for (arg_walk a{"asynth serve", argc, argv, 2}; a.i < argc; ++a.i) {
        const std::string arg = argv[a.i];
        const char* flag = arg.c_str();
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--socket") {
            opt.socket_path = a.value();
        } else if (arg == "--store") {
            opt.service.store_dir = a.value();
        } else if (arg == "--jobs") {
            if (!parse_size(flag, a.value(), opt.service.jobs)) return 2;
        } else if (arg == "--queue") {
            if (!parse_size(flag, a.value(), opt.service.queue_capacity, 1)) return 2;
        } else if (arg == "--report") {
            opt.report_file = a.value();
        } else if (arg == "--trace") {
            opt.trace_dir = a.value();
        } else if (arg == "--log-level") {
            if (!parse_log_level(a.value(), log_lvl)) return 2;
        } else if (arg == "--log-file") {
            log_file = a.value();
        } else if (arg == "--slow-ms") {
            double t = 0;
            if (!parse_double(a.value(), t) || !(t > 0)) {
                std::fprintf(stderr, "asynth serve: --slow-ms expects milliseconds > 0\n");
                return 2;
            }
            opt.service.slow_ms = t;
        } else if (arg == "--high-water") {
            if (!parse_size(flag, a.value(), opt.service.ready_high_water, 1)) return 2;
        } else if (arg == "-q" || arg == "--quiet") {
            opt.verbose = false;
        } else {
            std::fprintf(stderr, "asynth serve: unknown option '%s' (see --help)\n", flag);
            return 2;
        }
    }
    if (opt.service.ready_high_water > opt.service.queue_capacity) {
        std::fprintf(stderr, "asynth serve: --high-water cannot exceed --queue\n");
        return 2;
    }
    if (!configure_logging(log_lvl, log_file)) return 2;
    return service::run_server(opt);
}

/// `asynth client`: builds one protocol line, sends it, prints the response.
int run_client_cli(int argc, char** argv) {
    service::client_options opt;
    std::string op = "synth", corpus_name, input_file, name, out_file, req_id;
    std::size_t id = 0;
    bool quiet = false, no_store = false;
    // Per-request overrides by table row; a repeated flag keeps its last value.
    const auto table = service::pipeline_option_table();
    std::vector<std::optional<service::json_value>> overrides(table.size());

    for (arg_walk a{"asynth client", argc, argv, 2}; a.i < argc; ++a.i) {
        const std::string arg = argv[a.i];
        const char* flag = arg.c_str();
        const auto* o = service::find_option_flag(arg);
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (o && o->per_request()) {
            // Checked here against scratch options, so a bad value is a usage
            // error before any connection; the daemon applies it to its own
            // defaults.
            pipeline_options checked;
            auto v = a.flow_option(*o, checked);
            if (!v) return 2;
            overrides[static_cast<std::size_t>(o - table.data())] = std::move(v);
        } else if (arg == "--socket") {
            opt.socket_path = a.value();
        } else if (arg == "--op") {
            op = a.value();
        } else if (arg == "--corpus") {
            corpus_name = a.value();
        } else if (arg == "--name") {
            name = a.value();
        } else if (arg == "--id") {
            if (!parse_size(flag, a.value(), id)) return 2;
        } else if (arg == "--req-id") {
            req_id = a.value();
            if (req_id.empty() || req_id.size() > 128) {
                std::fprintf(stderr, "asynth client: --req-id must be 1..128 characters\n");
                return 2;
            }
        } else if (arg == "--out") {
            out_file = a.value();
        } else if (arg == "--no-store") {
            no_store = true;
        } else if (arg == "--timeout") {
            double t = 0;
            if (!parse_double(a.value(), t) || !(t > 0)) {
                std::fprintf(stderr, "asynth client: --timeout expects seconds > 0\n");
                return 2;
            }
            opt.response_timeout_seconds = t;
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asynth client: unknown option '%s' (see --help)\n", flag);
            return 2;
        } else if (input_file.empty()) {
            input_file = arg;
        } else {
            std::fprintf(stderr, "asynth client: more than one input file\n");
            return 2;
        }
    }

    // Every synth request carries a correlation id (user-chosen or generated)
    // so its log lines, spans and response can be joined; other ops only echo
    // an explicit --req-id.
    if (req_id.empty() && op == "synth") req_id = generate_req_id();

    service::json_line line;
    line.field("op", op);
    if (id != 0) line.field("id", static_cast<std::uint64_t>(id));
    if (!req_id.empty()) line.field("req_id", req_id);
    if (op == "synth") {
        std::string spec_text;
        if (input_file.empty() == corpus_name.empty()) {
            std::fprintf(stderr,
                         "asynth client: op synth needs exactly one of <spec.g> or --corpus\n");
            return 2;
        }
        if (!corpus_name.empty()) {
            const auto* entry = find_corpus(corpus_name);
            if (!entry) {
                std::fprintf(stderr, "asynth client: unknown corpus entry '%s'\n",
                             corpus_name.c_str());
                return 2;
            }
            spec_text = write_astg(entry->make());
            if (name.empty()) name = corpus_name;
        } else if (auto text = read_text(input_file)) {
            spec_text = std::move(*text);
        } else {
            std::fprintf(stderr, "asynth client: cannot open '%s'\n", input_file.c_str());
            return 2;
        }
        line.field("spec", spec_text);
        if (!name.empty()) line.field("name", name);
        for (std::size_t k = 0; k < table.size(); ++k)
            if (overrides[k]) service::append_option_field(line, table[k], *overrides[k]);
        if (no_store) line.field("no_store", true);
        if (!out_file.empty()) line.field("astg", true);
    } else if (!out_file.empty()) {
        std::fprintf(stderr, "asynth client: --out only applies to op synth\n");
        return 2;
    }

    std::string response;
    const int code = service::run_client(opt, std::move(line).finish(), response);
    if (code == 2) {
        std::fprintf(stderr, "asynth client: %s\n", response.c_str());
        return 2;
    }
    if (code == 0 && !out_file.empty()) {
        const auto parsed = service::json_parse(response);
        const service::json_value* astg = parsed ? parsed->find("astg") : nullptr;
        if (!astg || astg->k != service::json_value::kind::string || astg->str.empty()) {
            std::fprintf(stderr,
                         "asynth client: response carries no recovered STG "
                         "(daemon running with recovery disabled?)\n");
            return 1;
        }
        if (!write_text("asynth client", out_file, astg->str, true)) return 1;
    }
    // op metrics carries a Prometheus text exposition escaped inside the
    // JSON line; print it raw so the output pipes straight into a scrape
    // file or promtool.
    if (code == 0 && op == "metrics") {
        const auto parsed = service::json_parse(response);
        const service::json_value* text = parsed ? parsed->find("text") : nullptr;
        if (!text || text->k != service::json_value::kind::string) {
            std::fprintf(stderr, "asynth client: response carries no metrics text\n");
            return 1;
        }
        if (!quiet) std::fputs(text->str.c_str(), stdout);
        return 0;
    }
    if (!quiet) std::printf("%s\n", response.c_str());
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1 && std::strcmp(argv[1], "batch") == 0) return run_batch_cli(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0) return run_fuzz_cli(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "serve") == 0) return run_serve_cli(argc, argv);
    if (argc > 1 && std::strcmp(argv[1], "client") == 0) return run_client_cli(argc, argv);
    pipeline_options opt;
    std::string input_file, corpus_name, out_file, dot_file, trace_file, log_file;
    obs::log_level log_lvl = obs::log_level::warn;
    std::vector<std::string> emit_backends;
    bool quiet = false, print_spec = false;

    for (arg_walk a{"asynth", argc, argv, 1}; a.i < argc; ++a.i) {
        const std::string arg = argv[a.i];
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--list-corpus") {
            for (const auto& e : benchmarks::corpus_table())
                std::printf("%-12s %s\n", e.name, e.blurb);
            return 0;
        } else if (const auto* o = service::find_option_flag(arg)) {
            if (!a.flow_option(*o, opt)) return 2;
        } else if (arg == "--corpus") {
            corpus_name = a.value();
        } else if (arg == "--emit") {
            const char* v = a.value();
            if (!find_backend(v)) {
                std::fprintf(stderr, "asynth: unknown --emit backend '%s' (verilog | cmodel)\n",
                             v);
                return 2;
            }
            emit_backends.push_back(v);
        } else if (arg == "--out") {
            out_file = a.value();
        } else if (arg == "--dot") {
            dot_file = a.value();
        } else if (arg == "--trace") {
            trace_file = a.value();
        } else if (arg == "--log-level") {
            if (!parse_log_level(a.value(), log_lvl)) return 2;
        } else if (arg == "--log-file") {
            log_file = a.value();
        } else if (arg == "--print-spec") {
            print_spec = true;
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asynth: unknown option '%s' (see --help)\n", arg.c_str());
            return 2;
        } else if (input_file.empty()) {
            input_file = arg;
        } else {
            std::fprintf(stderr, "asynth: more than one input file\n");
            return 2;
        }
    }

    if (input_file.empty() == corpus_name.empty()) {
        std::fprintf(stderr, "asynth: exactly one of <spec.g> or --corpus is required\n\n");
        print_usage(stderr);
        return 2;
    }
    // --out needs the recovered STG, so it overrides --no-recover.
    if (!out_file.empty()) opt.recover_stg = true;
    if (!configure_logging(log_lvl, log_file)) return 2;

    obs::trace_session session;
    if (!trace_file.empty()) {
        obs::name_thread("main");
        session.start();
    }

    pipeline_result result;
    if (!corpus_name.empty()) {
        const auto* entry = find_corpus(corpus_name);
        if (!entry) {
            std::fprintf(stderr, "asynth: unknown corpus entry '%s' (try --list-corpus)\n",
                         corpus_name.c_str());
            return 2;
        }
        stg spec = entry->make();
        if (print_spec && !quiet) std::printf("%s\n", write_astg(spec).c_str());
        result = run_pipeline(spec, opt);
    } else if (const auto text = read_text(input_file)) {
        if (print_spec && !quiet) std::printf("%s\n", text->c_str());
        result = run_pipeline_text(*text, opt);
    } else {
        std::fprintf(stderr, "asynth: cannot open '%s'\n", input_file.c_str());
        return 2;
    }

    if (!trace_file.empty()) {
        session.stop();
        if (!quiet) std::fputs(session.flamegraph().c_str(), stdout);
        if (!write_text("asynth", trace_file, session.chrome_json(), quiet)) return 1;
    }

    if (!quiet) std::fputs(pipeline_summary(result).c_str(), stdout);
    // A structured stage failure always reaches stderr and exits nonzero --
    // scripts must never mistake a failed run for a verdict.
    if (!result.completed)
        std::fprintf(stderr, "asynth: stage %s failed: %s\n",
                     result.failed ? stage_name(*result.failed) : "?", result.message.c_str());

    // Requested emissions go to stdout even under -q: the flag exists so the
    // netlist can be piped into other tools.
    if (!emit_backends.empty()) {
        if (result.impl_model.nets.empty()) {
            std::fprintf(stderr, "asynth: no circuit to emit (%s)\n",
                         result.completed ? "spec completed without a circuit"
                                          : result.message.c_str());
            return 1;
        }
        for (const auto& b : emit_backends)
            std::fputs((b == "verilog" ? result.verilog : result.cmodel).c_str(), stdout);
    }
    if (!out_file.empty()) {
        if (!result.recovered.ok) {
            std::fprintf(stderr, "asynth: no recovered STG to write (%s)\n",
                         result.recovered.message.c_str());
            return 1;
        }
        if (!write_text("asynth", out_file, write_astg(result.recovered.net), quiet)) return 1;
    }
    // A valid reduced subgraph always keeps the initial state live; after a
    // reduce-stage failure it is a default view with no base to render.
    if (!dot_file.empty() && result.base_sg && result.reduced.live_states().size() > 0 &&
        !write_text("asynth", dot_file, write_dot(result.reduced), quiet))
        return 1;
    return result.completed ? 0 : 1;
}
