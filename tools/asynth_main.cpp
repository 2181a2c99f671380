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
                 "synthesis -> timed analysis -> STG recovery.  On a stage failure the\n"
                 "failed stage and diagnostic go to stderr and the exit code is 1.\n"
                 "See docs/CLI.md for the complete reference and docs/PIPELINE.md for the\n"
                 "stage-by-stage walkthrough.\n"
                 "\n"
                 "input:\n"
                 "  <spec.g>              astg specification file (petrify .g dialect)\n"
                 "  --corpus <name>       use an embedded paper benchmark instead of a file\n"
                 "  --list-corpus         list the embedded benchmarks and exit\n"
                 "\n"
                 "flow options:\n"
                 "  --strategy <s>        none | beam | full   (default: beam, the Fig. 9 search)\n"
                 "  --deadline <ms>       search wall-clock budget in milliseconds, checked\n"
                 "                        between search levels; a cut search returns its\n"
                 "                        best-so-far result (default 0 = none;\n"
                 "                        docs/SEARCH.md)\n"
                 "  --search-jobs <n>     search scoring threads; 0 = all hardware cores\n"
                 "                        (default 1; identical results for every value)\n"
                 "  --w <x>               cost weight W in [0,1]; 0 biases CSC, 1 logic\n"
                 "                        (default 0.5)\n"
                 "  --frontier <n>        beam frontier size (default 4)\n"
                 "  --max-levels <n>      beam depth limit (default 128)\n"
                 "  --phases <2|4>        handshake expansion protocol (default 4)\n"
                 "  --csc-signals <n>     max inserted state signals (default 4)\n"
                 "  --no-perf             skip the timed critical-cycle analysis\n"
                 "  --no-recover          skip region-based STG recovery (ignored with --out)\n"
                 "  --verify-impl         emulate the emitted gate-level implementation\n"
                 "                        against the spec's state graph; a divergence is a\n"
                 "                        stage failure (docs/NETLIST.md)\n"
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
                 "  --jobs <n>            worker threads; 0 = all hardware cores (default 0)\n"
                 "  --deadline <ms>       per-spec search budget in milliseconds; cut specs\n"
                 "                        are flagged deadline_hit in the report\n"
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
                 "  --verify-impl         emulate every synthesised netlist against its\n"
                 "                        spec's state graph (corpus-wide verification sweep)\n"
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
                 "  --w <x> | --strategy <s>     per-request option overrides\n"
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

/// Parses a non-negative integer; prints a diagnostic naming @p flag on
/// failure so a typo never exits silently.  Digits only: strtoull would
/// silently wrap negative or overflowing inputs into huge values.
[[nodiscard]] bool parse_size(const char* flag, const char* s, std::size_t& out) {
    bool digits_only = *s != '\0';
    for (const char* c = s; *c; ++c)
        if (*c < '0' || *c > '9') digits_only = false;
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!digits_only || errno == ERANGE || v > std::numeric_limits<std::size_t>::max()) {
        std::fprintf(stderr, "asynth: %s expects a non-negative integer, got '%s'\n", flag, s);
        return false;
    }
    (void)end;
    out = static_cast<std::size_t>(v);
    return true;
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

    auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "asynth batch: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    auto parse_unit = [&](const char* flag, const char* s, double& out) {
        // !(0 <= out <= 1) rather than out < 0 || out > 1: NaN must fail too.
        if (!parse_double(s, out) || !(out >= 0 && out <= 1)) {
            std::fprintf(stderr, "asynth batch: %s expects a number in [0,1]\n", flag);
            return false;
        }
        return true;
    };

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--jobs") {
            if (!parse_size("--jobs", need_value(i, "--jobs"), opt.jobs)) return 2;
        } else if (arg == "--deadline") {
            if (!parse_size("--deadline", need_value(i, "--deadline"),
                            opt.pipeline.search.deadline_ms))
                return 2;
        } else if (arg == "--seed") {
            std::size_t v = 0;
            if (!parse_size("--seed", need_value(i, "--seed"), v)) return 2;
            seed = v;
        } else if (arg == "--count") {
            if (!parse_size("--count", need_value(i, "--count"), count)) return 2;
        } else if (arg == "--size") {
            std::size_t v = 0;
            if (!parse_size("--size", need_value(i, "--size"), v)) return 2;
            // Sizes beyond ~8 already exceed the state-graph budget; 4096 is
            // a generous bound that keeps the int cast from truncating.
            if (v == 0 || v > 4096) {
                std::fprintf(stderr, "asynth batch: --size must be in [1, 4096]\n");
                return 2;
            }
            gen.size = static_cast<int>(v);
        } else if (arg == "--concurrency") {
            if (!parse_unit("--concurrency", need_value(i, "--concurrency"), gen.concurrency))
                return 2;
        } else if (arg == "--choice") {
            if (!parse_unit("--choice", need_value(i, "--choice"), gen.choice)) return 2;
        } else if (arg == "--arbitration") {
            if (!parse_unit("--arbitration", need_value(i, "--arbitration"), gen.arbitration))
                return 2;
        } else if (arg == "--counter") {
            if (!parse_unit("--counter", need_value(i, "--counter"), gen.counter)) return 2;
        } else if (arg == "--choice-ways") {
            std::size_t v = 0;
            if (!parse_size("--choice-ways", need_value(i, "--choice-ways"), v)) return 2;
            if (v < 2 || v > 64) {
                std::fprintf(stderr, "asynth batch: --choice-ways must be in [2, 64]\n");
                return 2;
            }
            gen.min_choice_ways = static_cast<int>(v);
        } else if (arg == "--no-corpus") {
            use_corpus = false;
        } else if (arg == "--verify-impl") {
            opt.pipeline.verify_impl = true;
        } else if (arg == "--store") {
            store_dir = need_value(i, "--store");
        } else if (arg == "--report") {
            report_file = need_value(i, "--report");
        } else if (arg == "--trace") {
            trace_file = need_value(i, "--trace");
        } else if (arg == "--log-level") {
            if (!parse_log_level(need_value(i, "--log-level"), log_lvl)) return 2;
        } else if (arg == "--log-file") {
            log_file = need_value(i, "--log-file");
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "asynth batch: unknown option '%s' (see --help)\n", arg.c_str());
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
        std::ofstream out(trace_file, std::ios::binary);
        out << session.chrome_json();
        out.close();
        if (!out) {
            std::fprintf(stderr, "asynth batch: cannot write '%s'\n", trace_file.c_str());
            return 1;
        }
        if (!quiet) {
            std::fputs(session.flamegraph().c_str(), stdout);
            std::printf("wrote %s\n", trace_file.c_str());
        }
    }

    if (!quiet) std::fputs(batch::report_text(report).c_str(), stdout);
    for (const auto& s : report.specs)
        if (!s.completed)
            std::fprintf(stderr, "asynth batch: %s failed at stage %s: %s\n", s.name.c_str(),
                         s.failed_stage.c_str(), s.message.c_str());

    if (!report_file.empty()) {
        std::ofstream out(report_file);
        out << batch::report_json(report);
        out.close();
        if (!out) {
            std::fprintf(stderr, "asynth batch: cannot write '%s'\n", report_file.c_str());
            return 1;
        }
        if (!quiet) std::printf("wrote %s\n", report_file.c_str());
    }
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

    auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "asynth fuzz: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--budget") {
            if (!parse_budget(need_value(i, "--budget"), opt)) return 2;
        } else if (arg == "--seed") {
            std::size_t v = 0;
            if (!parse_size("--seed", need_value(i, "--seed"), v)) return 2;
            opt.seed = v;
        } else if (arg == "--oracle") {
            const char* v = need_value(i, "--oracle");
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
            if (!parse_size("--jobs", need_value(i, "--jobs"), opt.jobs)) return 2;
            if (opt.jobs == 0) opt.jobs = std::max(1u, std::thread::hardware_concurrency());
        } else if (arg == "--max-size") {
            std::size_t v = 0;
            if (!parse_size("--max-size", need_value(i, "--max-size"), v)) return 2;
            if (v < 2 || v > 64) {
                std::fprintf(stderr, "asynth fuzz: --max-size must be in [2, 64]\n");
                return 2;
            }
            opt.max_size = static_cast<int>(v);
        } else if (arg == "--dir") {
            opt.dir = need_value(i, "--dir");
        } else if (arg == "--replay") {
            replay_file = need_value(i, "--replay");
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "asynth fuzz: unknown option '%s' (see --help)\n", arg.c_str());
            return 2;
        }
    }
    if (mask != 0) opt.oracles = mask;

    if (!replay_file.empty()) {
        std::ifstream in(replay_file);
        if (!in) {
            std::fprintf(stderr, "asynth fuzz: cannot open '%s'\n", replay_file.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        // The counterexample's '# profile:' header names the option profile
        // it was found under; replaying under another would not reproduce.
        fuzz::fuzz_profile profile = fuzz::fuzz_profile::deep;
        std::istringstream lines(text.str());
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
        if (replay_file.size() > 2 && replay_file.ends_with(".g")) {
            std::ifstream csp(replay_file.substr(0, replay_file.size() - 2) + ".csp");
            if (csp) {
                std::ostringstream ct;
                ct << csp.rdbuf();
                csp_text = ct.str();
            }
        }
        try {
            std::string diag = fuzz::replay_text(text.str(), csp_text, opt.oracles, profile);
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
    auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "asynth serve: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--socket") {
            opt.socket_path = need_value(i, "--socket");
        } else if (arg == "--store") {
            opt.service.store_dir = need_value(i, "--store");
        } else if (arg == "--jobs") {
            if (!parse_size("--jobs", need_value(i, "--jobs"), opt.service.jobs)) return 2;
        } else if (arg == "--queue") {
            if (!parse_size("--queue", need_value(i, "--queue"), opt.service.queue_capacity))
                return 2;
            if (opt.service.queue_capacity == 0) {
                std::fprintf(stderr, "asynth serve: --queue must be at least 1\n");
                return 2;
            }
        } else if (arg == "--report") {
            opt.report_file = need_value(i, "--report");
        } else if (arg == "--trace") {
            opt.trace_dir = need_value(i, "--trace");
        } else if (arg == "--log-level") {
            if (!parse_log_level(need_value(i, "--log-level"), log_lvl)) return 2;
        } else if (arg == "--log-file") {
            log_file = need_value(i, "--log-file");
        } else if (arg == "--slow-ms") {
            double t = 0;
            if (!parse_double(need_value(i, "--slow-ms"), t) || !(t > 0)) {
                std::fprintf(stderr, "asynth serve: --slow-ms expects milliseconds > 0\n");
                return 2;
            }
            opt.service.slow_ms = t;
        } else if (arg == "--high-water") {
            if (!parse_size("--high-water", need_value(i, "--high-water"),
                            opt.service.ready_high_water))
                return 2;
            if (opt.service.ready_high_water == 0) {
                std::fprintf(stderr, "asynth serve: --high-water must be at least 1\n");
                return 2;
            }
        } else if (arg == "-q" || arg == "--quiet") {
            opt.verbose = false;
        } else {
            std::fprintf(stderr, "asynth serve: unknown option '%s' (see --help)\n", arg.c_str());
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
    double w = -1.0;
    std::string strategy;

    auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "asynth client: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--socket") {
            opt.socket_path = need_value(i, "--socket");
        } else if (arg == "--op") {
            op = need_value(i, "--op");
        } else if (arg == "--corpus") {
            corpus_name = need_value(i, "--corpus");
        } else if (arg == "--name") {
            name = need_value(i, "--name");
        } else if (arg == "--id") {
            if (!parse_size("--id", need_value(i, "--id"), id)) return 2;
        } else if (arg == "--req-id") {
            req_id = need_value(i, "--req-id");
            if (req_id.empty() || req_id.size() > 128) {
                std::fprintf(stderr, "asynth client: --req-id must be 1..128 characters\n");
                return 2;
            }
        } else if (arg == "--w") {
            if (!parse_double(need_value(i, "--w"), w) || w < 0 || w > 1) {
                std::fprintf(stderr, "asynth client: --w expects a number in [0,1]\n");
                return 2;
            }
        } else if (arg == "--strategy") {
            strategy = need_value(i, "--strategy");
        } else if (arg == "--out") {
            out_file = need_value(i, "--out");
        } else if (arg == "--no-store") {
            no_store = true;
        } else if (arg == "--timeout") {
            double t = 0;
            if (!parse_double(need_value(i, "--timeout"), t) || !(t > 0)) {
                std::fprintf(stderr, "asynth client: --timeout expects seconds > 0\n");
                return 2;
            }
            opt.response_timeout_seconds = t;
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "asynth client: unknown option '%s' (see --help)\n",
                         arg.c_str());
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
            const benchmarks::corpus_entry* entry = nullptr;
            for (const auto& e : benchmarks::corpus_table())
                if (corpus_name == e.name) entry = &e;
            if (!entry) {
                std::fprintf(stderr, "asynth client: unknown corpus entry '%s'\n",
                             corpus_name.c_str());
                return 2;
            }
            spec_text = write_astg(entry->make());
            if (name.empty()) name = corpus_name;
        } else {
            std::ifstream in(input_file);
            if (!in) {
                std::fprintf(stderr, "asynth client: cannot open '%s'\n", input_file.c_str());
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            spec_text = text.str();
        }
        line.field("spec", spec_text);
        if (!name.empty()) line.field("name", name);
        if (w >= 0.0) line.field("w", w);
        if (!strategy.empty()) line.field("strategy", strategy);
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
        std::ofstream out(out_file);
        out << astg->str;
        if (!out) {
            std::fprintf(stderr, "asynth client: cannot write '%s'\n", out_file.c_str());
            return 1;
        }
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

    auto need_value = [&](int& i, const char* flag) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "asynth: %s requires a value\n", flag);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-h" || arg == "--help") {
            print_usage(stdout);
            return 0;
        } else if (arg == "--list-corpus") {
            for (const auto& e : benchmarks::corpus_table())
                std::printf("%-12s %s\n", e.name, e.blurb);
            return 0;
        } else if (arg == "--corpus") {
            corpus_name = need_value(i, "--corpus");
        } else if (arg == "--strategy") {
            const std::string v = need_value(i, "--strategy");
            if (v == "none")
                opt.strategy = reduction_strategy::none;
            else if (v == "beam")
                opt.strategy = reduction_strategy::beam;
            else if (v == "full")
                opt.strategy = reduction_strategy::full;
            else {
                std::fprintf(stderr, "asynth: unknown strategy '%s'\n", v.c_str());
                return 2;
            }
        } else if (arg == "--deadline") {
            if (!parse_size("--deadline", need_value(i, "--deadline"), opt.search.deadline_ms))
                return 2;
        } else if (arg == "--search-jobs") {
            if (!parse_size("--search-jobs", need_value(i, "--search-jobs"), opt.search.jobs))
                return 2;
            // 0 = all hardware cores, mirroring the batch subcommand's --jobs.
            if (opt.search.jobs == 0)
                opt.search.jobs = std::max(1u, std::thread::hardware_concurrency());
        } else if (arg == "--w") {
            if (!parse_double(need_value(i, "--w"), opt.search.cost.w) || opt.search.cost.w < 0 ||
                opt.search.cost.w > 1) {
                std::fprintf(stderr, "asynth: --w expects a number in [0,1]\n");
                return 2;
            }
        } else if (arg == "--frontier") {
            if (!parse_size("--frontier", need_value(i, "--frontier"), opt.search.size_frontier))
                return 2;
            if (opt.search.size_frontier == 0) {
                std::fprintf(stderr, "asynth: --frontier must be at least 1\n");
                return 2;
            }
        } else if (arg == "--max-levels") {
            if (!parse_size("--max-levels", need_value(i, "--max-levels"), opt.search.max_levels))
                return 2;
        } else if (arg == "--phases") {
            const std::string v = need_value(i, "--phases");
            if (v != "2" && v != "4") {
                std::fprintf(stderr, "asynth: --phases expects 2 or 4\n");
                return 2;
            }
            opt.expand.phases = v == "2" ? 2 : 4;
        } else if (arg == "--csc-signals") {
            if (!parse_size("--csc-signals", need_value(i, "--csc-signals"), opt.csc.max_signals))
                return 2;
        } else if (arg == "--no-perf") {
            opt.run_performance = false;
        } else if (arg == "--no-recover") {
            opt.recover_stg = false;
        } else if (arg == "--verify-impl") {
            opt.verify_impl = true;
        } else if (arg == "--emit") {
            const char* v = need_value(i, "--emit");
            if (!find_backend(v)) {
                std::fprintf(stderr, "asynth: unknown --emit backend '%s' (verilog | cmodel)\n",
                             v);
                return 2;
            }
            emit_backends.push_back(v);
        } else if (arg == "--out") {
            out_file = need_value(i, "--out");
        } else if (arg == "--dot") {
            dot_file = need_value(i, "--dot");
        } else if (arg == "--trace") {
            trace_file = need_value(i, "--trace");
        } else if (arg == "--log-level") {
            if (!parse_log_level(need_value(i, "--log-level"), log_lvl)) return 2;
        } else if (arg == "--log-file") {
            log_file = need_value(i, "--log-file");
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
        const benchmarks::corpus_entry* entry = nullptr;
        for (const auto& e : benchmarks::corpus_table())
            if (corpus_name == e.name) entry = &e;
        if (!entry) {
            std::fprintf(stderr, "asynth: unknown corpus entry '%s' (try --list-corpus)\n",
                         corpus_name.c_str());
            return 2;
        }
        stg spec = entry->make();
        if (print_spec && !quiet) std::printf("%s\n", write_astg(spec).c_str());
        result = run_pipeline(spec, opt);
    } else {
        std::ifstream in(input_file);
        if (!in) {
            std::fprintf(stderr, "asynth: cannot open '%s'\n", input_file.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        if (print_spec && !quiet) std::printf("%s\n", text.str().c_str());
        result = run_pipeline_text(text.str(), opt);
    }

    if (!trace_file.empty()) {
        session.stop();
        std::ofstream tout(trace_file, std::ios::binary);
        tout << session.chrome_json();
        tout.close();
        if (!tout) {
            std::fprintf(stderr, "asynth: cannot write '%s'\n", trace_file.c_str());
            return 1;
        }
        if (!quiet) {
            std::fputs(session.flamegraph().c_str(), stdout);
            std::printf("wrote %s\n", trace_file.c_str());
        }
    }

    if (!quiet) std::fputs(pipeline_summary(result).c_str(), stdout);
    // A structured stage failure always reaches stderr and exits nonzero --
    // scripts must never mistake a failed run for a verdict.
    if (!result.completed)
        std::fprintf(stderr, "asynth: stage %s failed: %s\n",
                     result.failed ? stage_name(*result.failed) : "?", result.message.c_str());

    auto write_file = [&](const std::string& path, const std::string& content) {
        std::ofstream out(path);
        out << content;
        out.close();
        if (!out) {
            std::fprintf(stderr, "asynth: cannot write '%s'\n", path.c_str());
            return false;
        }
        if (!quiet) std::printf("wrote %s\n", path.c_str());
        return true;
    };
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
        if (!write_file(out_file, write_astg(result.recovered.net))) return 1;
    }
    // A valid reduced subgraph always keeps the initial state live; after a
    // reduce-stage failure it is a default view with no base to render.
    if (!dot_file.empty() && result.base_sg && result.reduced.live_states().size() > 0) {
        if (!write_file(dot_file, write_dot(result.reduced))) return 1;
    }
    return result.completed ? 0 : 1;
}
