// asynth: end-to-end synthesis of partially specified asynchronous systems.
//
// Drives the full DAC'99 flow (handshake expansion -> state graph -> Fig. 9
// concurrency reduction -> CSC -> logic synthesis -> timed analysis -> STG
// recovery) over an astg (.g) file or an embedded corpus entry, printing
// per-stage wall-clock timings and the synthesised circuit:
//
//   asynth --corpus fig1
//   asynth --strategy full --w 0.2 spec.g
//   asynth --corpus lr --out reduced.g
//
// The `batch` subcommand sweeps the embedded corpus plus a generated random
// workload on a work-stealing thread pool and can serialise the corpus-level
// report as BENCH_pipeline.json (see docs/CLI.md for the full reference).
// The `serve` subcommand runs the same engine as a long-lived daemon behind
// a Unix-domain socket with a content-addressed result store in front
// (docs/SERVICE.md), and `client` scripts requests against it.  The `fuzz`
// subcommand differentially fuzzes the pipeline's redundant paths
// (reference vs incremental engine, exact vs dominance minimiser, store
// round trip, write/parse round trip, CSP front end, netlist vs state graph)
// over randomly generated specifications, shrinking every mismatch
// (docs/FUZZING.md):
//
//   asynth batch --count 64 --jobs 0 --report BENCH_pipeline.json
//   asynth batch --store results/ --count 64     # resumable sweep
//   asynth serve --socket svc.sock --store results/
//   asynth client --socket svc.sock --corpus lr
//   asynth fuzz --budget 60 --seed 1 --oracle all --dir cex/
//   asynth fuzz --replay cex/cex_engines_s1_i0.g
//
// Each command declares its flags once, as the rows of its *_cli::flags()
// table: walk() parses argv against it and print_usage() renders it.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
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

void print_usage(std::FILE* to);

// ---- flag tables ------------------------------------------------------------

/// Takes a flag's value ("" for a switch) and returns "" when it is good,
/// else why not: the text after "<cmd>: <flag> " in the usage error.
using take_fn = std::function<std::string(const char* value)>;

/// One row of a command's flag table.
struct flag {
    /// The flag as --help spells it; each word of it that starts with '-'
    /// matches ("-q, --quiet").  Empty for the positional argument, which
    /// the metavar names, and for notes.
    std::string names;
    std::string metavar;  ///< value placeholder ("<n>"); empty for a switch
    /// --help text, '\n' between lines; empty = not listed.  A note (no
    /// names, no metavar) is printed verbatim.
    std::string help;
    take_fn take;
    bool exits = false;  ///< the command ends (exit 0) once this row ran
};

/// --help text between rows that is no flag: headings and notes.
flag note(std::string text) { return {"", "", std::move(text), {}}; }

/// An integer in [@p min, @p max].  Digits only: strtoull would silently
/// wrap negative or overflowing inputs into huge values.
template <class T>
take_fn integer(T& out, std::size_t min = 0,
                std::size_t max = std::numeric_limits<std::size_t>::max()) {
    return [&out, min, max](const char* s) -> std::string {
        bool digits = *s != '\0';
        for (const char* c = s; *c; ++c) digits = digits && *c >= '0' && *c <= '9';
        errno = 0;
        const unsigned long long v = std::strtoull(s, nullptr, 10);
        if (digits && errno != ERANGE && v >= min && v <= max) {
            out = static_cast<T>(v);
            return "";
        }
        if (max == std::numeric_limits<std::size_t>::max())
            return "expects an integer >= " + std::to_string(min);
        return "expects an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    };
}

/// A number in [0,1], by the option table's unit check.
take_fn unit(double& out) {
    return [&out](const char* s) {
        return service::parse_unit(s, out) ? std::string()
                                           : std::string("must be ") + service::unit_constraint;
    };
}

/// A number > 0 (NaN fails), in @p units.
take_fn positive(double& out, const char* units) {
    return [&out, units](const char* s) {
        char* end = nullptr;
        const double v = std::strtod(s, &end);
        if (end == s || *end != '\0' || !(v > 0)) return std::string("expects ") + units + " > 0";
        out = v;
        return std::string();
    };
}

take_fn text(std::string& out) {
    return [&out](const char* s) {
        out = s;
        return std::string();
    };
}

/// A switch.
take_fn set(bool& out) {
    return [&out](const char*) {
        out = true;
        return std::string();
    };
}

flag quiet_flag(bool& quiet, std::string help) {
    return {"-q, --quiet", "", std::move(help), set(quiet)};
}

/// Prints the whole usage; listed in the main section only.
flag help_flag(std::string help = "") {
    return {"-h, --help", "", std::move(help),
            [](const char*) {
                print_usage(stdout);
                return std::string();
            },
            true};
}

/// The positional <spec.g>: at most one.
flag input_flag(std::string& file, std::string help = "") {
    return {"", "<spec.g>", std::move(help), [&file](const char* s) -> std::string {
                if (!file.empty()) return "more than one input file";
                file = s;
                return "";
            }};
}

/// The --log-level and --log-file rows and their values, applied once the
/// walk is done.
struct logging {
    obs::log_level level = obs::log_level::warn;
    std::string file;

    flag level_flag(std::string help) {
        return {"--log-level", "<l>", std::move(help), [this](const char* s) -> std::string {
                    const auto lvl = obs::level_from_name(s);
                    if (!lvl) return "expects a log level (debug | info | warn | error | off)";
                    level = *lvl;
                    return "";
                }};
    }
    flag file_flag() {
        return {"--log-file", "<file>", "append structured log lines there instead of stderr",
                text(file)};
    }

    /// An unopenable log file is a usage error (the user asked for a
    /// capture that cannot happen).
    [[nodiscard]] bool apply(const char* cmd) const {
        obs::set_log_level(level);
        std::string err;
        if (file.empty() || obs::open_log_file(file, err)) return true;
        std::fprintf(stderr, "%s: --log-file %s\n", cmd, err.c_str());
        return false;
    }
};

/// @p rows plus one unlisted row per flow option (service/options.hpp;
/// option_help() prints their --help block); a good value is applied to
/// @p opt.  With @p sent (asynth client) only the per-request rows, and
/// each good value is also kept in its table slot there.
std::vector<flag> with_flow_flags(pipeline_options& opt,
                                  std::vector<std::optional<service::json_value>>* sent,
                                  std::vector<flag> rows) {
    const auto table = service::pipeline_option_table();
    if (sent) sent->resize(table.size());
    for (std::size_t k = 0; k < table.size(); ++k) {
        const service::pipeline_option& o = table[k];
        if (sent && !o.per_request()) continue;
        rows.push_back({o.flag, o.metavar, "", [&o, &opt, sent, k](const char* s) -> std::string {
                            auto v = service::option_arg_value(o, s);
                            if (!service::apply_option(o, v, opt))
                                return "must be " + service::option_constraint(o);
                            if (sent) (*sent)[k] = std::move(v);
                            return "";
                        }});
    }
    return rows;
}

/// Does @p arg spell one of the flags in @p names?
[[nodiscard]] bool spells(std::string names, const std::string& arg) {
    std::replace(names.begin(), names.end(), ',', ' ');
    return (" " + names + " ").find(" " + arg + " ") != std::string::npos;
}

/// Parses argv[@p first..] against @p rows.  nullopt: go on with the
/// command; otherwise its exit code, 0 after a row that ends it and 2 after
/// a usage error (printed as "<cmd>: <flag> ...").
[[nodiscard]] std::optional<int> walk(const char* cmd, const std::vector<flag>& rows, int argc,
                                      char** argv, int first) {
    const auto usage_error = [cmd](const std::string& why) {
        std::fprintf(stderr, "%s: %s\n", cmd, why.c_str());
        return 2;
    };
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool positional = arg.empty() || arg[0] != '-';
        const auto row = std::find_if(rows.begin(), rows.end(), [&](const flag& r) {
            return r.take && (positional ? r.names.empty() : spells(r.names, arg));
        });
        if (row == rows.end())
            return usage_error((positional ? "unexpected argument '" : "unknown option '") + arg +
                               "' (see --help)");
        const char* value = positional ? argv[i] : "";
        if (!positional && !row->metavar.empty()) {
            if (i + 1 == argc) return usage_error(arg + " requires a value");
            value = argv[++i];
        }
        if (const std::string why = row->take(value); !why.empty())
            return usage_error(positional ? why : arg + " " + why + ", got '" + value + "'");
        if (row->exits) return 0;
    }
    return std::nullopt;
}

/// The --help rows of @p rows.
[[nodiscard]] std::string help_text(const std::vector<flag>& rows) {
    std::string out;
    for (const auto& r : rows) {
        if (r.names.empty() && r.metavar.empty()) {
            out += r.help;
        } else if (!r.help.empty()) {
            const char* gap = r.names.empty() || r.metavar.empty() ? "" : " ";
            out += service::help_row(r.names + gap + r.metavar, r.help);
        }
    }
    return out;
}

// ---- helpers ----------------------------------------------------------------

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

// ---- asynth -----------------------------------------------------------------

/// `asynth`: one spec through run_pipeline().
struct main_cli {
    static constexpr const char* cmd = "asynth";
    pipeline_options opt;
    std::string input_file, corpus_name, out_file, dot_file, trace_file;
    std::vector<std::string> emit_backends;
    logging log;
    bool quiet = false, print_spec = false;

    std::vector<flag> flags() {
        return with_flow_flags(opt, nullptr, {
            note("\ninput:\n"),
            input_flag(input_file, "astg specification file (petrify .g dialect)"),
            {"--corpus", "<name>", "use an embedded paper benchmark instead of a file",
             text(corpus_name)},
            {"--list-corpus", "", "list the embedded benchmarks and exit",
             [](const char*) {
                 for (const auto& e : benchmarks::corpus_table())
                     std::printf("%-12s %s\n", e.name, e.blurb);
                 return std::string();
             },
             true},
            note("\nflow options (also for asynth batch; asynth client forwards them):\n" +
                 service::option_help() + "\noutput:\n"),
            {"--emit", "<backend>", "print the emitted netlist to stdout (verilog |\n"
                                    "cmodel; repeatable; requires a synthesised circuit)",
             [this](const char* s) -> std::string {
                 if (!find_backend(s)) return "expects verilog | cmodel";
                 emit_backends.push_back(s);
                 return "";
             }},
            {"--out", "<file>", "write the recovered (reduced) STG as astg text", text(out_file)},
            {"--dot", "<file>", "write the reduced state graph as Graphviz dot", text(dot_file)},
            {"--trace", "<file>", "record a Chrome-trace of the run (load in Perfetto /\n"
                                  "chrome://tracing) and print a text flamegraph\n"
                                  "(docs/OBSERVABILITY.md)", text(trace_file)},
            log.level_flag("debug | info | warn | error | off; structured JSON\n"
                           "event lines below this level are dropped\n"
                           "(default warn; docs/OBSERVABILITY.md)"),
            log.file_flag(),
            {"--print-spec", "", "echo the parsed specification before running", set(print_spec)},
            quiet_flag(quiet, "only print errors (exit code carries the result)"),
            help_flag("this message"),
        });
    }

    int run() {
        if (input_file.empty() == corpus_name.empty()) {
            std::fprintf(stderr, "asynth: exactly one of <spec.g> or --corpus is required\n\n");
            print_usage(stderr);
            return 2;
        }
        // --out needs the recovered STG, so it overrides --no-recover.
        if (!out_file.empty()) opt.recover_stg = true;
        if (!log.apply(cmd)) return 2;

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
            if (!write_text(cmd, trace_file, session.chrome_json(), quiet)) return 1;
        }

        if (!quiet) std::fputs(pipeline_summary(result).c_str(), stdout);
        // A structured stage failure always reaches stderr and exits nonzero --
        // scripts must never mistake a failed run for a verdict.
        if (!result.completed)
            std::fprintf(stderr, "asynth: stage %s failed: %s\n",
                         result.failed ? stage_name(*result.failed) : "?",
                         result.message.c_str());

        // Requested emissions go to stdout even under -q: the flag exists so
        // the netlist can be piped into other tools.
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
            if (!write_text(cmd, out_file, write_astg(result.recovered.net), quiet)) return 1;
        }
        // A valid reduced subgraph always keeps the initial state live; after a
        // reduce-stage failure it is a default view with no base to render.
        if (!dot_file.empty() && result.base_sg && result.reduced.live_states().size() > 0 &&
            !write_text(cmd, dot_file, write_dot(result.reduced), quiet))
            return 1;
        return result.completed ? 0 : 1;
    }
};

// ---- asynth batch -----------------------------------------------------------

/// `asynth batch`: embedded corpus + generated workload through run_batch().
/// Exit code 0 only when every spec completed (a CSC "no circuit" verdict
/// still counts as completed -- the verdict is the result).
struct batch_cli {
    static constexpr const char* cmd = "asynth batch";
    batch::batch_options opt;
    benchmarks::generator_options gen;
    std::uint64_t seed = 1;
    std::size_t count = 64;
    bool no_corpus = false, quiet = false;
    std::string report_file, store_dir, trace_file;
    logging log;

    std::vector<flag> flags() {
        return with_flow_flags(opt.pipeline, nullptr, {
            note("\nbatch subcommand (corpus sweep on a work-stealing thread pool):\n" +
                 service::help_row("<flow options>",
                                   "every flow option above, applied to each spec;\n"
                                   "specs the deadline cut are flagged deadline_hit")),
            {"--jobs", "<n>", "worker threads; 0 = all hardware cores (default 0)",
             integer(opt.jobs)},
            {"--seed", "<n>", "first seed of the generated workload (default 1)", integer(seed)},
            {"--count", "<n>", "number of generated random specs (default 64)", integer(count)},
            // Sizes beyond ~8 already exceed the state-graph budget; 4096 is
            // a generous bound that keeps the int cast from truncating.
            {"--size", "<n>", "handshake calls per generated spec (default 4)",
             integer(gen.size, 1, 4096)},
            {"--concurrency", "<x>", "generator concurrency degree in [0,1] (default 0.5)",
             unit(gen.concurrency)},
            {"--choice", "<x>", "generator free-choice probability in [0,1]\n"
                                "(default 0.15)", unit(gen.choice)},
            {"--arbitration", "<x>", "generator arbitration (shared-resource) probability\n"
                                     "in [0,1] (default 0)", unit(gen.arbitration)},
            {"--counter", "<x>", "generator counter-leaf probability in [0,1]\n"
                                 "(default 0)", unit(gen.counter)},
            {"--choice-ways", "<k>", "minimum branches per generated select (default 2);\n"
                                     "an unsatisfiable combination with --size is a\n"
                                     "structured error, not a silent downgrade",
             integer(gen.min_choice_ways, 2, 64)},
            {"--no-corpus", "", "sweep only the generated workload", set(no_corpus)},
            {"--store", "<dir>", "consult/fill a content-addressed result store;\n"
                                 "finished specs are skipped on re-runs", text(store_dir)},
            {"--report", "<file>", "write the corpus report as JSON\n"
                                   "(BENCH_pipeline.json format); a partial report is\n"
                                   "checkpointed there whenever a spec fails", text(report_file)},
            {"--trace", "<file>", "record a Chrome-trace of the sweep (per-worker\n"
                                  "tracks) and print a text flamegraph", text(trace_file)},
            log.level_flag("structured log filter (default warn); each spec's\n"
                           "lines carry a req_id derived from its store key"),
            log.file_flag(),
            quiet_flag(quiet, "suppress the per-spec table"),
            help_flag(),
        });
    }

    int run() {
        if (!log.apply(cmd)) return 2;
        // --report doubles as the failure-checkpoint path: a sweep that dies
        // mid-corpus still leaves the finished rows there (batch/batch.hpp).
        opt.checkpoint_file = report_file;

        if (!store_dir.empty()) {
            opt.store = store::result_store::open(store_dir);
            // A store that cannot be opened degrades to a cold sweep; that
            // must be loud (the user asked for resumability) but not fatal.
            if (!opt.store.enabled())
                std::fprintf(stderr, "asynth batch: %s (continuing without a store)\n",
                             opt.store.message().c_str());
        }

        std::vector<benchmarks::named_spec> specs;
        if (!no_corpus) specs = benchmarks::corpus_specs();
        try {
            auto generated = benchmarks::generate_workload(seed, count, gen);
            specs.insert(specs.end(), std::make_move_iterator(generated.begin()),
                         std::make_move_iterator(generated.end()));
        } catch (const error& e) {
            // An unsatisfiable knob combination (generate.hpp's validation)
            // is a usage error, reported before any work starts -- never a
            // silently degraded workload.
            std::fprintf(stderr, "asynth batch: %s\n", e.what());
            return 2;
        }
        if (specs.empty()) {
            std::fprintf(stderr, "asynth batch: nothing to run (--no-corpus with --count 0)\n");
            return 2;
        }

        obs::trace_session session;
        if (!trace_file.empty()) {
            // The calling thread is pool worker 0 (batch/pool.hpp), so it
            // gets a span track of its own; name it for the trace viewer.
            obs::name_thread("main");
            session.start();
        }
        auto report = batch::run_batch(specs, opt);
        if (!trace_file.empty()) {
            session.stop();
            if (!quiet) std::fputs(session.flamegraph().c_str(), stdout);
            if (!write_text(cmd, trace_file, session.chrome_json(), quiet)) return 1;
        }

        if (!quiet) std::fputs(batch::report_text(report).c_str(), stdout);
        for (const auto& s : report.specs)
            if (!s.completed)
                std::fprintf(stderr, "asynth batch: %s failed at stage %s: %s\n", s.name.c_str(),
                             s.failed_stage.c_str(), s.message.c_str());

        if (!report_file.empty() &&
            !write_text(cmd, report_file, batch::report_json(report), quiet))
            return 1;
        return report.failed == 0 ? 0 : 1;
    }
};

// ---- asynth fuzz ------------------------------------------------------------

/// fuzz --budget: "<n>x" = iterations, "<n>" or "<n>s" = wall-clock seconds.
take_fn budget(fuzz::fuzz_options& opt) {
    return [&opt](const char* s) -> std::string {
        std::string v = s;
        const char suffix = v.empty() ? '\0' : v.back();
        if (suffix == 'x' || suffix == 's') v.pop_back();
        opt.iterations = 0;
        opt.seconds = 0.0;
        const take_fn take = suffix == 'x' ? integer(opt.iterations, 1) : positive(opt.seconds, "");
        return take(v.c_str()).empty() ? "" : "expects <seconds>[s] or <iterations>x, each > 0";
    };
}

/// `asynth fuzz`: the differential fuzzing harness (fuzz/fuzz.hpp), plus
/// counterexample replay.
struct fuzz_cli {
    static constexpr const char* cmd = "asynth fuzz";
    fuzz::fuzz_options opt;
    std::uint32_t oracles = 0;  ///< --oracle picks; 0 = the default set
    bool quiet = false;
    std::string replay_file;

    std::vector<flag> flags() {
        return {
            note("\nfuzz subcommand (differential fuzzing; see docs/FUZZING.md):\n"),
            {"--budget", "<n>[s]|<n>x", "wall-clock seconds (default unit) or, with the x\n"
                                        "suffix, an exact iteration count (default: 20x)",
             budget(opt)},
            {"--seed", "<n>", "base PRNG seed; every iteration is reproducible\n"
                              "from (seed, index) alone (default 1)", integer(opt.seed)},
            {"--oracle", "<o>", "engines | minimizers | store-roundtrip |\n"
                                "text-roundtrip | csp-frontend | impl-vs-sg | all;\n"
                                "repeatable (default all)",
             [this](const char* s) -> std::string {
                 if (std::strcmp(s, "all") == 0)
                     oracles = fuzz::all_oracles;
                 else if (const auto o = fuzz::oracle_from_name(s))
                     oracles |= fuzz::oracle_bit(*o);
                 else
                     return "expects engines | minimizers | store-roundtrip | text-roundtrip | "
                            "csp-frontend | impl-vs-sg | all";
                 return "";
             }},
            {"--jobs", "<n>", "parallel iterations; 0 = all hardware cores\n"
                              "(default 1; results independent of the value)", integer(opt.jobs)},
            {"--max-size", "<n>", "channel-budget cap; >= 8 enables the multi-way\n"
                                  "choice family (default 6)", integer(opt.max_size, 2, 64)},
            {"--dir", "<dir>", "write minimised counterexamples (.g, paired .csp)",
             text(opt.dir)},
            {"--replay", "<file.g>", "re-check one counterexample through the enabled\n"
                                     "oracles (honours its '# profile:' header) and exit",
             text(replay_file)},
            quiet_flag(quiet, "only print findings and the final verdict"),
            help_flag(),
            note("  exit codes: 0 all oracles agreed, 1 mismatch found, 2 usage error\n"),
        };
    }

    int run() {
        if (oracles != 0) opt.oracles = oracles;
        try {
            return replay_file.empty() ? sweep() : replay();
        } catch (const error& e) {
            std::fprintf(stderr, "asynth fuzz: %s\n", e.what());
            return 2;
        }
    }

    int sweep() const {
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
    }

    int replay() const {
        const auto text = read_text(replay_file);
        if (!text) {
            std::fprintf(stderr, "asynth fuzz: cannot open '%s'\n", replay_file.c_str());
            return 2;
        }
        std::string csp_text;
        if (replay_file.size() > 2 && replay_file.ends_with(".g"))
            csp_text =
                read_text(replay_file.substr(0, replay_file.size() - 2) + ".csp").value_or("");
        const std::string diag = fuzz::replay_text(*text, csp_text, opt.oracles,
                                                   fuzz::profile_of_counterexample(*text));
        if (diag.empty()) {
            if (!quiet) std::printf("replay OK: all enabled oracles agree\n");
            return 0;
        }
        std::fputs(diag.c_str(), stdout);
        return 1;
    }
};

// ---- asynth serve -----------------------------------------------------------

/// `asynth serve`: the synthesis daemon (service/server.hpp).
struct serve_cli {
    static constexpr const char* cmd = "asynth serve";
    service::server_options opt;
    // Daemons default to info so the lifecycle and per-request events land
    // in the journal; one-shot commands stay at warn.
    logging log{obs::log_level::info, ""};
    bool quiet = false;

    std::vector<flag> flags() {
        service::service_options& svc = opt.service;
        return {
            note("\nserve subcommand (long-running daemon; see docs/SERVICE.md):\n"),
            {"--socket", "<path>", "Unix-domain socket to bind (default asynth.sock)",
             text(opt.socket_path)},
            {"--store", "<dir>", "content-addressed result store (default: off)",
             text(svc.store_dir)},
            {"--jobs", "<n>", "synthesis workers; 0 = all hardware cores\n"
                              "(default 0)", integer(svc.jobs)},
            {"--queue", "<n>", "bounded request queue capacity (default 64);\n"
                               "overflow answers {\"error\":\"queue full\"}",
             integer(svc.queue_capacity, 1)},
            {"--report", "<file>", "write a batch-format report on drain", text(opt.report_file)},
            {"--trace", "<dir>", "write one Chrome-trace file per drained request\n"
                                 "batch into <dir> (trace_batch_<n>.json)", text(opt.trace_dir)},
            log.level_flag("structured log filter (default info for daemons)"),
            log.file_flag(),
            {"--slow-ms", "<ms>", "log a warn-level per-stage breakdown for requests\n"
                                  "slower than this (default: off)",
             positive(svc.slow_ms, "milliseconds")},
            {"--high-water", "<n>", "op:\"ready\" reports ready:false at this queue depth\n"
                                    "(default: 3/4 of --queue)",
             integer(svc.ready_high_water, 1)},
            quiet_flag(quiet, "suppress lifecycle output"),
            help_flag(),
            note("  SIGTERM/SIGINT (or an op:\"shutdown\" request) drain gracefully: queued\n"
                 "  work finishes, responses flush, exit code 0; health/ready probes keep\n"
                 "  answering (ready:false) until the drain completes.\n"),
        };
    }

    int run() {
        if (opt.service.ready_high_water > opt.service.queue_capacity) {
            std::fprintf(stderr, "asynth serve: --high-water cannot exceed --queue\n");
            return 2;
        }
        if (!log.apply(cmd)) return 2;
        opt.verbose = !quiet;
        return service::run_server(opt);
    }
};

// ---- asynth client ----------------------------------------------------------

/// `asynth client`: builds one protocol line, sends it, prints the response.
struct client_cli {
    static constexpr const char* cmd = "asynth client";
    service::client_options opt;
    std::string op = "synth", corpus_name, input_file, name, out_file, req_id;
    std::size_t id = 0;
    bool quiet = false, no_store = false;
    // Per-request overrides by table row; a repeated flag keeps its last
    // value.  Each is checked against scratch options, so a bad value is a
    // usage error before any connection; the daemon applies it to its own
    // defaults.
    pipeline_options checked;
    std::vector<std::optional<service::json_value>> overrides;

    std::vector<flag> flags() {
        return with_flow_flags(checked, &overrides, {
            note("\nclient subcommand (one request per invocation, line-JSON protocol):\n"),
            {"--socket", "<path>", "daemon socket (default asynth.sock)", text(opt.socket_path)},
            {"--op", "<op>", "synth | stats | metrics | ping | health | ready |\n"
                             "shutdown (default synth); op metrics prints the\n"
                             "daemon's Prometheus text exposition; op ready's\n"
                             "exit code is the readiness verdict (0 = ready)", text(op)},
            input_flag(input_file),  // listed by the --corpus row
            {"<spec.g> | --corpus", "<name>", "specification for op synth", text(corpus_name)},
            {"--name", "<label>", "spec label in the daemon's report", text(name)},
            {"--id", "<n>", "correlation id echoed in the response", integer(id)},
            {"--req-id", "<s>", "request id threaded through the daemon's log lines,\n"
                                "trace spans and the response (<= 128 chars;\n"
                                "generated for op synth when omitted)",
             [this](const char* s) -> std::string {
                 if (*s == '\0' || std::strlen(s) > 128) return "must be 1..128 characters";
                 req_id = s;
                 return "";
             }},
            note(service::help_row("<flow options>",
                                   "every flow option above but --search-jobs, sent as\n"
                                   "a typed per-request override")),
            {"--out", "<file>", "write the recovered (reduced) STG returned by the\n"
                                "daemon as astg text (op synth)", text(out_file)},
            {"--no-store", "", "bypass the daemon's result store", set(no_store)},
            {"--timeout", "<s>", "response timeout seconds (default 600)",
             positive(opt.response_timeout_seconds, "seconds")},
            quiet_flag(quiet, "print nothing; the exit code is the verdict"),
            help_flag(),
            note("  exit codes: 0 ok, 1 request failed, 2 transport/usage error\n"),
        });
    }

    int run() {
        // Every synth request carries a correlation id (user-chosen or
        // generated) so its log lines, spans and response can be joined;
        // other ops only echo an explicit --req-id.
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
            const auto table = service::pipeline_option_table();
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
            if (!write_text(cmd, out_file, astg->str, true)) return 1;
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
};

// ---- dispatch ---------------------------------------------------------------

void print_usage(std::FILE* to) {
    std::fputs("usage: asynth [options] <spec.g>\n"
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
               "and docs/PIPELINE.md for the stage-by-stage walkthrough.\n",
               to);
    for (const std::string& section :
         {help_text(main_cli().flags()), help_text(batch_cli().flags()),
          help_text(fuzz_cli().flags()), help_text(serve_cli().flags()),
          help_text(client_cli().flags())})
        std::fputs(section.c_str(), to);
}

/// Walks argv[@p first..] through @p Cli's flag table, then runs it.
template <class Cli>
int run_cli(int argc, char** argv, int first) {
    Cli cli;
    if (const auto code = walk(Cli::cmd, cli.flags(), argc, argv, first)) return *code;
    return cli.run();
}

}  // namespace

int main(int argc, char** argv) {
    const std::string_view sub = argc > 1 ? argv[1] : "";
    if (sub == "batch") return run_cli<batch_cli>(argc, argv, 2);
    if (sub == "fuzz") return run_cli<fuzz_cli>(argc, argv, 2);
    if (sub == "serve") return run_cli<serve_cli>(argc, argv, 2);
    if (sub == "client") return run_cli<client_cli>(argc, argv, 2);
    return run_cli<main_cli>(argc, argv, 1);
}
