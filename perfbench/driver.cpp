// Measurement half of the asynth benchmark (perfbench/run.py is the other
// half: it builds this binary, runs it, and turns its raw output into the
// reported metrics).
//
// The driver times its own calls into the library's public entry points --
// batch::run_batch (workload `sweep`) and the `asynth serve` socket round
// trip (workload `serve`) -- and reads the per-stage split and work counts
// from the result structs and responses those layers already return.  Every result is checked against the expectation pinned in
// pins.tsv, and every workload runs with verify_impl on, so each emitted
// netlist is also emulated against its state graph.
//
//   perfbench_driver --workload sweep|serve --seed N --seconds S
//                    --trace 0|1 --pins FILE --workdir DIR [--asynth BIN]
//   perfbench_driver --pin FAMILY --first N --count N [--jobs N]
//
// The first form prints one JSON document of raw measurements on stdout.
// With --trace 1 the workload runs twice at half size -- untraced, and under
// obs::trace_session -- and the Chrome traces of the traced half are written
// to DIR.  The second form synthesises generated specs of one family and
// prints pins.tsv rows for them.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "obs/trace.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "service/json.hpp"

namespace fs = std::filesystem;
using namespace asynth;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// ---- workload sizes ----------------------------------------------------------
// Work is a fixed function of (seed, --seconds), never of elapsed time, so
// every count the benchmark reports repeats exactly for one seed.  At
// --seconds 45 a run does 6 sweep passes, or 135,000 serve hits plus 270
// misses: 35-50 s each on a 4-core x86 VM.

constexpr std::size_t kSweepJobs = 4;           // batch pool width
constexpr std::size_t kSweepGenerated = 64;     // size-4 specs per sweep pass
constexpr double kSweepPassSeconds = 7.5;       // --seconds per sweep pass
constexpr std::size_t kServeWorkers = 1;        // daemon synthesis workers
constexpr std::size_t kServeConnections = 4;    // closed-loop client connections
constexpr std::size_t kServeHot = 48;           // hot specs, written during setup
// Four connections keep the one worker busy, so the phase's throughput is
// set by the worker's work, not by socket wake-ups.  Each miss stalls the
// other three connections for its synthesis time: with 270 misses to
// 135,000 hits that queues ~0.6% of hits, so the hit tail (p99.9) sits inside
// the queued mode, not on its edge.
constexpr double kServeColdPerSecond = 6.0;     // cold specs (each sent once) per --second
constexpr double kServeHitsPerSecond = 3000.0;  // hit requests per --second
constexpr double kServeLimitMs = 2000.0;        // answered-in-time limit of ok_frac
constexpr std::size_t kServeWindows = 20;       // throughput/CPU windows of a serve phase
constexpr int kSetupRepeats = 9;                // set-up repeats of sweep
constexpr int kServeStarts = 3;                 // set-ups (daemon starts) of serve

// ---- deterministic draws -------------------------------------------------------

struct splitmix64 {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

template <typename T>
void shuffle(std::vector<T>& v, splitmix64& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

std::string fnv1a_hex(std::string_view text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

// ---- spec families and pins ----------------------------------------------------

/// Generator shape of each family of generated specs.
benchmarks::generator_options family_options(const std::string& family) {
    benchmarks::generator_options g;
    if (family == "s4") return g;
    if (family == "svc") {  // cheap, varied specs for the service workload
        g.size = 3;
        return g;
    }
    throw std::runtime_error("unknown spec family '" + family + "'");
}

/// One pinned expectation: the verdict, area and cycle a spec must produce.
struct pin {
    std::string family;  ///< "corpus" or a generator family
    std::string id;      ///< corpus name or generator seed
    std::string hash;    ///< FNV-1a of the canonical (write_astg) text
    std::string verdict; ///< "circuit" | "no-circuit"
    double area = 0.0;
    double cycle = 0.0;
    double cost_ms = 0.0;  ///< pipeline time when pinned; orders draw strata
};

std::vector<pin> load_pins(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read pins file " + path);
    std::vector<pin> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ss(line);
        pin p;
        if (!(ss >> p.family >> p.id >> p.hash >> p.verdict >> p.area >> p.cycle >> p.cost_ms))
            throw std::runtime_error("malformed pins line: " + line);
        out.push_back(std::move(p));
    }
    return out;
}

/// The family's pins in draw order: cheapest first (ties by id).
std::vector<pin> family_pins(const std::vector<pin>& all, const std::string& family) {
    std::vector<pin> out;
    for (const auto& p : all)
        if (p.family == family) out.push_back(p);
    if (out.empty()) throw std::runtime_error("no pins for family '" + family + "'");
    std::stable_sort(out.begin(), out.end(),
                     [](const pin& a, const pin& b) { return a.cost_ms < b.cost_ms; });
    return out;
}

/// Stratified draw: splits the cost-ordered pool into @p n equal strata and
/// takes one seeded pick from each, so every seed gets the same cost profile.
std::vector<pin> draw(const std::vector<pin>& pool, std::size_t n, splitmix64& rng) {
    if (pool.size() < n) throw std::runtime_error("pin pool smaller than the draw");
    std::vector<pin> out;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = i * pool.size() / n, hi = (i + 1) * pool.size() / n;
        out.push_back(pool[lo + rng.below(hi - lo)]);
    }
    return out;
}

stg make_net(const std::string& family, const std::string& id) {
    if (family == "corpus") {
        for (const auto& e : benchmarks::corpus_table())
            if (id == e.name) return e.make();
        throw std::runtime_error("unknown corpus spec '" + id + "'");
    }
    return benchmarks::generate_stg(std::stoull(id), family_options(family));
}

/// A drawn spec: its pin plus the net and the canonical text it hashes to.
struct input_spec {
    pin expect;
    benchmarks::named_spec spec;
    std::string text;
};

input_spec materialise(const pin& p) {
    input_spec s{p, {p.family + ":" + p.id, make_net(p.family, p.id)}, {}};
    s.text = write_astg(s.spec.net);
    if (fnv1a_hex(s.text) != p.hash)
        throw std::runtime_error("spec " + s.spec.name + " no longer matches its pinned text");
    return s;
}

std::string verdict_of(bool completed, bool synthesized, const std::string& failed_stage) {
    if (!completed) return "failed:" + failed_stage;
    return synthesized ? "circuit" : "no-circuit";
}

/// "" when @p got matches the pin, else what differs.
std::string mismatch(const pin& p, const std::string& verdict, double area, double cycle,
                     bool impl_checked) {
    char buf[256];
    if (verdict != p.verdict) {
        std::snprintf(buf, sizeof buf, "%s:%s verdict %s, pinned %s", p.family.c_str(),
                      p.id.c_str(), verdict.c_str(), p.verdict.c_str());
        return buf;
    }
    if (std::fabs(area - p.area) > 1e-9 || std::fabs(cycle - p.cycle) > 1e-9) {
        std::snprintf(buf, sizeof buf, "%s:%s area %g cycle %g, pinned %g / %g",
                      p.family.c_str(), p.id.c_str(), area, cycle, p.area, p.cycle);
        return buf;
    }
    if (verdict == "circuit" && !impl_checked)
        return p.family + ":" + p.id + " netlist not verified by emulation";
    return "";
}

// ---- raw JSON output -------------------------------------------------------------

/// Chaining front for service::json_line, plus the arrays the raw
/// measurement document needs.
class json_obj {
public:
    json_obj& num(std::string_view k, double v) { return line_.field(k, v), *this; }
    json_obj& str(std::string_view k, std::string_view v) { return line_.field(k, v), *this; }
    json_obj& raw(std::string_view k, std::string_view v) { return line_.raw(k, v), *this; }
    json_obj& nums(std::string_view k, const std::vector<double>& v) {
        std::string arr = "[";
        char buf[32];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
            arr += buf;
        }
        return raw(k, arr + "]");
    }
    json_obj& strs(std::string_view k, const std::vector<std::string>& v) {
        std::string arr = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i) arr += ',';
            service::json_append_escaped(arr, v[i]);
        }
        return raw(k, arr + "]");
    }
    [[nodiscard]] std::string done() const { return service::json_line(line_).finish(); }

private:
    service::json_line line_;
};

/// Work counts and stage times of a set of pipeline runs, summed.
struct layer_sums {
    std::map<std::string, double> stage_ms;
    double states = 0, arcs = 0, explored = 0, pruned = 0, csc_signals = 0, literals = 0,
           verify_states = 0, pipeline_s = 0;

    void add(const batch::spec_record& r) {
        for (const auto& t : r.timings) stage_ms[stage_name(t.stage)] += t.seconds * 1e3;
        states += static_cast<double>(r.states);
        arcs += static_cast<double>(r.arcs);
        explored += static_cast<double>(r.explored);
        csc_signals += static_cast<double>(r.csc_signals);
        literals += static_cast<double>(r.literals);
        verify_states += static_cast<double>(r.impl_states);
        pipeline_s += r.seconds;
    }
    void write(json_obj& j) const {
        json_obj stages;
        for (const auto& [name, ms] : stage_ms) stages.num(name, ms);
        j.raw("stage_ms", stages.done())
            .num("states", states)
            .num("arcs", arcs)
            .num("explored", explored)
            .num("pruned", pruned)
            .num("csc_signals", csc_signals)
            .num("literals", literals)
            .num("verify_states", verify_states)
            .num("pipeline_s", pipeline_s);
    }
};

/// Outcome checks shared by every workload.
struct checks {
    std::size_t attempted = 0, ok = 0;
    std::vector<std::string> failures;  ///< first few, for the report
    double area_sum = 0, cycle_sum = 0;

    void record(const std::string& problem) {
        ++attempted;
        if (problem.empty()) ++ok;
        else if (failures.size() < 8) failures.push_back(problem);
    }
    void write(json_obj& j) const {
        j.num("attempted", static_cast<double>(attempted))
            .num("ok", static_cast<double>(ok))
            .strs("failures", failures)
            .num("area_sum", area_sum)
            .num("cycle_sum", cycle_sum);
    }
};

/// Runs @p setup @p repeats times, appending each duration to @p out.
/// Callers run it before any measured work: right after a multi-second
/// pipeline run the same set-up takes up to twice as long, and how often a
/// set-up landed there would decide the median.
template <typename F>
void time_setup(std::vector<double>& out, F&& setup, int repeats) {
    for (int i = 0; i < repeats; ++i) {
        const auto t0 = clock_type::now();
        setup();
        out.push_back(seconds_since(t0));
    }
}

double peak_rss_kb(int who) {
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

struct run_args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string pins, workdir, asynth;
};

/// Per-workload seed salt, so one --seed draws unrelated inputs per workload.
std::uint64_t workload_salt(const std::string& w) {
    return std::stoull(fnv1a_hex(w), nullptr, 16);
}

/// Measurements of the units run at one tracing setting.
struct unit_log {
    std::vector<double> wall, cpu;  ///< per unit
    std::vector<double> spec_ms;    ///< pipeline wall of every spec of every unit
    layer_sums sums;                ///< filled for the traced units only

    void write(json_obj& j, bool traced) const {
        j.nums("wall_s", wall).nums("cpu_s", cpu).nums("spec_ms", spec_ms);
        if (traced) sums.write(j);
    }
};

/// Runs @p units units of work.  With tracing, each unit runs both untraced
/// and under a fresh trace session, back to back, so drift in machine speed
/// hits both halves alike; each traced unit's Chrome trace goes to its own
/// file in the workdir.
template <typename Unit>
void run_units(const run_args& a, std::size_t units, Unit&& unit, json_obj& out) {
    unit_log untraced, traced;
    std::vector<std::string> trace_files;
    for (std::size_t k = 0; k < units; ++k) {
        if (!a.trace) {
            unit(k, false, untraced);
            continue;
        }
        // Odd units run traced first: a repeated unit runs faster the
        // second time (warm allocator), and alternating cancels that.
        obs::trace_session session;
        if (k % 2) session.start(), unit(k, true, traced), session.stop();
        unit(k, false, untraced);
        if (k % 2 == 0) session.start(), unit(k, true, traced), session.stop();
        trace_files.push_back(
            (fs::path(a.workdir) / ("trace-" + a.workload + "-" + std::to_string(k) + ".json"))
                .string());
        std::ofstream(trace_files.back(), std::ios::binary) << session.chrome_json();
    }
    json_obj u;
    untraced.write(u, false);
    out.raw("untraced", u.done());
    if (a.trace) {
        json_obj t;
        traced.write(t, true);
        out.raw("traced", t.done()).strs("trace_files", trace_files);
    }
}

/// Units of work in a run of @p seconds at @p unit_seconds each; halved
/// (rounded) when every unit also runs traced.
std::size_t unit_count(const run_args& a, double unit_seconds) {
    const double units = std::max(1.0, std::round(a.seconds / unit_seconds));
    return static_cast<std::size_t>(a.trace ? std::max(1.0, std::round(units / 2)) : units);
}

// ---- workload: sweep --------------------------------------------------------------

std::string run_sweep(const run_args& a) {
    std::vector<input_spec> inputs;
    std::vector<benchmarks::named_spec> specs;
    std::vector<double> setup;
    batch::batch_options bo;
    bo.jobs = kSweepJobs;
    bo.pipeline.verify_impl = true;
    checks chk;
    time_setup(
        setup,
        [&] {
            const auto all = load_pins(a.pins);
            std::vector<pin> chosen = family_pins(all, "corpus");
            splitmix64 rng{a.seed ^ workload_salt("sweep")};
            for (auto& p : draw(family_pins(all, "s4"), kSweepGenerated, rng))
                chosen.push_back(p);
            // Longest first: the pool then never waits on one late, long
            // spec, so the pass time reflects the work, not its order.
            std::stable_sort(chosen.begin(), chosen.end(), [](const pin& x, const pin& y) {
                return x.cost_ms > y.cost_ms;
            });
            inputs.clear();
            specs.clear();
            for (const auto& p : chosen) inputs.push_back(materialise(p));
            for (const auto& s : inputs) specs.push_back(s.spec);
            // Warm-up: the corpus specs once through one batch worker, so
            // lazy initialisation and allocator growth happen here, not in
            // the first timed pass.
            std::vector<benchmarks::named_spec> warm;
            std::vector<const pin*> expect;
            for (const auto& s : inputs)
                if (s.expect.family == "corpus") warm.push_back(s.spec), expect.push_back(&s.expect);
            batch::batch_options wo = bo;
            wo.jobs = 1;
            const auto rep = batch::run_batch(warm, wo);
            for (std::size_t i = 0; i < warm.size(); ++i) {
                const auto& r = rep.specs[i];
                chk.record(mismatch(*expect[i], verdict_of(r.completed, r.synthesized, r.failed_stage),
                                    r.area, r.cycle, r.impl_checked));
            }
        },
        kSetupRepeats);
    auto pass = [&](std::size_t, bool traced, unit_log& log) {
        const double c0 = process_cpu_seconds();
        const auto t0 = clock_type::now();
        batch::batch_report rep;
        {
            obs::span sp("bench.run_batch", "bench");
            rep = batch::run_batch(specs, bo);
        }
        log.wall.push_back(seconds_since(t0));
        log.cpu.push_back(process_cpu_seconds() - c0);
        double area = 0, cycle = 0;
        for (std::size_t i = 0; i < rep.specs.size(); ++i) {
            const auto& r = rep.specs[i];
            chk.record(mismatch(inputs[i].expect,
                                verdict_of(r.completed, r.synthesized, r.failed_stage), r.area,
                                r.cycle, r.impl_checked));
            if (r.synthesized) area += r.area, cycle += r.cycle;
            log.spec_ms.push_back(r.seconds * 1e3);
            if (traced) log.sums.add(r);
        }
        chk.area_sum = area, chk.cycle_sum = cycle;
        // The registry counters are the only public source of the dominance
        // filter's pruned count for batch sweeps.
        for (const auto& [name, v] : rep.counters)
            if (traced && name == "asynth_explore_pruned_total")
                log.sums.pruned += static_cast<double>(v);
    };

    json_obj out;
    out.str("workload", "sweep");
    run_units(a, unit_count(a, kSweepPassSeconds), pass, out);
    out.num("specs", static_cast<double>(specs.size()))
        .nums("setup_s", setup)
        .num("peak_rss_kb", peak_rss_kb(RUSAGE_SELF));
    chk.write(out);
    return out.done();
}

// ---- workload: serve ---------------------------------------------------------------

/// One blocking line-protocol connection to the daemon.
class connection {
public:
    explicit connection(const std::string& path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect failed");
        }
    }
    ~connection() { ::close(fd_); }
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;

    /// Sends @p line (newline appended) and returns the response line.
    std::string call(const std::string& line) {
        std::string msg = line + "\n";
        for (std::size_t off = 0; off < msg.size();) {
            const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
            if (n <= 0) throw std::runtime_error("send failed");
            off += static_cast<std::size_t>(n);
        }
        for (;;) {
            if (const auto nl = buf_.find('\n'); nl != std::string::npos) {
                std::string resp = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return resp;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) throw std::runtime_error("daemon closed the connection");
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    int fd_ = -1;
    std::string buf_;
};

/// A running `asynth serve` child on a fresh store.
class daemon_proc {
public:
    daemon_proc(const run_args& a, const std::string& tag, const std::string& trace_dir) {
        const fs::path dir = fs::path(a.workdir) / tag;
        fs::remove_all(dir);
        fs::create_directories(dir);
        socket_ = (dir / "s.sock").string();
        std::vector<std::string> argv = {a.asynth, "serve", "--socket", socket_,
                                         "--store", (dir / "store").string(),
                                         "--jobs", std::to_string(kServeWorkers),
                                         "--queue", "64", "--log-level", "warn", "-q"};
        if (!trace_dir.empty()) {
            argv.push_back("--trace");
            argv.push_back(trace_dir);
        }
        const std::string log = (dir / "daemon.log").string();
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            std::vector<char*> cargv;
            for (auto& s : argv) cargv.push_back(s.data());
            cargv.push_back(nullptr);
            if (std::freopen(log.c_str(), "w", stdout) && std::freopen(log.c_str(), "a", stderr))
                ::execv(cargv[0], cargv.data());
            std::_Exit(127);
        }
        dir_ = dir;
    }
    ~daemon_proc() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }
    daemon_proc(const daemon_proc&) = delete;
    daemon_proc& operator=(const daemon_proc&) = delete;

    [[nodiscard]] const std::string& socket() const { return socket_; }

    /// The daemon's CPU time (user + system) so far, in seconds.
    [[nodiscard]] double cpu_seconds() const {
        clockid_t id;
        timespec ts{};
        if (::clock_getcpuclockid(pid_, &id) != 0 || ::clock_gettime(id, &ts) != 0)
            throw std::runtime_error("cannot read the daemon's CPU clock");
        return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    /// Polls until the daemon answers {"op":"ready"} with ready:true.
    void wait_ready() {
        const auto t0 = clock_type::now();
        while (seconds_since(t0) < 30.0) {
            try {
                connection c(socket_);
                auto resp = service::json_parse(c.call(R"({"op":"ready"})"));
                if (resp && resp->get_bool("ready")) return;
            } catch (const std::exception&) {
            }
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("asynth serve exited during start-up");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        throw std::runtime_error("asynth serve did not become ready");
    }

    /// Drains the daemon and returns its resource usage (peak RSS, CPU).
    rusage shutdown() {
        {
            connection c(socket_);
            (void)c.call(R"({"op":"shutdown"})");
        }
        int status = 0;
        rusage ru{};
        ::wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("asynth serve did not drain cleanly");
        fs::remove_all(dir_);
        return ru;
    }

private:
    pid_t pid_ = -1;
    std::string socket_;
    fs::path dir_;
};

/// One request of a schedule and what the client saw.
struct request_slot {
    std::size_t spec = 0;   ///< index into the serve inputs
    bool want_hit = false;  ///< scheduled as a store hit
    double latency_ms = 0, queue_ms = 0, service_ms = 0, synth_ms = 0;
    batch::spec_record counts;  ///< work counts the response reports
    std::string store;      ///< "hit" | "miss" | "" (no answer)
    std::string outcome;    ///< "ok" | "failed" | "refused"
    std::string problem;    ///< check failure ("" when the answer is right)
};

/// Request totals of one phase.
struct phase_count {
    std::size_t sent = 0, ok = 0, failed = 0, refused = 0;
    phase_count& operator+=(const phase_count& o) {
        sent += o.sent, ok += o.ok, failed += o.failed, refused += o.refused;
        return *this;
    }
    std::string json() const {
        json_obj j;
        j.num("sent", static_cast<double>(sent))
            .num("ok", static_cast<double>(ok))
            .num("failed", static_cast<double>(failed))
            .num("refused", static_cast<double>(refused));
        return j.done();
    }
};

/// Wall and daemon CPU time at every `every`-th completed request of a
/// phase (index 0: the phase start), so a phase splits into windows of equal
/// request counts.
struct progress_marks {
    const daemon_proc* daemon = nullptr;
    std::size_t every = 1;
    clock_type::time_point t0;
    std::vector<double> wall_s, cpu_s;

    progress_marks(const daemon_proc& d, std::size_t requests)
        : daemon(&d),
          every(std::max<std::size_t>(1, requests / kServeWindows)),
          wall_s(requests / every + 1),
          cpu_s(requests / every + 1) {
        cpu_s[0] = d.cpu_seconds();
        t0 = clock_type::now();
    }
    /// Called once per completed request, with the running count.
    void completed(std::size_t n) {
        if (n % every) return;
        wall_s[n / every] = seconds_since(t0);
        cpu_s[n / every] = daemon->cpu_seconds();
    }
    /// Per-window differences of @p v.
    static std::vector<double> deltas(const std::vector<double>& v) {
        std::vector<double> d;
        for (std::size_t i = 1; i < v.size(); ++i) d.push_back(v[i] - v[i - 1]);
        return d;
    }
};

/// Runs @p slots closed-loop over kServeConnections connections.
phase_count run_schedule(const std::string& socket, const std::vector<input_spec>& inputs,
                         const std::vector<std::string>& requests,
                         std::vector<request_slot>& slots, progress_marks* marks = nullptr) {
    std::atomic<std::size_t> next{0}, done{0};
    auto client = [&] {
        std::optional<connection> c;
        try {
            c.emplace(socket);
        } catch (const std::exception&) {
            return;  // the slots this client would have sent count as failed
        }
        for (std::size_t i; (i = next.fetch_add(1)) < slots.size();) {
            request_slot& s = slots[i];
            const auto t0 = clock_type::now();
            std::string line;
            try {
                line = c->call(requests[s.spec]);
            } catch (const std::exception& e) {
                s.outcome = "failed";
                s.problem = e.what();
                continue;
            }
            s.latency_ms = seconds_since(t0) * 1e3;
            if (marks) marks->completed(done.fetch_add(1) + 1);
            const auto resp = service::json_parse(line);
            if (!resp || !resp->get_bool("ok")) {
                const std::string err = resp ? resp->get_string("error") : "unparsable response";
                s.outcome = (err == "queue full" || err == "draining") ? "refused" : "failed";
                s.problem = "request refused or failed: " + err;
                continue;
            }
            s.outcome = "ok";
            s.store = resp->get_string("store");
            s.queue_ms = resp->get_number("queue_ms");
            s.service_ms = resp->get_number("service_ms");
            s.synth_ms = resp->get_number("synth_seconds") * 1e3;
            auto count = [&](const char* k) {
                return static_cast<std::size_t>(resp->get_number(k));
            };
            s.counts.states = count("states");
            s.counts.arcs = count("arcs");
            s.counts.explored = count("explored");
            s.counts.csc_signals = count("csc_signals");
            s.counts.literals = count("literals");
            s.counts.impl_states = count("impl_states");
            s.counts.seconds = s.synth_ms / 1e3;
            s.counts.synthesized = resp->get_bool("synthesized");
            s.counts.area = s.counts.synthesized ? resp->get_number("area") : -1.0;
            s.counts.cycle = resp->get_number("cycle");
            const pin& p = inputs[s.spec].expect;
            s.problem = mismatch(p, verdict_of(resp->get_bool("completed"), s.counts.synthesized,
                                               resp->get_string("failed_stage")),
                                 s.counts.area, s.counts.cycle, resp->get_bool("impl_checked"));
            if (s.problem.empty() && s.store != (s.want_hit ? "hit" : "miss"))
                s.problem = p.family + ":" + p.id + " store " + s.store + ", scheduled " +
                            (s.want_hit ? "hit" : "miss");
            if (s.problem.empty() && s.latency_ms > kServeLimitMs)
                s.problem = "answered after the latency limit";
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kServeConnections; ++i) threads.emplace_back(client);
    for (auto& t : threads) t.join();
    phase_count pc;
    for (auto& s : slots) {
        if (s.outcome.empty()) {
            s.outcome = "failed", s.problem = "not sent: no connection";
            ++pc.failed;
            continue;
        }
        ++pc.sent;
        if (s.outcome == "ok") ++pc.ok;
        else if (s.outcome == "refused") ++pc.refused;
        else ++pc.failed;
    }
    return pc;
}

/// Value of a Prometheus counter line in an op:"metrics" scrape.
double prom_counter(const std::string& text, const std::string& name) {
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line))
        if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
    return 0.0;
}

struct daemon_counters {
    double hits = 0, misses = 0, writes = 0, explored = 0, pruned = 0;
};

daemon_counters read_counters(const std::string& socket) {
    connection c(socket);
    const auto stats = service::json_parse(c.call(R"({"op":"stats"})"));
    if (!stats) throw std::runtime_error("unparsable stats response");
    const auto metrics = service::json_parse(c.call(R"({"op":"metrics"})"));
    const std::string prom = metrics ? metrics->get_string("text") : "";
    return {stats->get_number("store_hits"), stats->get_number("store_misses"),
            stats->get_number("store_writes"),
            prom_counter(prom, "asynth_explore_explored_total"),
            prom_counter(prom, "asynth_explore_pruned_total")};
}

std::string run_serve(const run_args& a) {
    if (a.asynth.empty()) throw std::runtime_error("serve needs --asynth");
    const auto all = load_pins(a.pins);
    const double scale = a.trace ? 0.5 : 1.0;
    const std::size_t cold_n =
        static_cast<std::size_t>(std::lround(a.seconds * kServeColdPerSecond * scale));
    const std::size_t hits_n =
        static_cast<std::size_t>(std::lround(a.seconds * kServeHitsPerSecond * scale));

    // Hot and cold specs come from one stratified draw; evenly spaced
    // strata go hot, so both sets span the whole cost range.
    splitmix64 rng{a.seed ^ workload_salt("serve")};
    const auto drawn = draw(family_pins(all, "svc"), kServeHot + cold_n, rng);
    std::vector<pin> hot, cold;
    for (std::size_t i = 0, k = 0; i < drawn.size(); ++i) {
        const bool is_hot =
            k < kServeHot && i == (2 * k + 1) * drawn.size() / (2 * kServeHot);
        (is_hot ? hot : cold).push_back(drawn[i]);
        k += is_hot;
    }
    // Cold specs are sent in kServeWindows consecutive groups.  Dealing the
    // cost-ordered draw round-robin into the groups gives every window the
    // same cost profile, so a window's throughput reflects the program, not
    // which specs the seed put in it.
    {
        std::vector<pin> dealt;
        for (std::size_t w = 0; w < kServeWindows; ++w) {
            std::vector<pin> group;
            for (std::size_t j = w; j < cold.size(); j += kServeWindows) group.push_back(cold[j]);
            shuffle(group, rng);
            dealt.insert(dealt.end(), group.begin(), group.end());
        }
        cold = std::move(dealt);
    }

    // The schedule: cold requests evenly spaced among seeded hot picks.
    const std::size_t total = hits_n + cold.size();
    std::vector<request_slot> schedule(total);
    {
        std::vector<bool> is_cold(total, false);
        for (std::size_t j = 0; j < cold.size(); ++j)
            is_cold[(2 * j + 1) * total / (2 * cold.size())] = true;
        std::size_t c = 0;
        for (std::size_t i = 0; i < total; ++i) {
            schedule[i].want_hit = !is_cold[i];
            schedule[i].spec = is_cold[i] ? hot.size() + c++ : rng.below(hot.size());
        }
    }

    std::vector<input_spec> inputs;
    std::vector<std::string> requests;
    std::optional<daemon_proc> daemon;

    auto run_phase = [&](const std::string& tag, const std::string& trace_dir, json_obj& j) {
        checks chk;
        std::vector<double> setup;
        phase_count warm_count;
        // Set-up, kServeStarts times: materialise the specs, start the daemon
        // on a fresh store, wait for ready:true and write the hot set (each
        // hot spec once).  The last daemon serves the measured phase; only it
        // traces.
        std::vector<request_slot> warm;
        for (int i = 0; i < kServeStarts; ++i) {
            if (daemon) (void)daemon->shutdown();
            warm.assign(hot.size(), {});
            time_setup(
                setup,
                [&] {
                    inputs.clear();
                    requests.clear();
                    for (const auto& p : hot) inputs.push_back(materialise(p));
                    for (const auto& p : cold) inputs.push_back(materialise(p));
                    for (std::size_t k = 0; k < inputs.size(); ++k) {
                        service::json_line line;
                        line.field("op", "synth");
                        line.field("id", static_cast<std::uint64_t>(k + 1));
                        line.field("name", inputs[k].spec.name);
                        line.field("verify", true);
                        line.field("spec", inputs[k].text);
                        requests.push_back(std::move(line).finish());
                    }
                    daemon.emplace(a, tag, i + 1 == kServeStarts ? trace_dir : "");
                    daemon->wait_ready();
                    for (std::size_t k = 0; k < hot.size(); ++k) warm[k].spec = k;
                    warm_count += run_schedule(daemon->socket(), inputs, requests, warm);
                },
                1);
            for (const auto& s : warm) chk.record(s.problem);
        }
        // Pipeline-layer counts and result quality cover every pipeline run
        // of the measuring daemon: its hot-set warm-up and the cold requests.
        layer_sums sums;
        auto add_run = [&](const request_slot& s) {
            sums.add(s.counts);
            if (s.counts.synthesized)
                chk.area_sum += s.counts.area, chk.cycle_sum += s.counts.cycle;
        };
        for (const auto& s : warm) add_run(s);

        const daemon_counters c0 = read_counters(daemon->socket());
        std::vector<request_slot> slots = schedule;
        progress_marks marks(*daemon, slots.size());
        const phase_count measured =
            run_schedule(daemon->socket(), inputs, requests, slots, &marks);
        const double wall = seconds_since(marks.t0);
        const double cpu = daemon->cpu_seconds() - marks.cpu_s[0];
        const daemon_counters c1 = read_counters(daemon->socket());
        const rusage ru = daemon->shutdown();
        daemon.reset();

        std::vector<double> hit_lat, miss_lat, queue, transport, hit_service, miss_overhead,
            synth;
        std::size_t hits = 0, misses = 0;
        for (const auto& s : slots) {
            chk.record(s.problem);
            if (s.outcome != "ok") continue;
            queue.push_back(s.queue_ms);
            transport.push_back(s.latency_ms - s.queue_ms - s.service_ms);
            if (s.store == "hit") {
                ++hits;
                hit_lat.push_back(s.latency_ms);
                hit_service.push_back(s.service_ms);
            } else {
                ++misses;
                miss_lat.push_back(s.latency_ms);
                miss_overhead.push_back(s.service_ms - s.synth_ms);
                synth.push_back(s.synth_ms);
                add_run(s);
            }
        }
        // Process totals since daemon start, like the sums above.
        sums.explored = c1.explored;
        sums.pruned = c1.pruned;

        j.nums("setup_s", setup)
            .num("wall_s", wall)
            .num("cpu_s", cpu)
            .num("window_requests", static_cast<double>(marks.every))
            .nums("window_wall_s", progress_marks::deltas(marks.wall_s))
            .nums("window_cpu_s", progress_marks::deltas(marks.cpu_s))
            .num("requests", static_cast<double>(slots.size()))
            .num("scheduled_hits", static_cast<double>(hits_n))
            .num("scheduled_misses", static_cast<double>(cold.size()))
            .num("hits", static_cast<double>(hits))
            .num("misses", static_cast<double>(misses))
            .raw("warmup", warm_count.json())
            .raw("measured", measured.json())
            .nums("hit_ms", hit_lat)
            .nums("miss_ms", miss_lat)
            .nums("queue_ms", queue)
            .nums("transport_ms", transport)
            .nums("hit_service_ms", hit_service)
            .nums("miss_overhead_ms", miss_overhead)
            .nums("synth_ms", synth)
            .num("store_hits", c1.hits - c0.hits)
            .num("store_misses", c1.misses - c0.misses)
            .num("store_writes", c1.writes - c0.writes)
            .num("daemon_peak_rss_kb", static_cast<double>(ru.ru_maxrss));
        sums.write(j);
        chk.write(j);
        return chk;
    };

    json_obj out;
    out.str("workload", "serve");
    json_obj untraced;
    checks chk = run_phase("serve", "", untraced);
    out.raw("untraced", untraced.done());
    if (a.trace) {
        const std::string dir = (fs::path(a.workdir) / "serve-trace").string();
        fs::remove_all(dir);
        fs::create_directories(dir);
        json_obj traced;
        const checks tchk = run_phase("serve-traced", dir, traced);
        chk.attempted += tchk.attempted;
        chk.ok += tchk.ok;
        for (const auto& f : tchk.failures)
            if (chk.failures.size() < 8) chk.failures.push_back(f);
        out.raw("traced", traced.done()).str("trace_dir", dir);
    }
    chk.write(out);
    return out.done();
}

// ---- pin mode ------------------------------------------------------------------------

int run_pin(const std::string& family, std::uint64_t first, std::size_t count,
            std::size_t jobs) {
    std::vector<benchmarks::named_spec> specs;
    std::vector<std::string> ids;
    if (family == "corpus") {
        for (const auto& e : benchmarks::corpus_table()) {
            specs.push_back({e.name, e.make()});
            ids.push_back(e.name);
        }
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            specs.push_back({"", benchmarks::generate_stg(first + i, family_options(family))});
            ids.push_back(std::to_string(first + i));
        }
    }
    batch::batch_options bo;
    bo.jobs = jobs;
    bo.pipeline.verify_impl = true;
    const auto rep = batch::run_batch(specs, bo);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto& r = rep.specs[i];
        if (!r.completed || (r.synthesized && !r.impl_checked)) {
            std::fprintf(stderr, "%s:%s skipped (%s)\n", family.c_str(), ids[i].c_str(),
                         r.message.c_str());
            continue;
        }
        std::printf("%s\t%s\t%s\t%s\t%.17g\t%.17g\t%.3f\n", family.c_str(), ids[i].c_str(),
                    fnv1a_hex(write_astg(specs[i].net)).c_str(),
                    verdict_of(r.completed, r.synthesized, r.failed_stage).c_str(),
                    r.synthesized ? r.area : -1.0, r.cycle, r.seconds * 1e3);
    }
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload sweep|serve --seed N --seconds S\n"
                 "                        --trace 0|1 --pins FILE --workdir DIR [--asynth BIN]\n"
                 "       perfbench_driver --pin FAMILY --first N --count N [--jobs N]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    run_args a;
    std::string pin_family;
    std::uint64_t pin_first = 1;
    std::size_t pin_count = 0, pin_jobs = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string v = argv[++i];
        if (arg == "--workload") a.workload = v;
        else if (arg == "--seed") a.seed = std::stoull(v);
        else if (arg == "--seconds") a.seconds = std::stod(v);
        else if (arg == "--trace") a.trace = v == "1";
        else if (arg == "--pins") a.pins = v;
        else if (arg == "--workdir") a.workdir = v;
        else if (arg == "--asynth") a.asynth = v;
        else if (arg == "--pin") pin_family = v;
        else if (arg == "--first") pin_first = std::stoull(v);
        else if (arg == "--count") pin_count = std::stoul(v);
        else if (arg == "--jobs") pin_jobs = std::stoul(v);
        else return usage();
    }
    try {
        if (!pin_family.empty()) return run_pin(pin_family, pin_first, pin_count, pin_jobs);
        if (a.pins.empty() || a.workdir.empty()) return usage();
        fs::create_directories(a.workdir);
        std::string doc;
        if (a.workload == "sweep") doc = run_sweep(a);
        else if (a.workload == "serve") doc = run_serve(a);
        else return usage();
        std::printf("%s\n", doc.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
