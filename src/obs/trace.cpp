#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/json_escape.hpp"

namespace asynth::obs {

namespace {

/// Test-only cap override (trace.hpp detail); 0 = the built-in 1M cap.
std::atomic<std::size_t> g_test_cap{0};

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

/// Per-thread event storage.  A fixed table of atomically-published chunk
/// pointers (so the collector never chases a reallocating vector); only the
/// owning thread writes, publishing progress via a release store of `used`.
/// Buffers are allocated on a thread's first traced span, owned by the
/// global tracer_state, and freed only at process exit -- which requires
/// every span-recording thread to be joined before exit (they are: the pool
/// and the daemon join their workers in their destructors).
struct thread_buffer {
    static constexpr std::size_t chunk_events = 256;
    static constexpr std::size_t max_chunks = 4096;  // 1M spans per thread per session

    struct chunk {
        trace_event events[chunk_events];
    };

    std::atomic<chunk*> chunks[max_chunks] = {};
    ~thread_buffer() {
        for (auto& c : chunks) delete c.load(std::memory_order_relaxed);
    }
    std::atomic<std::size_t> used{0};
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> dropped{0};
    std::uint64_t tid = 0;
    std::string name;  // guarded by tracer_state::mutex

    void append(trace_event&& ev, std::uint64_t epoch_now) {
        // First append under a new session: owner-side lazy reset, so resets
        // never race the owning thread's own writes.
        if (epoch.load(std::memory_order_relaxed) != epoch_now) {
            used.store(0, std::memory_order_relaxed);
            dropped.store(0, std::memory_order_relaxed);
            epoch.store(epoch_now, std::memory_order_release);
        }
        const std::size_t n = used.load(std::memory_order_relaxed);
        const std::size_t ci = n / chunk_events;
        const std::size_t cap = g_test_cap.load(std::memory_order_relaxed);
        if (ci >= max_chunks || (cap != 0 && n >= cap)) {
            // Overflow is benign but must never be invisible: count it in the
            // process metrics (the flamegraph already reports it per session)
            // and warn once per thread per session when drops begin.
            static counter& drop_metric = registry::global().get_counter(
                "asynth_trace_dropped_total", "Spans dropped at the per-thread buffer cap");
            drop_metric.add();
            if (dropped.fetch_add(1, std::memory_order_relaxed) == 0)
                log_event(log_level::warn, "trace.dropped")
                    .field("events_kept", static_cast<std::uint64_t>(n));
            return;
        }
        chunk* c = chunks[ci].load(std::memory_order_relaxed);
        if (!c) {
            c = new chunk;
            chunks[ci].store(c, std::memory_order_release);
        }
        c->events[n % chunk_events] = std::move(ev);
        used.store(n + 1, std::memory_order_release);
    }
};

struct tracer_state {
    std::atomic<bool> enabled{false};
    std::atomic<std::uint64_t> epoch{0};
    std::mutex mutex;  // buffer registration, thread names, session arm/disarm
    std::vector<std::unique_ptr<thread_buffer>> buffers;
    trace_session* current = nullptr;
};

tracer_state& state() {
    static tracer_state s;
    return s;
}

thread_buffer& local_buffer() {
    thread_local thread_buffer* buf = [] {
        auto owned = std::make_unique<thread_buffer>();
        thread_buffer* b = owned.get();
        auto& s = state();
        std::lock_guard lock(s.mutex);
        b->tid = s.buffers.size();
        s.buffers.push_back(std::move(owned));
        return b;
    }();
    return *buf;
}

std::string format_number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

void append_args_json(std::string& out, const std::vector<trace_arg>& args) {
    out += ",\"args\":{";
    bool first = true;
    for (const auto& a : args) {
        if (!first) out += ',';
        first = false;
        json_append_escaped(out, a.key);
        out += ':';
        if (a.numeric)
            out += a.value;
        else
            json_append_escaped(out, a.value);
    }
    out += '}';
}

}  // namespace

void name_thread(std::string_view name) {
    thread_buffer& b = local_buffer();
    {
        std::lock_guard lock(state().mutex);
        b.name = std::string(name);
    }
    // One name per thread, shared by trace tracks and log lines.
    detail::set_log_thread_name(name);
}

namespace detail {

void set_trace_buffer_cap_for_testing(std::size_t max_events) {
    g_test_cap.store(max_events, std::memory_order_relaxed);
}

}  // namespace detail

trace_session::~trace_session() {
    if (armed_) stop();
}

void trace_session::start() {
    auto& s = state();
    std::lock_guard lock(s.mutex);
    require(s.current == nullptr, "another trace session is already armed");
    events_.clear();
    thread_names_.clear();
    dropped_ = 0;
    epoch_ = s.epoch.fetch_add(1, std::memory_order_relaxed) + 1;
    start_ns_ = now_ns();
    s.current = this;
    armed_ = true;
    s.enabled.store(true, std::memory_order_release);
}

void trace_session::stop() {
    auto& s = state();
    std::lock_guard lock(s.mutex);
    if (!armed_) return;
    s.enabled.store(false, std::memory_order_release);
    s.current = nullptr;
    armed_ = false;
    for (const auto& b : s.buffers) {
        // Buffers still tagged with an older epoch never recorded under this
        // session; skipping them is what makes stale-span drops benign.
        if (b->epoch.load(std::memory_order_acquire) != epoch_) continue;
        dropped_ += b->dropped.load(std::memory_order_relaxed);
        const std::size_t n = b->used.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < n; ++i) {
            thread_buffer::chunk* c =
                b->chunks[i / thread_buffer::chunk_events].load(std::memory_order_acquire);
            trace_event ev = c->events[i % thread_buffer::chunk_events];
            ev.tid = b->tid;
            events_.push_back(std::move(ev));
        }
        if (!b->name.empty()) thread_names_.emplace_back(b->tid, b->name);
    }
    std::sort(events_.begin(), events_.end(), [](const trace_event& a, const trace_event& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
        return a.dur_ns > b.dur_ns;  // parents before children on ties
    });
}

namespace {

double rel_us(std::uint64_t ns, std::uint64_t base_ns) {
    return ns >= base_ns ? static_cast<double>(ns - base_ns) / 1000.0 : 0.0;
}

std::string format_us(double us) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", us);
    return buf;
}

}  // namespace

std::string trace_session::chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string& ev) {
        if (!first) out += ',';
        first = false;
        out += '\n';
        out += ev;
    };
    for (const auto& [tid, name] : thread_names_) {
        std::string ev = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
                         std::to_string(tid) + ",\"args\":{\"name\":";
        json_append_escaped(ev, name);
        ev += "}}";
        emit(ev);
    }
    // Per-thread B/E generation: events_ is sorted (tid, start asc, dur desc),
    // so a stack walk recovers the nesting RAII guaranteed at record time.
    // Emitted timestamps are clamped non-decreasing per thread, which is what
    // tools/validate_trace.py asserts.
    std::size_t i = 0;
    while (i < events_.size()) {
        const std::uint64_t tid = events_[i].tid;
        struct open_span {
            const trace_event* ev;
            std::uint64_t end_ns;
        };
        std::vector<open_span> stack;
        double last_ts = 0.0;
        auto clamp_ts = [&](double ts) {
            if (ts < last_ts) ts = last_ts;
            last_ts = ts;
            return ts;
        };
        auto emit_end = [&](const open_span& o) {
            std::string ev = "{\"name\":";
            json_append_escaped(ev, o.ev->name);
            ev += ",\"ph\":\"E\",\"ts\":" + format_us(clamp_ts(rel_us(o.end_ns, start_ns_))) +
                  ",\"pid\":1,\"tid\":" + std::to_string(tid) + "}";
            emit(ev);
        };
        for (; i < events_.size() && events_[i].tid == tid; ++i) {
            const trace_event& e = events_[i];
            while (!stack.empty() && stack.back().end_ns <= e.start_ns) {
                emit_end(stack.back());
                stack.pop_back();
            }
            std::string ev = "{\"name\":";
            json_append_escaped(ev, e.name);
            ev += ",\"cat\":";
            json_append_escaped(ev,
                                e.category.empty() ? std::string_view("default") : e.category);
            ev += ",\"ph\":\"B\",\"ts\":" + format_us(clamp_ts(rel_us(e.start_ns, start_ns_))) +
                  ",\"pid\":1,\"tid\":" + std::to_string(tid);
            if (!e.args.empty()) append_args_json(ev, e.args);
            ev += '}';
            emit(ev);
            std::uint64_t end_ns = e.start_ns + e.dur_ns;
            // Clock truncation can put a child's end a hair past its parent's;
            // clamp so the stack pops in strict LIFO order.
            if (!stack.empty()) end_ns = std::min(end_ns, stack.back().end_ns);
            stack.push_back({&e, end_ns});
        }
        while (!stack.empty()) {
            emit_end(stack.back());
            stack.pop_back();
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

std::string trace_session::flamegraph() const {
    std::string out;
    std::size_t i = 0;
    while (i < events_.size()) {
        const std::uint64_t tid = events_[i].tid;
        std::string tname = "thread-" + std::to_string(tid);
        for (const auto& [t, n] : thread_names_)
            if (t == tid) tname = n;
        // Track total = sum of root-span durations (found via a stack walk).
        const std::size_t begin = i;
        std::uint64_t total_ns = 0;
        std::size_t count = 0;
        {
            std::vector<std::uint64_t> ends;
            for (std::size_t j = begin; j < events_.size() && events_[j].tid == tid; ++j) {
                const trace_event& e = events_[j];
                while (!ends.empty() && ends.back() <= e.start_ns) ends.pop_back();
                if (ends.empty()) total_ns += e.dur_ns;
                ends.push_back(e.start_ns + e.dur_ns);
                ++count;
            }
        }
        char head[128];
        std::snprintf(head, sizeof head, "== %s · %zu spans · %.2f ms ==\n", tname.c_str(),
                      count, static_cast<double>(total_ns) / 1e6);
        out += head;
        std::vector<std::uint64_t> ends;
        for (; i < events_.size() && events_[i].tid == tid; ++i) {
            const trace_event& e = events_[i];
            while (!ends.empty() && ends.back() <= e.start_ns) ends.pop_back();
            const double ms = static_cast<double>(e.dur_ns) / 1e6;
            const double pct =
                total_ns ? 100.0 * static_cast<double>(e.dur_ns) / static_cast<double>(total_ns)
                         : 0.0;
            out += std::string(2 * ends.size(), ' ');
            const int bar = static_cast<int>(pct / 5.0 + 0.5);  // 20 cells = 100%
            char line[160];
            std::snprintf(line, sizeof line, "%-28s %9.3f ms %5.1f%% |%-20s|", e.name.c_str(),
                          ms, pct, std::string(static_cast<std::size_t>(bar), '#').c_str());
            out += line;
            if (!e.args.empty()) {
                out += "  (";
                for (std::size_t a = 0; a < e.args.size(); ++a) {
                    if (a) out += ", ";
                    out += e.args[a].key + "=" + e.args[a].value;
                }
                out += ')';
            }
            out += '\n';
            ends.push_back(e.start_ns + e.dur_ns);
        }
    }
    if (dropped_ > 0) out += "(dropped " + std::to_string(dropped_) + " spans: buffer cap)\n";
    return out;
}

span::span(std::string_view name, std::string_view category) {
    start_ns_ = now_ns();
    auto& s = state();
    if (!s.enabled.load(std::memory_order_relaxed)) return;
    recording_ = true;
    epoch_ = s.epoch.load(std::memory_order_relaxed);
    ev_.name = std::string(name);
    ev_.category = std::string(category);
}

span::~span() {
    if (!recording_) return;
    ev_.start_ns = start_ns_;
    ev_.dur_ns = now_ns() - start_ns_;
    local_buffer().append(std::move(ev_), epoch_);
}

void span::arg(std::string_view key, std::string_view value) {
    if (!recording_) return;
    ev_.args.push_back({std::string(key), std::string(value), false});
}

void span::arg(std::string_view key, std::uint64_t v) {
    if (!recording_) return;
    ev_.args.push_back({std::string(key), std::to_string(v), true});
}

void span::arg(std::string_view key, std::int64_t v) {
    if (!recording_) return;
    ev_.args.push_back({std::string(key), std::to_string(v), true});
}

void span::arg(std::string_view key, double v) {
    if (!recording_) return;
    ev_.args.push_back({std::string(key), format_number(v), true});
}

double span::seconds() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

}  // namespace asynth::obs
