#include "obs/log.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include "util/json_escape.hpp"

namespace asynth::obs {

namespace {

constexpr std::size_t ring_capacity = 256;

struct logger_state {
    std::atomic<std::uint8_t> level{static_cast<std::uint8_t>(log_level::warn)};
    std::mutex mutex;  ///< sink writes, sink swaps and the ring
    std::FILE* sink = stderr;
    bool owns_sink = false;
    std::vector<std::string> ring;  ///< circular once full; ring_next = oldest
    std::size_t ring_next = 0;
};

logger_state& state() {
    static logger_state s;
    return s;
}

std::atomic<std::uint64_t> g_thread_seq{0};

std::string& thread_name_slot() {
    thread_local std::string name;
    return name;
}

/// The calling thread's log track name; lazily "thread-<n>" until
/// obs::name_thread gives it a real one.
const std::string& log_thread_name() {
    std::string& n = thread_name_slot();
    if (n.empty())
        n = "thread-" + std::to_string(g_thread_seq.fetch_add(1, std::memory_order_relaxed));
    return n;
}

std::string& req_id_slot() {
    thread_local std::string id;
    return id;
}

/// Appends `,"key":` to a log line.
void append_key(std::string& out, std::string_view key) {
    out += ',';
    json_append_escaped(out, key);
    out += ':';
}

void append_number(std::string& out, const char* fmt, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, fmt, v);
    out += buf;
}

}  // namespace

const char* level_name(log_level l) noexcept {
    switch (l) {
        case log_level::debug: return "debug";
        case log_level::info: return "info";
        case log_level::warn: return "warn";
        case log_level::error: return "error";
        case log_level::off: return "off";
    }
    return "?";
}

std::optional<log_level> level_from_name(std::string_view s) noexcept {
    if (s == "debug") return log_level::debug;
    if (s == "info") return log_level::info;
    if (s == "warn") return log_level::warn;
    if (s == "error") return log_level::error;
    if (s == "off") return log_level::off;
    return std::nullopt;
}

void set_log_level(log_level l) noexcept {
    state().level.store(static_cast<std::uint8_t>(l), std::memory_order_relaxed);
}

log_level get_log_level() noexcept {
    return static_cast<log_level>(state().level.load(std::memory_order_relaxed));
}

bool log_enabled(log_level l) noexcept {
    return l != log_level::off &&
           static_cast<std::uint8_t>(l) >= state().level.load(std::memory_order_relaxed);
}

bool open_log_file(const std::string& path, std::string& error) {
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (!f) {
        error = path + ": " + std::strerror(errno);
        return false;
    }
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.owns_sink && s.sink) std::fclose(s.sink);
    s.sink = f;
    s.owns_sink = true;
    return true;
}

std::size_t log_ring_capacity() noexcept { return ring_capacity; }

std::vector<std::string> recent_log_lines() {
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    std::vector<std::string> out;
    out.reserve(s.ring.size());
    if (s.ring.size() < ring_capacity) {
        out = s.ring;
    } else {
        // Full ring: ring_next is the oldest entry.
        for (std::size_t i = 0; i < ring_capacity; ++i)
            out.push_back(s.ring[(s.ring_next + i) % ring_capacity]);
    }
    return out;
}

void dump_recent_log(std::FILE* to) {
    for (const auto& line : recent_log_lines()) {
        std::fwrite(line.data(), 1, line.size(), to);
        std::fputc('\n', to);
    }
    std::fflush(to);
}

log_event::log_event(log_level lvl, std::string_view event) {
    if (!log_enabled(lvl)) return;
    emitting_ = true;
    const double wall = std::chrono::duration<double>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();
    const double mono_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now().time_since_epoch())
                               .count();
    line_.reserve(160);
    line_ += "{\"ts\":";
    append_number(line_, "%.6f", wall);
    line_ += ",\"mono_ms\":";
    append_number(line_, "%.3f", mono_ms);
    line_ += ",\"level\":\"";
    line_ += level_name(lvl);
    line_ += '"';
    append_key(line_, "thread");
    json_append_escaped(line_, log_thread_name());
    append_key(line_, "event");
    json_append_escaped(line_, event);
    if (const std::string& req = req_id_slot(); !req.empty()) {
        append_key(line_, "req_id");
        json_append_escaped(line_, req);
    }
}

log_event::~log_event() {
    if (!emitting_) return;
    line_ += '}';
    auto& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    // Ring first (without the newline: entries are self-contained objects).
    if (s.ring.size() < ring_capacity) {
        s.ring.push_back(line_);
    } else {
        s.ring[s.ring_next] = line_;
        s.ring_next = (s.ring_next + 1) % ring_capacity;
    }
    // One fwrite for the whole line: the no-torn-lines guarantee.
    line_ += '\n';
    std::fwrite(line_.data(), 1, line_.size(), s.sink);
    std::fflush(s.sink);
}

log_event& log_event::field(std::string_view key, std::string_view value) {
    if (!emitting_) return *this;
    append_key(line_, key);
    json_append_escaped(line_, value);
    return *this;
}

log_event& log_event::field(std::string_view key, std::uint64_t v) {
    if (!emitting_) return *this;
    append_key(line_, key);
    line_ += std::to_string(v);
    return *this;
}

log_event& log_event::field(std::string_view key, std::int64_t v) {
    if (!emitting_) return *this;
    append_key(line_, key);
    line_ += std::to_string(v);
    return *this;
}

log_event& log_event::field(std::string_view key, double v) {
    if (!emitting_) return *this;
    append_key(line_, key);
    append_number(line_, "%.6g", v);
    return *this;
}

log_event& log_event::field(std::string_view key, bool v) {
    if (!emitting_) return *this;
    append_key(line_, key);
    line_ += v ? "true" : "false";
    return *this;
}

log_context::log_context(std::string_view req_id) {
    if (req_id.empty()) return;
    bound_ = true;
    prev_ = std::move(req_id_slot());
    req_id_slot() = std::string(req_id);
}

log_context::~log_context() {
    if (bound_) req_id_slot() = std::move(prev_);
}

const std::string& current_req_id() noexcept { return req_id_slot(); }

namespace detail {

void set_log_thread_name(std::string_view name) { thread_name_slot() = std::string(name); }

}  // namespace detail

}  // namespace asynth::obs
