#include "store/result_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "petri/astg_io.hpp"

namespace asynth::store {

namespace {

/// Process-wide store counters (on top of the per-handle store_stats): every
/// handle in the process feeds the same series, which is what the daemon's
/// Prometheus exposition reports.
struct store_counters {
    obs::counter& hits;
    obs::counter& misses;
    obs::counter& heals;
    obs::counter& corrupt;
    obs::counter& writes;
};

store_counters& store_obs() {
    auto& reg = obs::registry::global();
    static store_counters c{
        reg.get_counter("asynth_store_hits_total", "Result-store lookups served from disk"),
        reg.get_counter("asynth_store_misses_total",
                        "Result-store lookups that required synthesis"),
        reg.get_counter("asynth_store_heals_total",
                        "Puts that replaced an existing (stale or corrupt) record"),
        reg.get_counter("asynth_store_corruptions_total",
                        "Lookups that found an unparsable record"),
        reg.get_counter("asynth_store_writes_total", "Records committed to the store"),
    };
    return c;
}

/// Store-level format line; bump only when the directory *layout* changes.
constexpr std::string_view store_format_line = "asynth-store v1\n";

void fp_double(std::string& out, const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
    out += buf;
}

void fp_size(std::string& out, const char* key, std::size_t v) {
    out += key;
    out += '=';
    out += std::to_string(v);
    out += ';';
}

void fp_bool(std::string& out, const char* key, bool v) {
    out += key;
    out += v ? "=1;" : "=0;";
}

[[nodiscard]] bool make_dir(const std::string& path) {
    return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

/// RAII flock() on the store's lock file.  A lock that cannot be taken
/// (missing file, EINTR storm) degrades to lock-free operation -- the
/// temp+rename protocol alone already guarantees readers never see torn
/// records; the flock only serialises writers and is best-effort.
struct file_lock {
    int fd = -1;
    file_lock(const std::string& path, int op) {
        fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
        if (fd >= 0 && ::flock(fd, op) != 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ~file_lock() {
        if (fd >= 0) {
            ::flock(fd, LOCK_UN);
            ::close(fd);
        }
    }
    file_lock(const file_lock&) = delete;
    file_lock& operator=(const file_lock&) = delete;
};

/// Reads a whole file; nullopt when it does not exist or cannot be read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) return std::nullopt;
    return std::move(text).str();
}

}  // namespace

std::string store_key::hex() const {
    char buf[33];
    std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(h.hi),
                  static_cast<unsigned long long>(h.lo));
    return buf;
}

std::string options_fingerprint(const pipeline_options& opt) {
    // v2: the verify knob joined the fingerprint (a verified record proves
    // strictly more than an unverified one, so they must never alias).
    // v3: a search-quality dial and its deadline joined.
    // v4: the quality dial is gone and the deadline left again -- cut runs
    // are never cached, and uncut ones do not depend on the deadline.
    // v5: the verify knob is gone (every circuit is verified), and labels
    // are pipeline_options member paths: the fingerprint speaks the
    // struct's vocabulary, the option table (service/options.hpp) the
    // command line's and the protocol's.
    // v6: the zero-delay-wires knob is gone (wires always get zero delay).
    std::string fp = "asynth-options v6;";
    // expand
    fp_size(fp, "expand.phases", static_cast<std::size_t>(opt.expand.phases));
    fp_bool(fp, "expand.channel_interface", opt.expand.channel_interface);
    fp_size(fp, "expand.max_states", opt.expand.max_states);
    // strategy + search.  engine/minimizer/jobs/deadline_ms are EXCLUDED by
    // contract: the first three return bit-identical results (pinned
    // corpus-wide in tests/test_explore.cpp), so either engine may serve the
    // other's cache; see the file comment in result_store.hpp for the
    // deadline.
    fp_size(fp, "reduction", static_cast<std::size_t>(opt.strategy));
    fp_size(fp, "search.size_frontier", opt.search.size_frontier);
    fp_size(fp, "search.max_levels", opt.search.max_levels);
    fp_double(fp, "cost.w", opt.search.cost.w);
    fp_double(fp, "cost.csc_weight", opt.search.cost.csc_weight);
    fp_size(fp, "cost.minimize_passes", opt.search.cost.minimize_passes);
    fp += "search.keep_concurrent=";
    for (const auto& [a, b] : opt.search.keep_concurrent) {
        fp += std::to_string(a.signal);
        fp += a.dir == edge::plus ? '+' : (a.dir == edge::minus ? '-' : '~');
        fp += std::to_string(b.signal);
        fp += b.dir == edge::plus ? '+' : (b.dir == edge::minus ? '-' : '~');
        fp += ',';
    }
    fp += ';';
    // csc
    fp_size(fp, "csc.max_signals", opt.csc.max_signals);
    fp_size(fp, "csc.beam_width", opt.csc.beam_width);
    // synth
    fp_bool(fp, "synth.exact", opt.synth.exact);
    fp_double(fp, "synth.lib.inverter", opt.synth.lib.inverter);
    fp_double(fp, "synth.lib.gate2", opt.synth.lib.gate2);
    fp_double(fp, "synth.lib.celement", opt.synth.lib.celement);
    // perf + tail stages
    fp_bool(fp, "run_performance", opt.run_performance);
    fp_bool(fp, "recover_stg", opt.recover_stg);
    fp_double(fp, "delays.input_delay", opt.delays.input_delay);
    fp_double(fp, "delays.output_delay", opt.delays.output_delay);
    fp_double(fp, "delays.internal_delay", opt.delays.internal_delay);
    fp += "delays.overrides=";
    for (const auto& [name, v] : opt.delays.overrides) {
        fp += name;
        fp += ':';
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g,", v);
        fp += buf;
    }
    fp += ';';
    return fp;
}

store_key key_of(std::string_view canonical_astg, std::string_view fingerprint) {
    std::string blob;
    blob.reserve(fingerprint.size() + 1 + canonical_astg.size());
    blob.append(fingerprint);
    blob.push_back('\0');
    blob.append(canonical_astg);
    return store_key{hash128_bytes(blob.data(), blob.size())};
}

store_key key_of(const stg& spec, const pipeline_options& opt) {
    return key_of(write_astg(spec), options_fingerprint(opt));
}

result_store::result_store() : c_(std::make_shared<counters>()) {}

result_store result_store::open(const std::string& dir) {
    result_store s;
    s.dir_ = dir;
    if (dir.empty()) {
        s.message_ = "store: empty directory name";
        return s;
    }
    if (!make_dir(dir) || !make_dir(dir + "/objects")) {
        s.message_ = "store: cannot create '" + dir + "': " + std::strerror(errno);
        return s;
    }
    // Store-level format check.  A foreign or future layout disables the
    // handle rather than guessing at the contents.
    const std::string format_path = dir + "/format";
    if (auto existing = read_file(format_path)) {
        if (*existing != store_format_line) {
            s.message_ = "store: '" + dir + "' has an unsupported format (" +
                         existing->substr(0, existing->find('\n')) + "); ignoring it";
            return s;
        }
    } else {
        const std::string tmp = format_path + ".tmp." + std::to_string(::getpid());
        std::ofstream out(tmp, std::ios::binary);
        out << store_format_line;
        out.close();
        if (!out || std::rename(tmp.c_str(), format_path.c_str()) != 0) {
            std::remove(tmp.c_str());
            s.message_ = "store: cannot initialise '" + dir + "'";
            return s;
        }
    }
    // The flock target; contents are irrelevant.
    const std::string lock_path = dir + "/lock";
    const int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) {
        s.message_ = "store: cannot create lock file in '" + dir + "'";
        return s;
    }
    ::close(fd);
    s.enabled_ = true;
    return s;
}

std::string result_store::object_path(const store_key& key) const {
    const std::string hex = key.hex();
    return dir_ + "/objects/" + hex.substr(0, 2) + "/" + hex.substr(2) + ".rec";
}

std::optional<stored_record> result_store::get(const store_key& key) const {
    if (!enabled_) {
        c_->misses.fetch_add(1, std::memory_order_relaxed);
        store_obs().misses.add();
        return std::nullopt;
    }
    const file_lock lock(dir_ + "/lock", LOCK_SH);
    auto text = read_file(object_path(key));
    if (!text) {
        c_->misses.fetch_add(1, std::memory_order_relaxed);
        store_obs().misses.add();
        return std::nullopt;
    }
    stored_record rec;
    switch (parse_record(*text, rec)) {
        case parse_status::ok:
            c_->hits.fetch_add(1, std::memory_order_relaxed);
            store_obs().hits.add();
            return rec;
        case parse_status::version_skew:
            c_->skew.fetch_add(1, std::memory_order_relaxed);
            store_obs().misses.add();
            return std::nullopt;
        case parse_status::corrupt: break;
    }
    // Corrupt record: a miss.  The caller's re-synthesis + put() will rename
    // a fresh record over it, healing the entry in place.
    c_->corrupt.fetch_add(1, std::memory_order_relaxed);
    store_obs().corrupt.add();
    store_obs().misses.add();
    return std::nullopt;
}

bool result_store::put(const store_key& key, const stored_record& rec) const {
    if (!enabled_) {
        c_->write_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    const std::string final_path = object_path(key);
    const std::string fanout = final_path.substr(0, final_path.find_last_of('/'));
    const std::string text = serialize_record(rec);
    // Unique temp name per (process, handle, call): concurrent writers of the
    // same key each rename their own complete file; last rename wins whole.
    const std::string tmp = fanout + "/.tmp-" + key.hex().substr(2) + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(c_->tmp_serial.fetch_add(1, std::memory_order_relaxed));
    const file_lock lock(dir_ + "/lock", LOCK_EX);
    auto fail = [&] {
        std::remove(tmp.c_str());
        c_->write_errors.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    if (!make_dir(fanout)) return fail();
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0) return fail();
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            ::close(fd);
            return fail();
        }
        off += static_cast<std::size_t>(n);
    }
    // Flush data before the rename publishes the name: after a crash the
    // record is either absent or complete, never a named-but-empty file.
    // close() must run even when fsync fails, or a degraded disk leaks one
    // fd per dropped put.
    const bool flushed = ::fsync(fd) == 0;
    if (::close(fd) != 0 || !flushed) return fail();
    // A put over an existing object heals it in place (version skew or a
    // corrupt record found by get()); counted under the exclusive lock, so
    // the existence check cannot race another writer's rename.
    const bool heal = ::access(final_path.c_str(), F_OK) == 0;
    if (std::rename(tmp.c_str(), final_path.c_str()) != 0) return fail();
    c_->writes.fetch_add(1, std::memory_order_relaxed);
    store_obs().writes.add();
    if (heal) store_obs().heals.add();
    return true;
}

store_stats result_store::stats() const {
    store_stats out;
    out.hits = c_->hits.load(std::memory_order_relaxed);
    out.misses = c_->misses.load(std::memory_order_relaxed);
    out.corrupt = c_->corrupt.load(std::memory_order_relaxed);
    out.version_skew = c_->skew.load(std::memory_order_relaxed);
    out.writes = c_->writes.load(std::memory_order_relaxed);
    out.write_errors = c_->write_errors.load(std::memory_order_relaxed);
    return out;
}

cached_run run_cached(const result_store& st, const std::optional<store_key>& key,
                      const stg& spec, const pipeline_options& opt, std::string fingerprint) {
    if (key)
        if (auto hit = st.get(*key)) return {std::move(*hit), true, false};
    const auto result = run_pipeline(spec, opt);
    cached_run out{record_of(result, std::move(fingerprint)), false, result.search.deadline_hit};
    // A failure or a deadline-cut search is retried next time, not replayed
    // from disk forever; a CSC "no circuit" verdict is cached -- the verdict
    // is the result.
    if (key && cacheable(result)) st.put(*key, out.record);
    return out;
}

}  // namespace asynth::store
