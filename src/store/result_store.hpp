// Content-addressed on-disk result store: synthesis outcomes keyed by *what
// was asked*, shared between processes and across runs.
//
// The key of a record is a 128-bit hash of
//
//     options_fingerprint(opt) + '\0' + canonical astg text of the spec
//
// where the canonical text is write_astg() output (a write∘parse fixpoint
// since PR 1, so a spec read from a file and the same spec re-written keep
// one identity) and the fingerprint enumerates every *result-affecting*
// pipeline option.  Knobs that are provably result-neutral -- the search
// engine, the minimizer mode, every jobs count -- are deliberately excluded,
// so a reference-engine run warms the cache for the incremental engine and
// vice versa.  The search deadline is excluded too: a deadline-cut run is
// never cached (store::cacheable), and a run the deadline did not cut is
// bit-identical to an undeadlined one, so every cached record is
// deadline-independent and a deadlined request may be served from it.
//
// Disk layout (DIR is the `--store` argument):
//
//   DIR/format                   "asynth-store v1\n" -- store-level version
//   DIR/lock                     flock() target guarding concurrent access
//   DIR/objects/<hh>/<hex30>.rec one record per key, git-style 2-char fanout
//
// Crash-safety and concurrency invariants (docs/SERVICE.md has the full
// argument):
//
//  * writes go to a unique temp file in the same directory, are flushed, and
//    are rename(2)d over the final path -- readers observe either the old
//    complete record or the new complete record, never a torn one, and a
//    writer killed at any instruction leaves at worst a stale temp file;
//  * concurrent access is additionally serialised through flock() on
//    DIR/lock (shared for get, exclusive for put), so the store is safe for
//    many readers + many writers across threads *and* processes;
//  * every get re-verifies the record's schema version and 128-bit payload
//    checksum (store/record.hpp); truncation, bit-flips and version skew
//    degrade to a miss -- the caller re-synthesises and put() heals the
//    entry -- and are counted apart in store_stats.
//
// A store that cannot be opened (unwritable directory, foreign format file)
// is *disabled*, not fatal: every get misses, every put is dropped, and
// message() says why -- callers keep working at cold-cache speed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "pipeline/pipeline.hpp"
#include "store/record.hpp"
#include "util/hash.hpp"

namespace asynth::store {

/// Content address of one (spec, options) pair.
struct store_key {
    hash128 h;
    /// 32-char lowercase hex form (the on-disk name).
    [[nodiscard]] std::string hex() const;
    [[nodiscard]] bool operator==(const store_key&) const noexcept = default;
};

/// Canonical text enumerating every result-affecting field of @p opt, in a
/// fixed order with round-trip double formatting.  Two option structs
/// fingerprint equally iff run_pipeline() provably computes the same result.
[[nodiscard]] std::string options_fingerprint(const pipeline_options& opt);

/// The content address of @p canonical_astg under @p fingerprint.
[[nodiscard]] store_key key_of(std::string_view canonical_astg, std::string_view fingerprint);

/// Convenience: canonicalise @p spec (write_astg) and fingerprint @p opt.
[[nodiscard]] store_key key_of(const stg& spec, const pipeline_options& opt);

/// Monotone counters of one store handle (process-local, thread-safe).
struct store_stats {
    std::uint64_t hits = 0;          ///< get() returned a record
    std::uint64_t misses = 0;        ///< no record on disk
    std::uint64_t corrupt = 0;       ///< record failed length/checksum (also a miss)
    std::uint64_t version_skew = 0;  ///< record of another schema (also a miss)
    std::uint64_t writes = 0;        ///< put() committed a record
    std::uint64_t write_errors = 0;  ///< put() dropped (I/O error or disabled)
    [[nodiscard]] std::uint64_t lookups() const {
        return hits + misses + corrupt + version_skew;
    }
};

/// Handle to one store directory.  Thread-safe: get/put open their own file
/// descriptors and the counters are atomic; share one handle freely across a
/// pool (the batch sweep and the service both do).  Handles are cheap to
/// copy; copies share one counter block.
class result_store {
public:
    /// A disabled store: get always misses, put always drops.
    result_store();

    /// Opens (creating if needed) the store at @p dir.  Never throws: on
    /// failure the returned handle is disabled and message() explains.
    [[nodiscard]] static result_store open(const std::string& dir);

    [[nodiscard]] bool enabled() const { return enabled_; }
    [[nodiscard]] const std::string& message() const { return message_; }
    [[nodiscard]] const std::string& dir() const { return dir_; }

    /// Looks @p key up.  Absent, corrupt and version-skewed records all
    /// return nullopt (and bump the matching counter) -- a miss is always a
    /// safe answer, the caller just re-synthesises.
    [[nodiscard]] std::optional<stored_record> get(const store_key& key) const;

    /// Commits @p rec under @p key (temp file + atomic rename, under the
    /// exclusive file lock).  Returns false when the write was dropped.
    bool put(const store_key& key, const stored_record& rec) const;

    [[nodiscard]] store_stats stats() const;

private:
    struct counters {
        std::atomic<std::uint64_t> hits{0}, misses{0}, corrupt{0}, skew{0}, writes{0},
            write_errors{0};
        std::atomic<std::uint64_t> tmp_serial{0};  ///< unique temp-file suffix
    };

    [[nodiscard]] std::string object_path(const store_key& key) const;

    std::string dir_;
    std::string message_;
    bool enabled_ = false;
    /// Heap block so handles stay copyable (atomics are not); copies share it.
    std::shared_ptr<counters> c_;
};

struct cached_run {
    stored_record record;
    bool hit = false;           ///< served from the store
    bool deadline_hit = false;  ///< a fresh run's search was cut (so it was not stored)
};

/// The store-backed run step of the batch sweep and the service: the record
/// under @p key when there is one (a hit), else run_pipeline(), whose result
/// is stored under @p key when cacheable().  No @p key: no store access.
[[nodiscard]] cached_run run_cached(const result_store& st, const std::optional<store_key>& key,
                                    const stg& spec, const pipeline_options& opt,
                                    std::string fingerprint);

}  // namespace asynth::store
