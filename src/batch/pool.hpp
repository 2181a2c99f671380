// Persistent work-stealing scheduler, shared by the batch engine (whole
// pipeline runs per task) and the incremental exploration engine's frontier
// expander (one candidate move per task).
//
// The pool spawns its workers once and reuses them across run() calls: the
// exploration engine dispatches several task batches per search level
// (apply, bound, score, derive), and constructing a fresh pool per batch --
// the original design -- spent more time in pthread_create than in the small
// batches themselves on deep searches.  Between batches the workers sleep on
// a condition variable keyed by a batch epoch.
//
// Each worker owns a deque seeded round-robin; it pops its own front and,
// when empty, steals from the back of the other queues.  Tasks never spawn
// tasks, so a worker that finds every queue empty retires to the gate and
// waits for the next epoch.  Mutex-per-queue keeps the implementation
// obviously correct; the tasks (~10 us for a move score up to ~s for a
// pipeline run) dwarf the lock cost.
//
// Determinism contract: run(tasks, body) invokes body(i) exactly once for
// every task index i in [0, tasks), from an unspecified worker at an
// unspecified time, and returns only after every invocation finished.
// Callers that write results into a preallocated slot per index (both
// current users) get jobs-independent output.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace asynth::batch {

/// The worker count a `jobs` setting asks for: 0 = all hardware cores.
[[nodiscard]] inline std::size_t resolve_jobs(std::size_t jobs) {
    return jobs != 0 ? jobs : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

class work_stealing_pool {
public:
    /// Spawns @p workers - 1 threads (the thread calling run() is worker 0).
    /// Worker threads register named trace tracks ("pool<instance>-w<id>"),
    /// so spans recorded inside tasks render as real per-thread tracks.
    explicit work_stealing_pool(std::size_t workers)
        : queues_(std::max<std::size_t>(1, workers)) {
        static std::atomic<std::uint32_t> instances{0};
        const std::uint32_t instance = instances.fetch_add(1, std::memory_order_relaxed);
        threads_.reserve(queues_.size() - 1);
        for (std::size_t w = 1; w < queues_.size(); ++w)
            threads_.emplace_back([this, instance, w] {
                obs::name_thread("pool" + std::to_string(instance) + "-w" + std::to_string(w));
                worker_loop(w);
            });
    }

    ~work_stealing_pool() {
        {
            std::lock_guard<std::mutex> lock(gate_m_);
            stop_ = true;
        }
        gate_cv_.notify_all();
        for (auto& t : threads_) t.join();
    }

    work_stealing_pool(const work_stealing_pool&) = delete;
    work_stealing_pool& operator=(const work_stealing_pool&) = delete;

    [[nodiscard]] std::size_t workers() const noexcept { return queues_.size(); }

    /// Runs @p body(task_index) for every index in [0, tasks) across all
    /// workers and returns when the whole batch has finished.  Must not be
    /// called from inside a task (tasks never spawn tasks).
    template <typename Body>
    void run(std::size_t tasks, Body&& body) {
        if (tasks == 0) return;
        std::function<void(std::size_t)> fn = std::ref(body);
        // The previous run() returned only once no worker was draining, so
        // seeding the queues here cannot hand a task to a straggler holding
        // the previous batch's (already destroyed) body.
        for (std::size_t i = 0; i < tasks; ++i)
            queues_[i % queues_.size()].items.push_back(i);
        {
            std::lock_guard<std::mutex> lock(gate_m_);
            body_ = &fn;
            remaining_.store(tasks, std::memory_order_relaxed);
            ++epoch_;
        }
        gate_cv_.notify_all();
        drain(0, fn);
        std::unique_lock<std::mutex> lock(gate_m_);
        done_cv_.wait(lock, [&] {
            return remaining_.load(std::memory_order_acquire) == 0 && draining_ == 0;
        });
        body_ = nullptr;
    }

private:
    struct queue {
        std::deque<std::size_t> items;
        std::mutex m;
    };

    void worker_loop(std::size_t self) {
        std::uint64_t seen = 0;
        for (;;) {
            const std::function<void(std::size_t)>* body = nullptr;
            {
                std::unique_lock<std::mutex> lock(gate_m_);
                gate_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
                if (stop_) return;
                seen = epoch_;
                // body_ is already null when this worker wakes after the
                // batch fully drained (run() returned); the queues are empty
                // then and the next wait re-arms on the epoch.
                body = body_;
                if (body) ++draining_;
            }
            if (!body) continue;
            drain(self, *body);
            {
                std::lock_guard<std::mutex> lock(gate_m_);
                --draining_;
            }
            done_cv_.notify_all();
        }
    }

    template <typename Fn>
    void drain(std::size_t self, Fn& body) {
        for (;;) {
            std::size_t task = 0;
            if (!pop_own(self, task) && !steal(self, task)) return;
            body(task);
            if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                std::lock_guard<std::mutex> lock(gate_m_);
                done_cv_.notify_all();
            }
        }
    }

    bool pop_own(std::size_t self, std::size_t& task) {
        queue& q = queues_[self];
        std::lock_guard<std::mutex> lock(q.m);
        if (q.items.empty()) return false;
        task = q.items.front();
        q.items.pop_front();
        return true;
    }

    bool steal(std::size_t self, std::size_t& task) {
        for (std::size_t off = 1; off < queues_.size(); ++off) {
            queue& q = queues_[(self + off) % queues_.size()];
            std::lock_guard<std::mutex> lock(q.m);
            if (q.items.empty()) continue;
            task = q.items.back();
            q.items.pop_back();
            return true;
        }
        return false;
    }

    std::vector<queue> queues_;
    std::vector<std::thread> threads_;

    std::mutex gate_m_;
    std::condition_variable gate_cv_;  ///< workers wait here between batches
    std::condition_variable done_cv_;  ///< run() waits here for the batch end
    const std::function<void(std::size_t)>* body_ = nullptr;
    std::atomic<std::size_t> remaining_{0};
    std::size_t draining_ = 0;  ///< workers currently inside drain()
    std::uint64_t epoch_ = 0;
    bool stop_ = false;
};

}  // namespace asynth::batch
