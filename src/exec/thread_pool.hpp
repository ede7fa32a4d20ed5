#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace atm::exec {

/// Fixed-size thread pool with a FIFO work queue.
///
/// Built for the fleet driver's batch shape — many independent per-box
/// tasks — rather than general task graphs: tasks must not block waiting
/// for other pool tasks (use `parallel_for_each`, whose caller participates
/// in the work, for nested parallelism). Submission order is the order
/// tasks are *started* in; with one worker this is strict FIFO execution.
///
/// The destructor drains the queue: all submitted tasks run before the
/// workers join (shutdown never drops work).
class ThreadPool {
public:
    /// `threads == 0` uses std::thread::hardware_concurrency() (at least 1).
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads. Safe to call concurrently with grow().
    [[nodiscard]] unsigned size() const {
        return size_.load(std::memory_order_acquire);
    }

    /// Adds workers until the pool has at least `threads` of them. Never
    /// shrinks — a persistent pool (see `shared_pool`) only ratchets up to
    /// the largest --jobs seen. Safe to call while tasks are running.
    void grow(unsigned threads);

    /// Enqueues a task. The task must not throw (wrap work that can throw —
    /// `parallel_for_each` does, capturing the lowest-index exception).
    void submit(std::function<void()> task);

    /// Blocks until the queue is empty and no task is executing.
    void wait_idle();

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;  // guarded by mutex_
    std::atomic<unsigned> size_{0};
    std::size_t running_ = 0;
    bool stopping_ = false;
};

/// Process-wide persistent thread pool for fleet runs. Constructed on
/// first use and grown (never shrunk) to satisfy the largest
/// `min_helpers` seen, so repeated fleet runs — benches sweeping --jobs,
/// resumed checkpoints, CLI invocations in one process — reuse warm
/// threads instead of paying a spawn/join cycle per run.
ThreadPool& shared_pool(unsigned min_helpers);

/// The shard size parallel_for_each uses for `n` indices on `workers`
/// workers: ~8 shards per worker, clamped to [1, 64]. Exposed so the
/// fleet driver can report it.
std::size_t resolve_shard_size(std::size_t n, unsigned workers);

/// Runs `fn(worker, 0) .. fn(worker, n-1)` on up to `workers` workers
/// (0 = pool size + 1), partitioning the index space into contiguous
/// shards of `resolve_shard_size` indices claimed from a single atomic
/// cursor. Each claimant drains its whole shard before claiming another,
/// so a worker touches long contiguous runs of indices (cache-friendly
/// when indices map to adjacent trace boxes).
///
/// `worker` is a dense id in [0, workers): the calling thread is always
/// worker 0 and participates fully — it claims the first shard before any
/// helper is submitted, so the call completes even when the pool is
/// saturated (safe to nest from inside another pool task). Pool helpers
/// get ids 1..workers-1. A null pool or `workers == 1` runs serially, in
/// index order, on the caller. The id is meant to key per-worker
/// workspaces; results must not depend on which worker ran an index.
///
/// Exception safety: the lowest-index exception is rethrown on the caller
/// after all in-flight invocations finish, independent of scheduling;
/// indices above a thrown one may be skipped.
///
/// Any writes `fn` makes must be to disjoint, index-owned locations (the
/// per-box result slot pattern); determinism must come from index-derived
/// state, never from shared mutable state.
void parallel_for_each(ThreadPool* pool, std::size_t n, unsigned workers,
                       const std::function<void(unsigned, std::size_t)>& fn);

}  // namespace atm::exec
