#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>

namespace atm::exec {

ThreadPool::ThreadPool(unsigned threads) {
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0) threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    size_.store(threads, std::memory_order_release);
}

void ThreadPool::grow(unsigned threads) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    while (workers_.size() < threads) {
        workers_.emplace_back([this] { worker_loop(); });
    }
    size_.store(static_cast<unsigned>(workers_.size()),
                std::memory_order_release);
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(lock,
                                 [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++running_;
        }
        task();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --running_;
            if (queue_.empty() && running_ == 0) idle_.notify_all();
        }
    }
}

ThreadPool& shared_pool(unsigned min_helpers) {
    if (min_helpers == 0) min_helpers = 1;
    static ThreadPool pool(min_helpers);
    if (pool.size() < min_helpers) pool.grow(min_helpers);
    return pool;
}

std::size_t resolve_shard_size(std::size_t n, unsigned workers) {
    if (n == 0) return 1;
    if (workers == 0) workers = 1;
    // ~8 shards per worker balances stragglers (a worker stuck on a slow
    // box strands at most 1/8 of its share) while keeping claims rare;
    // capped so tiny fleets still produce one shard per worker.
    const std::size_t target = n / (std::size_t{8} * workers);
    return std::clamp<std::size_t>(target, 1, 64);
}

namespace {

/// Shared state of one parallel_for_each call. Heap-allocated and owned
/// jointly by the caller and every helper task: a helper that only gets
/// scheduled after the caller has already drained the index space (the
/// nested-call scenario — all workers busy with outer tasks) must still
/// find the state alive, see the cursor exhausted, and exit as a no-op.
struct LoopState {
    std::function<void(unsigned, std::size_t)> fn;
    std::size_t n = 0;
    std::size_t shard = 1;
    std::size_t num_shards = 0;
    std::atomic<std::size_t> next_shard{0};
    std::atomic<std::size_t> completed{0};
    /// Lowest index that has thrown so far (SIZE_MAX while none has). The
    /// caller must see the *first trace-order* exception regardless of
    /// scheduling, so later throwers are demoted, not first-come-first-kept.
    std::atomic<std::size_t> error_index{SIZE_MAX};
    std::exception_ptr error;  ///< guarded by error_mutex
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;

    void drain(unsigned worker) {
        for (;;) {
            const std::size_t s = next_shard.fetch_add(1);
            if (s >= num_shards) return;
            run_shard(worker, s);
        }
    }

    /// Runs one shard. Every index bumps `completed` exactly once — even
    /// when skipped after a failure — so `completed == n` means no fn
    /// invocation is still in flight.
    ///
    /// Determinism: fn(i) is skipped only when some index below i has
    /// already thrown. Hence every index below the minimal throwing index
    /// always runs, that minimal thrower itself always runs, and its
    /// exception — having the lowest index — is the one retained. The
    /// delivered exception is therefore a pure function of fn,
    /// independent of worker count, shard size and scheduling.
    void run_shard(unsigned worker, std::size_t s) {
        const std::size_t begin = s * shard;
        const std::size_t end = std::min(n, begin + shard);
        for (std::size_t i = begin; i < end; ++i) {
            if (i < error_index.load(std::memory_order_acquire)) {
                try {
                    fn(worker, i);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (i < error_index.load(std::memory_order_relaxed)) {
                        error_index.store(i, std::memory_order_release);
                        error = std::current_exception();
                    }
                }
            }
        }
        const std::size_t done = end - begin;
        if (completed.fetch_add(done) + done == n) {
            const std::lock_guard<std::mutex> lock(done_mutex);
            done_cv.notify_all();
        }
    }
};

}  // namespace

void parallel_for_each(ThreadPool* pool, std::size_t n, unsigned workers,
                       const std::function<void(unsigned, std::size_t)>& fn) {
    if (n == 0) return;
    if (workers == 0) workers = (pool == nullptr ? 0 : pool->size()) + 1;
    if (pool == nullptr || workers == 1 || n == 1) {
        // Serial: ascending order means the first exception is already the
        // lowest-index one; let it propagate directly.
        for (std::size_t i = 0; i < n; ++i) fn(0, i);
        return;
    }

    auto state = std::make_shared<LoopState>();
    state->fn = fn;
    state->n = n;
    state->shard = resolve_shard_size(n, workers);
    state->num_shards = (n + state->shard - 1) / state->shard;

    // The caller claims the first shard before any helper exists, so it
    // participates even when the helpers would otherwise drain every
    // shard before it gets to claim one. Worker ids are handed out here,
    // not claimed inside the task: id h+1 belongs to helper h even if it
    // never runs, so ids stay dense in [0, workers).
    const std::size_t first = state->next_shard.fetch_add(1);
    const std::size_t helpers =
        std::min<std::size_t>(workers - 1, state->num_shards - 1);
    for (std::size_t h = 0; h < helpers; ++h) {
        const auto worker = static_cast<unsigned>(h + 1);
        pool->submit([state, worker] { state->drain(worker); });
    }

    state->run_shard(0, first);
    state->drain(0);
    {
        std::unique_lock<std::mutex> lock(state->done_mutex);
        state->done_cv.wait(
            lock, [&state] { return state->completed.load() == state->n; });
    }
    // Take the exception out of the shared state before rethrowing: the
    // last owner of `state` may be a helper thread, and it must not free
    // the exception while the caller's handler is still reading it.
    std::exception_ptr error;
    {
        const std::lock_guard<std::mutex> lock(state->error_mutex);
        error = std::move(state->error);
    }
    if (error) std::rethrow_exception(error);
}

}  // namespace atm::exec
