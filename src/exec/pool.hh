/**
 * @file
 * A small work-stealing thread pool for fanning independent study
 * cells out across cores, plus parallelFor, the fan-out-and-join the
 * study runners use. Only core, serve and tools hold a pool; model
 * kernels are serial, and parallelism lives across the independent
 * cells of a study.
 *
 * Each worker owns a deque: the owner pushes and pops at the back
 * (LIFO, cache-friendly for task trees) while idle workers steal from
 * the front of other workers' deques (FIFO, oldest-first). External
 * submissions are distributed round-robin across the worker deques.
 *
 * Tasks are wrapped in std::packaged_task, so exceptions thrown inside
 * a task are captured and rethrown from the corresponding future —
 * never on the worker thread itself.
 *
 * A pool constructed with zero threads runs every task inline on the
 * submitting thread at submit() time. This degenerate mode is what the
 * study runners use for `threads == 1`: the serial path is the same
 * code as the parallel path, which is how the determinism guarantee
 * (N-thread results bit-identical to 1-thread results) stays testable.
 */

#ifndef STACK3D_EXEC_POOL_HH
#define STACK3D_EXEC_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace stack3d {

namespace obs {
class CounterSet;
} // namespace obs

namespace exec {

/** Snapshot of a pool's activity counters (see ThreadPool::counters). */
struct PoolCounters
{
    std::uint64_t submitted = 0;       ///< tasks handed to submit()
    std::uint64_t inline_executed = 0; ///< ran inline (0-thread mode)
    std::uint64_t executed = 0;        ///< ran on a worker thread
    std::uint64_t stolen = 0;          ///< executed via work stealing
    std::uint64_t sleeps = 0;          ///< times a worker went idle
    std::uint64_t queue_high_water = 0; ///< deepest single deque seen
};

/** Work-stealing thread pool. */
class ThreadPool
{
  public:
    /**
     * @param num_threads worker threads to spawn; 0 means "inline
     *        mode" (tasks run on the submitting thread immediately).
     */
    explicit ThreadPool(unsigned num_threads);

    /** Joins after draining every task already submitted. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (0 in inline mode). */
    unsigned numThreads() const { return unsigned(_threads.size()); }

    /**
     * Submit a nullary callable; returns a future for its result.
     * In inline mode the callable runs before submit() returns.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F> &>>
    {
        using R = std::invoke_result_t<std::decay_t<F> &>;
        std::packaged_task<R()> task(std::forward<F>(fn));
        std::future<R> future = task.get_future();
        _n_submitted.fetch_add(1, std::memory_order_relaxed);
        if (_workers.empty()) {
            _n_inline.fetch_add(1, std::memory_order_relaxed);
            task();   // inline mode
            return future;
        }
        enqueue(Task(std::move(task)));
        return future;
    }

    /** Consistent-enough snapshot of the activity counters. */
    PoolCounters counters() const;

    /** Fold counters() into @p out under @p prefix ("pool."). */
    void appendCounters(obs::CounterSet &out,
                        const std::string &prefix = "pool.") const;

    /** std::thread::hardware_concurrency with a sane floor of 1. */
    static unsigned hardwareThreads();

  private:
    /** Type-erased move-only task (packaged_task<R()> wrapped). */
    class Task
    {
      public:
        Task() = default;

        template <typename R>
        explicit Task(std::packaged_task<R()> task)
            : _impl(std::make_unique<Model<R>>(std::move(task)))
        {
        }

        explicit operator bool() const { return bool(_impl); }
        void operator()() { _impl->run(); }

      private:
        struct Concept
        {
            virtual ~Concept() = default;
            virtual void run() = 0;
        };
        template <typename R>
        struct Model : Concept
        {
            explicit Model(std::packaged_task<R()> t)
                : task(std::move(t))
            {
            }
            void run() override { task(); }
            std::packaged_task<R()> task;
        };
        std::unique_ptr<Concept> _impl;
    };

    /** One worker's deque; the mutex only guards this deque. */
    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> deque;
    };

    void enqueue(Task task);
    void workerLoop(unsigned self);
    bool popOwn(unsigned self, Task &out);
    bool stealFromOthers(unsigned self, Task &out);
    bool anyQueued();

    std::vector<std::unique_ptr<Worker>> _workers;
    std::vector<std::thread> _threads;

    /** Guards sleeping/waking; queues have their own locks. */
    std::mutex _sleep_mutex;
    std::condition_variable _wakeup;
    bool _stopping = false;

    /** Round-robin cursor for external submissions. */
    std::atomic<std::size_t> _next_worker{0};

    // Activity counters (relaxed; read via counters()).
    std::atomic<std::uint64_t> _n_submitted{0};
    std::atomic<std::uint64_t> _n_inline{0};
    std::atomic<std::uint64_t> _n_executed{0};
    std::atomic<std::uint64_t> _n_stolen{0};
    std::atomic<std::uint64_t> _n_sleeps{0};
    std::atomic<std::uint64_t> _queue_high_water{0};
};

/**
 * Run fn(0) .. fn(n-1) on the pool and wait for all of them.
 * With an inline-mode pool this is exactly a serial for-loop in index
 * order; with workers the iterations run concurrently.
 *
 * Every task is waited for before anything is rethrown: tasks write
 * caller-owned result slots, so unwinding while siblings still run
 * would hand them dangling references. When several tasks fail, the
 * exception of the lowest failing index wins, independent of which
 * thread happened to fail first.
 */
template <typename F>
void
parallelFor(ThreadPool &pool, std::size_t n, F &&fn)
{
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futures.push_back(pool.submit([&fn, i] { fn(i); }));
    std::exception_ptr first_error;
    for (std::future<void> &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace exec
} // namespace stack3d

#endif // STACK3D_EXEC_POOL_HH
