#include "pool.hh"

#include <chrono>
#include <thread>

#include "common/fault.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stack3d {
namespace exec {

ThreadPool::ThreadPool(unsigned num_threads)
{
    _workers.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        _workers.push_back(std::make_unique<Worker>());
    _threads.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_sleep_mutex);
        _stopping = true;
    }
    _wakeup.notify_all();
    for (std::thread &t : _threads)
        t.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

void
ThreadPool::enqueue(Task task)
{
    std::size_t i =
        _next_worker.fetch_add(1, std::memory_order_relaxed) %
        _workers.size();
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(_workers[i]->mutex);
        _workers[i]->deque.push_back(std::move(task));
        depth = _workers[i]->deque.size();
    }
    std::uint64_t seen =
        _queue_high_water.load(std::memory_order_relaxed);
    while (depth > seen &&
           !_queue_high_water.compare_exchange_weak(
               seen, depth, std::memory_order_relaxed))
        ;
    // Lock/unlock pairs the push with the sleeper's predicate check so
    // a worker can never miss the wakeup for a task it failed to see.
    {
        std::lock_guard<std::mutex> lock(_sleep_mutex);
    }
    _wakeup.notify_one();
}

bool
ThreadPool::popOwn(unsigned self, Task &out)
{
    Worker &w = *_workers[self];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.deque.empty())
        return false;
    out = std::move(w.deque.back());
    w.deque.pop_back();
    return true;
}

bool
ThreadPool::stealFromOthers(unsigned self, Task &out)
{
    const std::size_t n = _workers.size();
    for (std::size_t k = 1; k < n; ++k) {
        Worker &victim = *_workers[(self + k) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.deque.empty())
            continue;
        out = std::move(victim.deque.front());
        victim.deque.pop_front();
        return true;
    }
    return false;
}

bool
ThreadPool::anyQueued()
{
    for (auto &w : _workers) {
        std::lock_guard<std::mutex> lock(w->mutex);
        if (!w->deque.empty())
            return true;
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        Task task;
        bool stole = false;
        if (popOwn(self, task) ||
            (stole = stealFromOthers(self, task))) {
            _n_executed.fetch_add(1, std::memory_order_relaxed);
            if (stole) {
                _n_stolen.fetch_add(1, std::memory_order_relaxed);
                obs::instant("pool.steal", "exec");
            }
            // Chaos hook: stall a task as a wedged worker would,
            // without changing what the task computes.
            if (unsigned stall_ms = S3D_FAULT_DELAY("exec.task.slow"))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(stall_ms));
            obs::Span span("pool.task", "exec");
            task();
            continue;
        }
        _n_sleeps.fetch_add(1, std::memory_order_relaxed);
        obs::Span idle("pool.idle", "exec");
        std::unique_lock<std::mutex> lock(_sleep_mutex);
        if (_stopping && !anyQueued())
            return;
        _wakeup.wait(lock,
                     [this] { return _stopping || anyQueued(); });
        if (_stopping && !anyQueued())
            return;
    }
}

PoolCounters
ThreadPool::counters() const
{
    PoolCounters c;
    c.submitted = _n_submitted.load(std::memory_order_relaxed);
    c.inline_executed = _n_inline.load(std::memory_order_relaxed);
    c.executed = _n_executed.load(std::memory_order_relaxed);
    c.stolen = _n_stolen.load(std::memory_order_relaxed);
    c.sleeps = _n_sleeps.load(std::memory_order_relaxed);
    c.queue_high_water =
        _queue_high_water.load(std::memory_order_relaxed);
    return c;
}

void
ThreadPool::appendCounters(obs::CounterSet &out,
                           const std::string &prefix) const
{
    PoolCounters c = counters();
    out.set(prefix + "threads", double(numThreads()));
    out.set(prefix + "submitted", double(c.submitted));
    out.set(prefix + "inline_executed", double(c.inline_executed));
    out.set(prefix + "executed", double(c.executed));
    out.set(prefix + "stolen", double(c.stolen));
    out.set(prefix + "sleeps", double(c.sleeps));
    out.set(prefix + "queue_high_water",
            double(c.queue_high_water));
}

} // namespace exec
} // namespace stack3d
