/**
 * @file
 * Tests for the stack3d::exec work-stealing pool and parallelFor:
 * inline-mode ordering, exception propagation, graceful shutdown,
 * stealing under imbalance, and the wait-all, first-index-wins
 * failure rule.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/pool.hh"

using namespace stack3d;
using exec::ThreadPool;

TEST(ThreadPool, SubmitReturnsValue)
{
    ThreadPool pool(2);
    auto f = pool.submit([] { return 42; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, InlineModeRunsOnCallerInOrder)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 0u);

    std::vector<int> order;
    std::thread::id caller = std::this_thread::get_id();
    for (int i = 0; i < 8; ++i) {
        auto f = pool.submit([&order, i, caller] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
        // Inline mode executes before submit() returns.
        EXPECT_TRUE(f.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready);
    }
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ManyTasksAllRun)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        exec::parallelFor(pool, 500, [&count](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        // relaxed everywhere in these tests: parallelFor's wait and
        // join provide the synchronization; the atomics only need a
        // tally.
        EXPECT_EQ(count.load(std::memory_order_relaxed), 500);
    }
}

TEST(ThreadPool, WorkDistributesAcrossThreads)
{
    // With several workers and slow-ish tasks, more than one thread
    // must participate (exercises the stealing path: round-robin
    // placement plus idle workers stealing the stragglers).
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> seen;
    exec::parallelFor(pool, 64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(std::this_thread::get_id());
    });
    EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(
        {
            try {
                f.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "boom");
                throw;
            }
        },
        std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                count.fetch_add(1, std::memory_order_relaxed);
            });
        }
        // Destructor must finish everything already submitted.
    }
    EXPECT_EQ(count.load(std::memory_order_relaxed), 100);
}

TEST(ParallelFor, FirstFailingIndexWinsAfterAllFinish)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        exec::parallelFor(pool, 16, [&completed](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("first");
            if (i == 11)
                throw std::logic_error("second");
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
    // Every non-throwing sibling ran to completion before the rethrow.
    EXPECT_EQ(completed.load(std::memory_order_relaxed), 14);
}

TEST(ParallelFor, CoversFullRangeOnceEach)
{
    for (unsigned threads : {0u, 1u, 4u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(257);
        exec::parallelFor(pool, hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}
