// ThreadPool under contention: oversubscribed concurrent submits,
// exceptions thrown from jobs, destruction with queued work, and the
// single-lane inline degenerate case — previously only exercised
// indirectly through the drive loop.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"

namespace baco {
namespace {

TEST(ThreadPoolContention, OversubscribedConcurrentSubmitsAllRun)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};

    // Many producers hammering submit() concurrently, far more tasks
    // than lanes: every task must run exactly once.
    std::vector<std::thread> producers;
    const int kProducers = 8;
    const int kPerProducer = 250;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
            for (int i = 0; i < kPerProducer; ++i)
                pool.submit([&count] { count.fetch_add(1); });
        });
    }
    for (std::thread& t : producers)
        t.join();
    pool.wait_idle();
    EXPECT_EQ(count.load(), kProducers * kPerProducer);

    // The pool stays usable for barrier batches afterwards.
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 20; ++i)
        tasks.push_back([&count] { count.fetch_add(1); });
    pool.run(std::move(tasks));
    EXPECT_EQ(count.load(), kProducers * kPerProducer + 20);
}

TEST(ThreadPoolContention, RunRethrowsFirstJobExceptionAndStaysUsable)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.push_back([&count, i] {
            if (i == 7)
                throw std::runtime_error("job failed");
            count.fetch_add(1);
        });
    }
    EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
    // The batch drained (31 healthy jobs all ran despite the throw).
    EXPECT_EQ(count.load(), 31);

    // No sticky error: the next batch completes cleanly.
    std::vector<std::function<void()>> next;
    for (int i = 0; i < 16; ++i)
        next.push_back([&count] { count.fetch_add(1); });
    pool.run(std::move(next));
    EXPECT_EQ(count.load(), 31 + 16);
}

TEST(ThreadPoolContention, WaitIdleRethrowsSubmittedJobException)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&count, i] {
            if (i == 3)
                throw std::runtime_error("submitted job failed");
            count.fetch_add(1);
        });
    }
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    EXPECT_EQ(count.load(), 7);
    // The error was consumed; a clean wait follows.
    pool.wait_idle();
}

TEST(ThreadPoolContention, DestructionDrainsQueuedSubmits)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        // Slow tasks pile up in the queues; the destructor must drain
        // them (every submitted task runs), not drop them.
        for (int i = 0; i < 48; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(300));
                count.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(count.load(), 48);
}

TEST(ThreadPoolContention, SingleLanePoolRunsSubmitsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    int count = 0;  // no atomic needed: inline means caller-thread
    pool.submit([&count] { ++count; });
    EXPECT_EQ(count, 1);  // already ran when submit() returned
    pool.wait_idle();
    EXPECT_EQ(count, 1);
}

TEST(ThreadPoolContention, QueueDepthAndBusyWorkersObserveLoad)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.queue_depth(), 0);
    EXPECT_EQ(pool.busy_workers(), 0);

    // Park every worker lane on a latch, then pile up queued work:
    // queue_depth() must see the backlog and busy_workers() the parked
    // lanes. (The caller lane is not parked — submit() never runs
    // inline on a multi-lane pool.)
    std::atomic<bool> release{false};
    std::atomic<int> parked{0};
    const int kWorkers = 2;  // pool size 3 = 2 workers + caller lane
    for (int i = 0; i < kWorkers; ++i) {
        pool.submit([&] {
            parked.fetch_add(1);
            while (!release.load())
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
    }
    while (parked.load() < kWorkers)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    EXPECT_EQ(pool.busy_workers(), kWorkers);

    const int kQueued = 10;
    std::atomic<int> ran{0};
    for (int i = 0; i < kQueued; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    // Both blockers are mid-task, so everything else is still queued.
    EXPECT_EQ(pool.queue_depth(), kQueued);

    release.store(true);
    pool.wait_idle();
    EXPECT_EQ(ran.load(), kQueued);
    EXPECT_EQ(pool.queue_depth(), 0);
    EXPECT_EQ(pool.busy_workers(), 0);
}

TEST(ThreadPoolContention, BusyWorkersCountsCallerInsideRun)
{
    ThreadPool pool(2);
    std::atomic<int> peak{0};
    std::vector<std::function<void()>> tasks;
    // Until the overlap has been seen, each task holds its lane until the
    // other lane is inside execute() too (or a shared deadline passes), so
    // the check does not depend on how soon a loaded machine schedules
    // the worker thread.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (int i = 0; i < 16; ++i) {
        tasks.push_back([&] {
            int busy = pool.busy_workers();
            while (busy < 2 && peak.load() < 2 &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
                busy = pool.busy_workers();
            }
            int prev = peak.load();
            while (busy > prev &&
                   !peak.compare_exchange_weak(prev, busy)) {
            }
        });
    }
    pool.run(std::move(tasks));
    // run() has the caller participate, so with enough tasks both lanes
    // are inside execute() at once at some point.
    EXPECT_GE(peak.load(), 2);
    EXPECT_LE(peak.load(), pool.size());
    EXPECT_EQ(pool.busy_workers(), 0);
}

TEST(ThreadPoolContention, SubmitsAndRunBatchesInterleave)
{
    ThreadPool pool(4);
    std::atomic<int> background{0};
    std::atomic<int> batch{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&background] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            background.fetch_add(1);
        });
    }
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 32; ++i)
        tasks.push_back([&batch] { batch.fetch_add(1); });
    // run() barriers on everything outstanding, submits included.
    pool.run(std::move(tasks));
    EXPECT_EQ(batch.load(), 32);
    EXPECT_EQ(background.load(), 64);
}

}  // namespace
}  // namespace baco
