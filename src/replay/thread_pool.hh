/**
 * @file
 * A small work-stealing thread pool for the replay engine.
 *
 * Fixed worker count (default: COSMOS_THREADS environment variable,
 * else std::thread::hardware_concurrency). Each worker owns a deque;
 * it pops its own tasks LIFO and steals FIFO from siblings, so a
 * task tree submitted from inside a worker stays hot on that worker
 * while idle workers drain the oldest (typically largest) work.
 *
 * parallelFor() is the main entry point. The calling thread
 * participates in the loop and, while waiting for stragglers, helps
 * execute other queued tasks -- nested parallelFor from inside a
 * pool task therefore cannot deadlock.
 */

#ifndef COSMOS_REPLAY_THREAD_POOL_HH
#define COSMOS_REPLAY_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cosmos::replay
{

/** Fixed-size pool of worker threads with per-worker deques. */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * Utilization counters of one executor. Slots 0..size()-1 are the
     * workers; slot size() aggregates tasks run by outside threads
     * helping through parallelFor(). Across all slots, tasksRun sums
     * to exactly tasksSubmitted() once the pool is quiescent; the
     * per-slot split (and steals/idleWaits) depends on scheduling and
     * is *not* deterministic.
     */
    struct WorkerStats
    {
        std::uint64_t tasksRun = 0;
        /** Tasks taken from a sibling's deque rather than our own. */
        std::uint64_t steals = 0;
        /** Times the worker found every deque empty and blocked. */
        std::uint64_t idleWaits = 0;
    };

    /** @param threads worker count; 0 = defaultThreadCount(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains nothing: outstanding tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Queue one task. From a worker thread the task lands on that
     * worker's own deque (LIFO); from outside, deques are fed
     * round-robin.
     */
    void submit(Task task);

    /**
     * Run fn(0) .. fn(n-1) across the pool and the calling thread;
     * returns when all n calls have finished. The first exception
     * thrown by any call is rethrown here (the loop still runs to
     * completion).
     */
    void parallelFor(std::size_t n, std::function<void(std::size_t)> fn);

    /** Queue a callable and get a future for its result. */
    template <typename F>
    auto async(F f) -> std::future<decltype(f())>
    {
        using R = decltype(f());
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(f));
        std::future<R> future = task->get_future();
        submit([task] { (*task)(); });
        return future;
    }

    /** Cap on the worker count COSMOS_THREADS may request. */
    static constexpr unsigned max_threads = 256;

    /**
     * Resolved worker count: COSMOS_THREADS when set to a positive
     * integer (capped at max_threads), else hardware_concurrency
     * (min 1).
     */
    static unsigned defaultThreadCount();

    /** Total tasks ever handed to submit(). */
    std::uint64_t tasksSubmitted() const
    {
        return submitted_.load(std::memory_order_relaxed);
    }

    /** Snapshot of the size()+1 executor counters (see WorkerStats). */
    std::vector<WorkerStats> workerStats() const;

  private:
    /** WorkerStats with atomic fields: the external-helper slot is
     *  shared by arbitrarily many caller threads. */
    struct SlotCounters
    {
        std::atomic<std::uint64_t> tasksRun{0};
        std::atomic<std::uint64_t> steals{0};
        std::atomic<std::uint64_t> idleWaits{0};
    };

    void workerLoop(unsigned index);

    /** Pop-or-steal one queued task and run it. False if idle. */
    bool runOneTask();

    /** Must hold mutex_. Pops from own deque, else steals; sets
     *  @p stolen when the task came from a sibling's deque. */
    Task takeTask(unsigned self, bool &stolen);

    std::vector<std::deque<Task>> queues_;
    std::vector<std::thread> threads_;
    /** size() + 1 slots; the last belongs to external helpers. */
    std::vector<SlotCounters> counters_;
    std::atomic<std::uint64_t> submitted_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    unsigned nextQueue_ = 0; ///< round-robin cursor for outside submits
};

} // namespace cosmos::replay

#endif // COSMOS_REPLAY_THREAD_POOL_HH
