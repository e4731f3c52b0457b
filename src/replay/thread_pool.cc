#include "replay/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/log.hh"

namespace cosmos::replay
{

namespace
{

/** Pool and worker index of the current thread, if it is a worker. */
thread_local const ThreadPool *tls_pool = nullptr;
thread_local unsigned tls_worker = 0;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    threads = std::max(threads, 1u);
    queues_.resize(threads);
    counters_ = std::vector<SlotCounters>(threads + 1);
    threads_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> guard(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

unsigned
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("COSMOS_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && v > 0)
            return static_cast<unsigned>(
                std::min(v, static_cast<long>(max_threads)));
        cosmos_warn("ignoring invalid COSMOS_THREADS value \"", env,
                    "\"");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<ThreadPool::WorkerStats>
ThreadPool::workerStats() const
{
    std::vector<WorkerStats> out(counters_.size());
    for (std::size_t i = 0; i < counters_.size(); ++i) {
        out[i].tasksRun =
            counters_[i].tasksRun.load(std::memory_order_relaxed);
        out[i].steals =
            counters_[i].steals.load(std::memory_order_relaxed);
        out[i].idleWaits =
            counters_[i].idleWaits.load(std::memory_order_relaxed);
    }
    return out;
}

void
ThreadPool::submit(Task task)
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (tls_pool == this) {
            queues_[tls_worker].push_back(std::move(task));
        } else {
            queues_[nextQueue_].push_back(std::move(task));
            nextQueue_ = (nextQueue_ + 1) % queues_.size();
        }
    }
    cv_.notify_one();
}

ThreadPool::Task
ThreadPool::takeTask(unsigned self, bool &stolen)
{
    stolen = false;
    // Own deque first, newest task (LIFO keeps task trees local)...
    if (self < queues_.size() && !queues_[self].empty()) {
        Task t = std::move(queues_[self].back());
        queues_[self].pop_back();
        return t;
    }
    // ... then steal the oldest task from a sibling (FIFO).
    for (std::size_t i = 0; i < queues_.size(); ++i) {
        auto &q = queues_[(self + 1 + i) % queues_.size()];
        if (!q.empty()) {
            Task t = std::move(q.front());
            q.pop_front();
            stolen = true;
            return t;
        }
    }
    return nullptr;
}

void
ThreadPool::workerLoop(unsigned index)
{
    tls_pool = this;
    tls_worker = index;
    SlotCounters &mine = counters_[index];
    for (;;) {
        Task task;
        bool stolen = false;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if ((task = takeTask(index, stolen)) == nullptr && !stop_) {
                mine.idleWaits.fetch_add(1,
                                         std::memory_order_relaxed);
                cv_.wait(lock, [&] {
                    return stop_ ||
                           (task = takeTask(index, stolen)) != nullptr;
                });
            }
            if (!task && stop_)
                return;
        }
        if (stolen)
            mine.steals.fetch_add(1, std::memory_order_relaxed);
        // Count before running: once a task's effects are visible,
        // so is its tasksRun tick (tests sum the counters at
        // quiescence detected through the tasks' own side effects).
        mine.tasksRun.fetch_add(1, std::memory_order_relaxed);
        task();
    }
}

bool
ThreadPool::runOneTask()
{
    Task task;
    bool stolen = false;
    const unsigned self = tls_pool == this
                              ? tls_worker
                              : static_cast<unsigned>(queues_.size());
    {
        std::lock_guard<std::mutex> guard(mutex_);
        task = takeTask(self, stolen);
    }
    if (!task)
        return false;
    SlotCounters &slot = counters_[self];
    if (stolen && self < queues_.size())
        slot.steals.fetch_add(1, std::memory_order_relaxed);
    slot.tasksRun.fetch_add(1, std::memory_order_relaxed);
    task();
    return true;
}

void
ThreadPool::parallelFor(std::size_t n,
                        std::function<void(std::size_t)> fn)
{
    if (n == 0)
        return;
    if (n == 1) {
        fn(0);
        return;
    }

    struct LoopState
    {
        std::function<void(std::size_t)> fn;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable done_cv;
        std::size_t done = 0;
        std::exception_ptr error;
    };
    auto state = std::make_shared<LoopState>();
    state->fn = std::move(fn);
    state->n = n;

    auto drain = [state] {
        for (;;) {
            const std::size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= state->n)
                return;
            try {
                state->fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> guard(state->mutex);
                if (!state->error)
                    state->error = std::current_exception();
            }
            std::lock_guard<std::mutex> guard(state->mutex);
            if (++state->done == state->n)
                state->done_cv.notify_all();
        }
    };

    // One helper per worker (but no more than there are iterations);
    // a helper that starts after every index is claimed exits
    // immediately.
    const std::size_t helpers = std::min<std::size_t>(size(), n - 1);
    for (std::size_t i = 0; i < helpers; ++i)
        submit(drain);

    // The calling thread participates...
    drain();

    // ... and helps with unrelated queued work while stragglers run
    // (so a nested parallelFor inside a pool task cannot deadlock).
    std::unique_lock<std::mutex> lock(state->mutex);
    while (state->done < state->n) {
        lock.unlock();
        const bool helped = runOneTask();
        lock.lock();
        if (!helped && state->done < state->n) {
            state->done_cv.wait_for(lock,
                                    std::chrono::milliseconds(1), [&] {
                                        return state->done == state->n;
                                    });
        }
    }
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace cosmos::replay
