#include "util/thread_pool.hpp"

#include "obs/metrics.hpp"

namespace relb::util {

namespace {
thread_local bool tlsInsideWorker = false;
}  // namespace

int resolveThreadCount(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool insideWorker() { return tlsInsideWorker; }

ThreadPool::ThreadPool(int numThreads, obs::Registry& registry)
    : batchesCounter_(registry.counter("pool.batches")),
      itemsCounter_(registry.counter("pool.items")),
      concurrencyGauge_(registry.gauge("pool.concurrency")),
      activeGauge_(registry.gauge("pool.active")),
      maxBatchGauge_(registry.gauge("pool.max_batch")) {
  std::lock_guard<std::mutex> lock(mutex_);
  spawnWorkersLocked(resolveThreadCount(numThreads) - 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  hasWork_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::concurrency() {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size()) + 1;
}

void ThreadPool::ensureConcurrency(int threads) {
  // Taking batchMutex_ keeps worker spawning out of any in-flight batch.
  std::lock_guard<std::mutex> batch(batchMutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  const int want = threads - 1 - static_cast<int>(workers_.size());
  if (want > 0) spawnWorkersLocked(want);
}

void ThreadPool::spawnWorkersLocked(int count) {
  workers_.reserve(workers_.size() + static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  concurrencyGauge_.setMax(static_cast<std::int64_t>(workers_.size()) + 1);
}

void ThreadPool::runItems(const std::function<void(std::size_t)>* fn,
                          std::size_t n) {
  // `fn` is the live batch's job: a worker joins a batch only while job_ is
  // set, and the caller clears job_ only after every joined worker has left.
  // A worker that wakes after its batch drained must not get here -- by the
  // time it runs, the next batch may have reset nextIndex_ to 0, and it
  // would claim that batch's items through a stale `fn` and `n`.
  for (;;) {
    const std::size_t i = nextIndex_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      (*fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!firstError_) firstError_ = std::current_exception();
      nextIndex_.store(n, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::workerLoop() {
  tlsInsideWorker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    hasWork_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (job_ == nullptr) continue;  // woke after the batch drained
    const auto* job = job_;
    const std::size_t n = jobSize_;
    ++running_;
    activeGauge_.setMax(running_ + 1);  // +1: the participating caller
    lock.unlock();
    runItems(job, n);
    lock.lock();
    if (--running_ == 0) batchDone_.notify_all();
  }
}

void ThreadPool::forEachIndex(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  bool noWorkers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    noWorkers = workers_.empty();
  }
  if (noWorkers || n == 1 || insideWorker()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> batch(batchMutex_);
  batchesCounter_.add();
  itemsCounter_.add(n);
  maxBatchGauge_.setMax(static_cast<std::int64_t>(n));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    jobSize_ = n;
    nextIndex_.store(0, std::memory_order_relaxed);
    firstError_ = nullptr;
    ++generation_;
  }
  hasWork_.notify_all();
  // The caller participates as an extra lane.  It is marked as a worker for
  // the duration so that nested parallel sections issued from its items run
  // inline instead of re-entering the (already held) batch mutex.
  tlsInsideWorker = true;
  runItems(&fn, n);
  tlsInsideWorker = false;
  std::unique_lock<std::mutex> lock(mutex_);
  batchDone_.wait(lock, [&] { return running_ == 0; });
  job_ = nullptr;
  if (firstError_) {
    std::exception_ptr error = firstError_;
    firstError_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace relb::util
