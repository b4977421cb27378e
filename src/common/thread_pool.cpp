#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lifta {

namespace {

// Pool whose task body the calling thread is currently executing (nullptr
// outside any parallel region). Used to detect re-entrant submissions, which
// must not recurse into the scheduler the thread is already serving.
thread_local const ThreadPool* tlActivePool = nullptr;

struct ActivePoolGuard {
  const ThreadPool* saved;
  explicit ActivePoolGuard(const ThreadPool* pool) : saved(tlActivePool) {
    tlActivePool = pool;
  }
  ~ActivePoolGuard() { tlActivePool = saved; }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every dispatch, so spawn threads-1
  // workers.
  const std::size_t numWorkers = threads - 1;
  deques_.reserve(numWorkers);
  for (std::size_t i = 0; i < numWorkers; ++i) {
    deques_.emplace_back(new WorkerDeque());
  }
  workers_.reserve(numWorkers);
  for (std::size_t i = 0; i < numWorkers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleepMu_);
    stop_ = true;
    stopFlag_.store(true, std::memory_order_relaxed);
  }
  cvWork_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::insideParallelRegion() const noexcept {
  return tlActivePool == this;
}

void ThreadPool::enqueueReady(const TaskRef& ref, std::size_t self) {
  if (self != kExternalSlot) {
    // Owner pushes to the back of its own deque; it will pop the back next,
    // so a chain of dependent tasks stays on one core.
    WorkerDeque& d = *deques_[self];
    std::lock_guard<std::mutex> lock(d.mu);
    d.q.push_back(ref);
  } else {
    std::lock_guard<std::mutex> lock(injectMu_);
    inject_.push_back(ref);
  }
  readyCount_.fetch_add(1);
  if (sleeperCount_.load() > 0) {
    // Take sleepMu_ so the notify cannot slip between a sleeper's predicate
    // check and its wait.
    std::lock_guard<std::mutex> lock(sleepMu_);
    cvWork_.notify_all();
  }
}

bool ThreadPool::findWork(std::size_t self, TaskRef& out) {
  if (readyCount_.load() == 0) return false;
  if (self != kExternalSlot) {
    // 1. Own deque, newest first.
    {
      WorkerDeque& d = *deques_[self];
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) {
        out = d.q.back();
        d.q.pop_back();
        readyCount_.fetch_sub(1);
        return true;
      }
    }
    // 2. Steal the oldest task from another worker, scanning from a
    //    self-dependent offset so thieves spread across victims.
    const std::size_t n = deques_.size();
    for (std::size_t k = 1; k < n; ++k) {
      WorkerDeque& d = *deques_[(self + k) % n];
      std::lock_guard<std::mutex> lock(d.mu);
      if (!d.q.empty()) {
        out = d.q.front();
        d.q.pop_front();
        readyCount_.fetch_sub(1);
        return true;
      }
    }
  }
  // 3. Injection queue (externals look here first and also steal below).
  {
    std::lock_guard<std::mutex> lock(injectMu_);
    if (!inject_.empty()) {
      out = inject_.front();
      inject_.pop_front();
      readyCount_.fetch_sub(1);
      return true;
    }
  }
  if (self == kExternalSlot) {
    for (auto& dp : deques_) {
      std::lock_guard<std::mutex> lock(dp->mu);
      if (!dp->q.empty()) {
        out = dp->q.front();
        dp->q.pop_front();
        readyCount_.fetch_sub(1);
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::executeTask(const TaskRef& ref, std::size_t self) {
  Execution& exec = *ref.exec;
  TaskGraph::Node& node = exec.graph->nodes_[ref.task];
  if (!exec.failed.load(std::memory_order_relaxed)) {
    ActivePoolGuard guard(this);
    try {
      node.body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(exec.errMu);
      if (!exec.firstError) exec.firstError = std::current_exception();
      exec.failed.store(true, std::memory_order_relaxed);
    }
  }
  // Release successors. acq_rel: the release half publishes this body's
  // writes to whichever thread runs the successor; the acquire half extends
  // the chain across sibling predecessors (release sequence on `pending`).
  for (TaskGraph::TaskId s : node.successors) {
    if (exec.graph->nodes_[s].pending.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
      enqueueReady(TaskRef{&exec, s}, self);
    }
  }
  // Retire. After a non-final decrement this thread never touches `exec`
  // again; the final decrement publishes completion under sleepMu_ so the
  // submitter cannot pop its stack frame while we are mid-signal.
  if (exec.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      std::lock_guard<std::mutex> lock(sleepMu_);
      exec.done = true;
    }
    cvWork_.notify_all();
  }
}

void ThreadPool::workerLoop(std::size_t self) {
  for (;;) {
    TaskRef ref;
    if (findWork(self, ref)) {
      executeTask(ref, self);
      continue;
    }
    // Brief spin before sleeping: a pipelined step graph usually makes new
    // tasks ready within microseconds.
    bool found = false;
    for (int spin = 0; spin < 4 && !found; ++spin) {
      std::this_thread::yield();
      found = findWork(self, ref);
    }
    if (found) {
      executeTask(ref, self);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleepMu_);
    sleeperCount_.fetch_add(1);
    cvWork_.wait(lock, [&] { return stop_ || readyCount_.load() > 0; });
    sleeperCount_.fetch_sub(1);
    if (stop_) return;
  }
}

void ThreadPool::helpUntilDone(Execution& exec) {
  for (;;) {
    {
      // `done` is only written under sleepMu_, so this read is race-free and
      // — crucially — once we observe it, the setter has already released
      // the mutex region that touched our stack frame.
      std::lock_guard<std::mutex> lock(sleepMu_);
      if (exec.done) return;
    }
    TaskRef ref;
    if (findWork(kExternalSlot, ref)) {
      // Helping is global: the task may belong to another submitter's
      // execution. Executing it anyway keeps every in-flight submission
      // draining and lets concurrent submitters' work interleave.
      executeTask(ref, kExternalSlot);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleepMu_);
    sleeperCount_.fetch_add(1);
    cvWork_.wait(lock, [&] { return exec.done || readyCount_.load() > 0; });
    sleeperCount_.fetch_sub(1);
  }
}

void ThreadPool::runGraphSerial(TaskGraph& graph) {
  auto& nodes = graph.nodes_;
  for (auto& node : nodes) {
    node.pending.store(node.numPredecessors, std::memory_order_relaxed);
  }
  // Kahn's algorithm with a FIFO seeded in creation order: matches the
  // issue order a single worker would see, and detects would-be deadlocks.
  std::deque<TaskGraph::TaskId> ready;
  for (TaskGraph::TaskId id = 0; id < nodes.size(); ++id) {
    if (nodes[id].numPredecessors == 0) ready.push_back(id);
  }
  std::size_t executed = 0;
  std::exception_ptr firstError;
  while (!ready.empty()) {
    const TaskGraph::TaskId id = ready.front();
    ready.pop_front();
    if (!firstError) {
      try {
        nodes[id].body();
      } catch (...) {
        firstError = std::current_exception();
      }
    }
    ++executed;
    for (TaskGraph::TaskId s : nodes[id].successors) {
      if (nodes[s].pending.fetch_sub(1, std::memory_order_relaxed) == 1) {
        ready.push_back(s);
      }
    }
  }
  LIFTA_CHECK(executed == nodes.size(),
              "TaskGraph: unreachable tasks (missing or inconsistent edges)");
  if (firstError) std::rethrow_exception(firstError);
}

void ThreadPool::run(TaskGraph& graph) {
  if (graph.empty()) return;
  if (workers_.empty() || tlActivePool == this) {
    // No workers, or a nested submission from inside one of our own task
    // bodies: run on the calling thread in dependency order.
    ActivePoolGuard guard(this);
    runGraphSerial(graph);
    return;
  }
  Execution exec;
  exec.graph = &graph;
  exec.remaining.store(graph.nodes_.size(), std::memory_order_relaxed);
  // Reset runtime counters, then inject the initially-ready frontier in one
  // batch (creation order preserved — the closest thing to the serial order).
  std::size_t seeded = 0;
  for (auto& node : graph.nodes_) {
    node.pending.store(node.numPredecessors, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(injectMu_);
    for (TaskGraph::TaskId id = 0; id < graph.nodes_.size(); ++id) {
      if (graph.nodes_[id].numPredecessors == 0) {
        inject_.push_back(TaskRef{&exec, id});
        ++seeded;
      }
    }
  }
  LIFTA_CHECK(seeded > 0, "TaskGraph: no ready task to seed execution");
  readyCount_.fetch_add(seeded);
  if (sleeperCount_.load() > 0) {
    std::lock_guard<std::mutex> lock(sleepMu_);
    cvWork_.notify_all();
  }
  helpUntilDone(exec);
  if (exec.firstError) std::rethrow_exception(exec.firstError);
}

void ThreadPool::runSerialChunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  std::exception_ptr firstError;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    try {
      body(begin, end);
    } catch (...) {
      // Mirror the pooled path: remember the first error, abandon the rest.
      firstError = std::current_exception();
      break;
    }
  }
  if (firstError) std::rethrow_exception(firstError);
}

void ThreadPool::parallelForChunked(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t target = threadCount() * kChunksPerThread;
  const std::size_t chunk = std::max<std::size_t>(1, n / target);
  if (workers_.empty() || tlActivePool == this) {
    // No workers, or a nested call from inside one of our own task bodies:
    // dispatch serially with the same chunking and exception behaviour.
    runSerialChunks(n, chunk, body);
    return;
  }
  // A bulk loop is a graph of independent chunk tasks. Concurrent external
  // submitters each build their own graph, so their chunks interleave across
  // the workers instead of serializing loop-by-loop.
  TaskGraph graph;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(n, begin + chunk);
    graph.add([&body, begin, end] { body(begin, end); });
  }
  run(graph);
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  parallelForChunked(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

}  // namespace lifta
