// Work-stealing task scheduler behind the pool API used by the simulated
// OpenCL runtime and the acoustics steppers.
//
// Internals: each worker owns a deque; it pushes tasks it makes ready onto
// the back and pops from the back (depth-first, cache-hot), while idle
// workers steal from the front of a victim's deque (breadth-first, oldest
// work first — the classic workpile discipline). External submitter threads
// (RIR service executors, test threads) inject ready tasks through a shared
// injection queue and then *help*: they execute tasks themselves until their
// own submission completes, so a submitter is never just blocked behind the
// workers.
//
// Two entry points share the scheduler:
//  - run(TaskGraph&): executes a dependency graph (task_graph.hpp); a task
//    becomes ready when its last predecessor finishes. This is what the
//    acoustics task-graph stepper uses for cross-step pipelining.
//  - parallelFor/parallelForChunked: a bulk loop is just a graph of
//    independent chunk tasks. Blocks until all iterations complete,
//    mirroring the implicit barrier of a clFinish on an in-order queue.
//
// Concurrent submitters are first-class: tasks from any number of in-flight
// submissions interleave freely across the workers (no whole-loop dispatch
// lock), and each submitter observes only its own submission's exceptions.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/task_graph.hpp"

namespace lifta {

class ThreadPool {
public:
  /// Creates a pool with `threads` workers. 0 means hardware concurrency.
  /// The calling thread participates in every dispatch, so `threads == 1`
  /// spawns no OS threads and runs everything serially on the caller.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return workers_.size() + 1; }

  /// parallelFor/parallelForChunked split a loop into about this many
  /// chunks per thread, to balance load without excess scheduling.
  static constexpr std::size_t kChunksPerThread = 4;

  /// Runs body(i) for all i in [0, n), distributing contiguous chunks across
  /// the pool plus the calling thread. Blocks until every iteration is done.
  /// Exceptions thrown by `body` are captured and the first one is rethrown.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Chunked variant: body(beginIdx, endIdx) per chunk. Lower overhead for
  /// fine-grained iterations.
  ///
  /// Re-entrancy: calling parallelFor/parallelForChunked from inside a task
  /// body of the *same* pool would deadlock-prone-ly recurse into the
  /// scheduler, so nested calls are detected (thread-local marker) and run
  /// serially on the calling thread with identical chunking and exception
  /// semantics.
  ///
  /// Concurrent submitters: multiple external threads may submit loops or
  /// graphs at the same time (the RIR job service steps many simulations
  /// over one shared pool). Their tasks interleave across the workers;
  /// each submitter observes only its own submission's exceptions.
  void parallelForChunked(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& body);

  /// Executes `graph` to completion: every task body runs exactly once (on
  /// some thread), edges are respected, and the call returns only when the
  /// whole graph has drained. If a body throws, the remaining bodies of this
  /// graph are skipped (dependents still "complete" so the graph drains) and
  /// the first exception is rethrown here. The graph's runtime counters are
  /// reset on entry, so the same graph object may be run again — but not
  /// concurrently with itself.
  ///
  /// With no workers, or when called from inside one of this pool's own task
  /// bodies, the graph runs serially on the calling thread in dependency
  /// order (creation order restricted to ready tasks).
  void run(TaskGraph& graph);

  /// True while the calling thread is executing a task body of this pool
  /// (i.e. a parallelFor from here would take the serial nested path).
  bool insideParallelRegion() const noexcept;

  /// Process-wide default pool (sized to hardware concurrency).
  static ThreadPool& global();

private:
  /// One in-flight run() (or loop) — lives on the submitter's stack. The
  /// submitter only returns after `done` is set under sleepMu_, and workers
  /// never touch an Execution after decrementing `remaining` to zero, so
  /// the stack lifetime is safe.
  struct Execution {
    TaskGraph* graph = nullptr;
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> failed{false};
    std::mutex errMu;
    std::exception_ptr firstError;
    bool done = false;  // guarded by ThreadPool::sleepMu_
  };

  struct TaskRef {
    Execution* exec = nullptr;
    TaskGraph::TaskId task = 0;
  };

  /// Per-worker deque. A plain mutex per deque keeps the implementation
  /// obviously correct under TSan; contention is low because each worker
  /// mostly touches its own deque and steals are rare once the pipeline
  /// fills.
  struct WorkerDeque {
    std::mutex mu;
    std::deque<TaskRef> q;
  };

  static constexpr std::size_t kExternalSlot = ~std::size_t{0};

  void workerLoop(std::size_t self);
  /// Claims one ready task: own deque back, then steal others' front, then
  /// the injection queue (externals start at the injection queue).
  bool findWork(std::size_t self, TaskRef& out);
  /// Runs (or skips, if the execution already failed) one task body, then
  /// releases its successors and retires it from its execution.
  void executeTask(const TaskRef& ref, std::size_t self);
  void enqueueReady(const TaskRef& ref, std::size_t self);
  void helpUntilDone(Execution& exec);
  /// Serial fallback (no workers, or nested call): dependency order on the
  /// calling thread, first-exception-wins with drain-by-skipping.
  void runGraphSerial(TaskGraph& graph);
  /// Serial loop fallback with the pooled path's chunking and
  /// first-exception-wins semantics.
  static void runSerialChunks(
      std::size_t n, std::size_t chunk,
      const std::function<void(std::size_t, std::size_t)>& body);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;  // one per worker

  std::mutex injectMu_;
  std::deque<TaskRef> inject_;  // ready tasks from external threads

  /// Tasks sitting in some deque or the injection queue, not yet claimed.
  /// Lets sleepers decide whether waking is worthwhile without sweeping
  /// every deque.
  std::atomic<std::size_t> readyCount_{0};
  std::atomic<std::size_t> sleeperCount_{0};
  std::mutex sleepMu_;
  std::condition_variable cvWork_;
  bool stop_ = false;  // guarded by sleepMu_
  std::atomic<bool> stopFlag_{false};
};

}  // namespace lifta
