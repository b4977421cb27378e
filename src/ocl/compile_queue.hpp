// Asynchronous background JIT compilation (tier-1 of the tiered kernel
// execution design, DESIGN.md §12).
//
// A CompileQueue owns one background worker thread that feeds sources to
// Jit::instance().compile(). Submitting returns a Ticket immediately; the
// caller keeps running its tier-0 (generic) kernel and polls the ticket at
// step boundaries, hot-swapping once the specialized object is Ready.
// Because the worker compiles through the process-wide Jit, a finished
// ticket leaves the object in the Jit memory cache — a later
// Context::buildProgram() of the same source is an instant cache hit.
//
// Submissions deduplicate on (flags, source): a second submit of an
// in-flight compile returns the same Ticket, and a source the Jit memory
// cache already holds gets a Ready ticket at once, without the worker.
// Every submit takes a hold on its ticket and every cancel drops one; a
// Pending build is cancelled (batch teardown) only when its last holder
// lets go. A ticket already Building runs to completion and simply parks
// its result in the Jit cache.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "ocl/jit.hpp"

namespace lifta::ocl {

class CompileQueue {
 public:
  /// Process-wide queue (constructed on first use; the constructor touches
  /// Jit::instance() so the Jit outlives the worker thread).
  static CompileQueue& instance();

  enum class State { Pending, Building, Ready, Failed, Cancelled };

  class Ticket {
   public:
    State state() const;
    /// Non-null exactly when state() == Ready.
    std::shared_ptr<SharedObject> object() const;
    /// Compiler diagnostics when state() == Failed.
    std::string error() const;
    /// True for Ready/Failed/Cancelled.
    bool done() const;

   private:
    friend class CompileQueue;
    Ticket(std::string key, std::string source, std::string flags)
        : key_(std::move(key)),
          source_(std::move(source)),
          flags_(std::move(flags)) {}
    const std::string key_;
    const std::string source_;
    const std::string flags_;
    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    State state_ = State::Pending;
    std::shared_ptr<SharedObject> obj_;
    std::string error_;
    int holders_ = 1;  // submits not yet cancelled; guarded by the queue's mu_
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  /// Enqueues a compile and takes a hold on its ticket; returns an existing
  /// ticket when an identical (flags, source) submission is still pending
  /// or building, and a Ready one when the Jit memory cache holds the
  /// object.
  TicketPtr submit(const std::string& source,
                   const std::string& extraFlags = "");

  /// Drops one hold on a pending ticket and cancels the build once no hold
  /// is left. Returns true when the build was cancelled; false when other
  /// holders still wait on it or it already started (it then runs to
  /// completion and warms the Jit cache).
  bool cancel(const TicketPtr& t);

  /// Blocks until the ticket is terminal; returns the object for Ready,
  /// nullptr for Failed/Cancelled (inspect t->error()).
  std::shared_ptr<SharedObject> wait(const TicketPtr& t);

  /// Blocks until every submitted ticket is terminal.
  void drain();

  /// Test hook: a paused worker finishes its current build, then idles
  /// without starting new ones (keeps tickets deterministically Pending so
  /// cancellation paths can be exercised).
  void setPaused(bool paused);

  struct Stats {
    std::size_t submitted = 0;  // submit() calls, including deduped
    std::size_t deduped = 0;    // submits coalesced onto a live ticket
    std::size_t compiled = 0;   // tickets that reached Ready (cache hits too)
    std::size_t failed = 0;     // tickets that reached Failed
    std::size_t cancelled = 0;  // tickets cancelled while Pending
  };
  Stats stats() const;

 private:
  CompileQueue();
  ~CompileQueue();
  CompileQueue(const CompileQueue&) = delete;
  CompileQueue& operator=(const CompileQueue&) = delete;

  void workerLoop();
  /// With mu_ held: number of tickets not yet terminal.
  std::size_t liveLocked() const;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // worker wakeup
  std::condition_variable idleCv_;    // drain() wakeup
  std::deque<TicketPtr> queue_;
  std::map<std::string, TicketPtr> live_;  // key -> pending/building ticket
  Stats stats_;
  bool paused_ = false;
  bool shutdown_ = false;
  bool building_ = false;
  bool workerStarted_ = false;
  std::thread worker_;
};

}  // namespace lifta::ocl
