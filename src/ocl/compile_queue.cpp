#include "ocl/compile_queue.hpp"

#include "common/error.hpp"

namespace lifta::ocl {

CompileQueue::State CompileQueue::Ticket::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::shared_ptr<SharedObject> CompileQueue::Ticket::object() const {
  std::lock_guard<std::mutex> lock(mu_);
  return obj_;
}

std::string CompileQueue::Ticket::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

bool CompileQueue::Ticket::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == State::Ready || state_ == State::Failed ||
         state_ == State::Cancelled;
}

CompileQueue& CompileQueue::instance() {
  static CompileQueue q;
  return q;
}

CompileQueue::CompileQueue() {
  // Force the Jit singleton to construct first: function-local statics are
  // destroyed in reverse construction order, so the Jit (and its scratch
  // directory) outlives the worker thread this queue joins in its own
  // destructor.
  Jit::instance();
}

CompileQueue::~CompileQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

CompileQueue::TicketPtr CompileQueue::submit(const std::string& source,
                                             const std::string& extraFlags) {
  const std::string key = extraFlags + '\x1f' + source;
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  auto it = live_.find(key);
  if (it != live_.end()) {
    ++stats_.deduped;
    ++it->second->holders_;
    return it->second;
  }
  auto t = TicketPtr(new Ticket(key, source, extraFlags));
  if (auto obj = Jit::instance().cached(source, extraFlags)) {
    ++stats_.compiled;
    t->state_ = State::Ready;
    t->obj_ = std::move(obj);
    return t;
  }
  live_.emplace(key, t);
  queue_.push_back(t);
  if (!workerStarted_) {
    workerStarted_ = true;
    worker_ = std::thread([this] { workerLoop(); });
  }
  cv_.notify_one();
  return t;
}

bool CompileQueue::cancel(const TicketPtr& t) {
  if (!t) return false;
  std::lock_guard<std::mutex> lock(mu_);
  {
    std::lock_guard<std::mutex> tlock(t->mu_);
    if (t->state_ != State::Pending) return false;
    if (--t->holders_ > 0) return false;
    t->state_ = State::Cancelled;
  }
  t->cv_.notify_all();
  live_.erase(t->key_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == t) {
      queue_.erase(it);
      break;
    }
  }
  ++stats_.cancelled;
  idleCv_.notify_all();
  return true;
}

std::shared_ptr<SharedObject> CompileQueue::wait(const TicketPtr& t) {
  if (!t) return nullptr;
  std::unique_lock<std::mutex> tlock(t->mu_);
  t->cv_.wait(tlock, [&] {
    return t->state_ == State::Ready || t->state_ == State::Failed ||
           t->state_ == State::Cancelled;
  });
  return t->obj_;
}

void CompileQueue::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idleCv_.wait(lock, [&] { return liveLocked() == 0; });
}

void CompileQueue::setPaused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

CompileQueue::Stats CompileQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CompileQueue::liveLocked() const {
  return queue_.size() + (building_ ? 1 : 0);
}

void CompileQueue::workerLoop() {
  for (;;) {
    TicketPtr t;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (shutdown_) return;
      t = queue_.front();
      queue_.pop_front();
      building_ = true;
      std::lock_guard<std::mutex> tlock(t->mu_);
      t->state_ = State::Building;
    }

    std::shared_ptr<SharedObject> obj;
    std::string error;
    try {
      obj = Jit::instance().compile(t->source_, t->flags_);
    } catch (const std::exception& e) {
      error = e.what();
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      live_.erase(t->key_);
      building_ = false;
      if (obj) {
        ++stats_.compiled;
      } else {
        ++stats_.failed;
      }
      std::lock_guard<std::mutex> tlock(t->mu_);
      t->state_ = obj ? State::Ready : State::Failed;
      t->obj_ = std::move(obj);
      t->error_ = std::move(error);
    }
    t->cv_.notify_all();
    idleCv_.notify_all();
  }
}

}  // namespace lifta::ocl
