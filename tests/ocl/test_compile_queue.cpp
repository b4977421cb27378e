// The async background compile queue (tiered execution, DESIGN.md §12):
// submissions return immediately, identical in-flight submissions
// deduplicate onto one ticket, pending builds can be cancelled, results
// land in the process-wide Jit cache, and the whole thing is data-race
// free (this file runs under TSan in CI).
#include "ocl/compile_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace lifta::ocl {
namespace {

std::string uniqueSource(const std::string& tag) {
  // Atomic: the stress test below calls this from eight threads.
  static std::atomic<int> counter{0};
  return "// compile-queue-test " + tag + " " + std::to_string(++counter) +
         "\nextern \"C\" int lifta_queue_sym() { return 7; }\n";
}

TEST(CompileQueue, SubmitBuildsInBackgroundAndWaitReturnsTheObject) {
  auto& q = CompileQueue::instance();
  auto t = q.submit(uniqueSource("basic"));
  ASSERT_NE(t, nullptr);
  auto obj = q.wait(t);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(t->state(), CompileQueue::State::Ready);
  EXPECT_TRUE(t->done());
  EXPECT_NE(obj->symbol("lifta_queue_sym"), nullptr);
}

TEST(CompileQueue, ReadyTicketWarmsTheJitMemoryCache) {
  auto& q = CompileQueue::instance();
  const auto src = uniqueSource("warm");
  q.wait(q.submit(src));
  // The later foreground compile of the same source must be a pure memory
  // hit — this is what makes the hot-swap step-boundary cheap.
  const auto s0 = Jit::instance().stats();
  auto obj = Jit::instance().compile(src);
  const auto s1 = Jit::instance().stats();
  EXPECT_EQ(s1.hits, s0.hits + 1);
  EXPECT_EQ(s1.compiled, s0.compiled);
  EXPECT_NE(obj, nullptr);
}

TEST(CompileQueue, IdenticalInFlightSubmissionsDeduplicate) {
  auto& q = CompileQueue::instance();
  q.setPaused(true);  // keep tickets Pending deterministically
  const auto src = uniqueSource("dedup");
  const auto s0 = q.stats();
  auto a = q.submit(src);
  auto b = q.submit(src);
  EXPECT_EQ(a.get(), b.get());
  auto c = q.submit(src, "-DLIFTA_QUEUE_OTHER=1");  // different flags: new
  EXPECT_NE(a.get(), c.get());
  const auto s1 = q.stats();
  EXPECT_EQ(s1.submitted, s0.submitted + 3);
  EXPECT_EQ(s1.deduped, s0.deduped + 1);
  q.setPaused(false);
  q.wait(a);
  q.wait(c);
}

TEST(CompileQueue, PendingTicketsCancelButBuildingOnesDoNot) {
  auto& q = CompileQueue::instance();
  q.setPaused(true);
  auto t = q.submit(uniqueSource("cancel"));
  EXPECT_EQ(t->state(), CompileQueue::State::Pending);
  EXPECT_TRUE(q.cancel(t));
  EXPECT_EQ(t->state(), CompileQueue::State::Cancelled);
  EXPECT_TRUE(t->done());
  EXPECT_FALSE(q.cancel(t));  // already terminal
  EXPECT_EQ(q.wait(t), nullptr);
  q.setPaused(false);

  auto done = q.submit(uniqueSource("cancel-late"));
  q.wait(done);
  EXPECT_FALSE(q.cancel(done));  // Ready tickets cannot be cancelled
  EXPECT_EQ(done->state(), CompileQueue::State::Ready);
}

TEST(CompileQueue, CancelledKeyCanBeResubmitted) {
  auto& q = CompileQueue::instance();
  q.setPaused(true);
  const auto src = uniqueSource("resubmit");
  auto a = q.submit(src);
  ASSERT_TRUE(q.cancel(a));
  auto b = q.submit(src);  // not deduped onto the cancelled ticket
  EXPECT_NE(a.get(), b.get());
  q.setPaused(false);
  EXPECT_NE(q.wait(b), nullptr);
}

TEST(CompileQueue, CancelDropsOnlyTheCallersHold) {
  // Two holders of one deduplicated ticket: the first one's cancel must not
  // take the build away from the second.
  auto& q = CompileQueue::instance();
  q.setPaused(true);
  const auto src = uniqueSource("holders");
  auto a = q.submit(src);
  auto b = q.submit(src);
  ASSERT_EQ(a.get(), b.get());
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(b->state(), CompileQueue::State::Pending);
  q.setPaused(false);
  EXPECT_NE(q.wait(b), nullptr);
  EXPECT_EQ(b->state(), CompileQueue::State::Ready);

  // The last hold cancels.
  q.setPaused(true);
  const auto other = uniqueSource("holders-last");
  auto c = q.submit(other);
  auto d = q.submit(other);
  EXPECT_FALSE(q.cancel(c));
  EXPECT_TRUE(q.cancel(d));
  EXPECT_EQ(c->state(), CompileQueue::State::Cancelled);
  q.setPaused(false);
}

TEST(CompileQueue, SubmitOfACachedSourceIsReadyAtOnce) {
  // A source the Jit memory cache holds needs no worker: the ticket is
  // Ready on return even while the worker is paused.
  auto& q = CompileQueue::instance();
  const auto src = uniqueSource("cached");
  ASSERT_NE(Jit::instance().compile(src), nullptr);
  const auto compiled = Jit::instance().stats().compiled;
  q.setPaused(true);
  auto t = q.submit(src);
  EXPECT_EQ(t->state(), CompileQueue::State::Ready);
  EXPECT_NE(t->object(), nullptr);
  q.setPaused(false);
  EXPECT_EQ(Jit::instance().stats().compiled, compiled);
}

TEST(CompileQueue, FailedBuildReportsErrorWithoutThrowing) {
  auto& q = CompileQueue::instance();
  auto t = q.submit("this is not C++ }{" + uniqueSource("fail"));
  EXPECT_EQ(q.wait(t), nullptr);
  EXPECT_EQ(t->state(), CompileQueue::State::Failed);
  EXPECT_NE(t->error().find("build failed"), std::string::npos);
}

TEST(CompileQueue, DrainWaitsForAllOutstandingBuilds) {
  auto& q = CompileQueue::instance();
  std::vector<CompileQueue::TicketPtr> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(q.submit(uniqueSource("drain")));
  q.drain();
  for (const auto& t : tickets) {
    EXPECT_TRUE(t->done());
    EXPECT_EQ(t->state(), CompileQueue::State::Ready);
  }
}

// Race coverage for TSan: many threads submitting, polling, cancelling and
// waiting on overlapping keys concurrently with the worker.
TEST(CompileQueue, ConcurrentSubmitPollCancelStress) {
  auto& q = CompileQueue::instance();
  const auto shared = uniqueSource("stress-shared");
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      auto own = q.submit(uniqueSource("stress-" + std::to_string(i)));
      auto dup = q.submit(shared);
      while (!own->done()) {
        (void)own->state();
        std::this_thread::yield();
      }
      if (i % 2 == 0) (void)q.cancel(dup);
      (void)q.wait(dup);
      EXPECT_NE(q.wait(own), nullptr);
    });
  }
  for (auto& t : threads) t.join();
  q.drain();
}

}  // namespace
}  // namespace lifta::ocl
