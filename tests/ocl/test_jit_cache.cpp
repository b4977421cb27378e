// The content-addressed JIT cache: memory hits return the loaded object
// without recompiling, the LRU evicts, the disk cache survives a memory
// clear, flags are part of the key, a failed compile leaves no temporary
// files behind (regression for the old leak), and a hung compiler is killed
// at the compile deadline.
#include "ocl/jit.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ocl/compile_queue.hpp"

namespace lifta::ocl {
namespace {

namespace fs = std::filesystem;

/// A trivially compilable source, unique per call so tests sharing the
/// process-wide Jit singleton never collide on cache keys.
std::string uniqueSource(const std::string& tag) {
  static int counter = 0;
  return "// jit-cache-test " + tag + " " + std::to_string(++counter) +
         "\nextern \"C\" int lifta_test_sym() { return 42; }\n";
}

std::size_t entryCount(const std::string& dir) {
  std::size_t n = 0;
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

TEST(JitCache, MemoryHitReturnsSameObjectWithoutRecompiling) {
  auto& jit = Jit::instance();
  const auto src = uniqueSource("hit");
  const auto s0 = jit.stats();
  auto a = jit.compile(src);
  auto b = jit.compile(src);
  const auto s1 = jit.stats();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(s1.compiled, s0.compiled + 1);
  EXPECT_EQ(s1.hits, s0.hits + 1);
  EXPECT_NE(a->symbol("lifta_test_sym"), nullptr);
}

TEST(JitCache, ExtraFlagsArePartOfTheKey) {
  auto& jit = Jit::instance();
  const auto src = uniqueSource("flags");
  const auto s0 = jit.stats();
  auto a = jit.compile(src);
  auto b = jit.compile(src, "-DLIFTA_TEST_FLAG=1");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 2);
}

TEST(JitCache, LruEvictsTheLeastRecentlyUsedEntry) {
  auto& jit = Jit::instance();
  jit.setMemoryCacheCapacity(2);
  const auto a = uniqueSource("lru-a");
  const auto b = uniqueSource("lru-b");
  const auto c = uniqueSource("lru-c");
  jit.compile(a);
  jit.compile(b);
  const auto s0 = jit.stats();
  jit.compile(c);  // evicts a (least recently used)
  EXPECT_GT(jit.stats().evictions, s0.evictions);
  jit.compile(c);  // still resident
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 1);
  jit.compile(a);  // gone from memory: recompiled
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 2);
  jit.setMemoryCacheCapacity(256);
}

TEST(JitCache, DiskCacheServesAfterMemoryClearWithoutRecompiling) {
  auto& jit = Jit::instance();
  const std::string dir = jit.scratchDir() + "/disk_test";
  jit.setDiskCacheDir(dir);
  const auto src = uniqueSource("disk");
  jit.compile(src);
  const auto s0 = jit.stats();
  jit.clearMemoryCache();
  auto reloaded = jit.compile(src);
  const auto s1 = jit.stats();
  EXPECT_EQ(s1.diskHits, s0.diskHits + 1);
  EXPECT_EQ(s1.compiled, s0.compiled);  // dlopen'ed from disk, not rebuilt
  EXPECT_NE(reloaded->symbol("lifta_test_sym"), nullptr);
  jit.setDiskCacheDir("");
}

TEST(JitCache, CorruptDiskEntryFallsBackToCompiling) {
  auto& jit = Jit::instance();
  const std::string dir = jit.scratchDir() + "/disk_corrupt";
  jit.setDiskCacheDir(dir);
  const auto src = uniqueSource("corrupt");
  jit.compile(src);
  jit.clearMemoryCache();
  const auto s0 = jit.stats();
  // Truncate every cached object: dlopen must fail and fall through.
  for (auto& e : fs::directory_iterator(dir)) {
    std::ofstream(e.path(), std::ios::trunc);
  }
  auto rebuilt = jit.compile(src);
  const auto s1 = jit.stats();
  EXPECT_EQ(s1.compiled, s0.compiled + 1);
  EXPECT_EQ(s1.corruptEvictions, s0.corruptEvictions + 1);
  EXPECT_NE(rebuilt->symbol("lifta_test_sym"), nullptr);
  // The broken entry was evicted and replaced by the fresh build: a later
  // cold process would disk-hit, not trip over the same corruption again.
  jit.clearMemoryCache();
  const auto s2 = jit.stats();
  jit.compile(src);
  EXPECT_EQ(jit.stats().diskHits, s2.diskHits + 1);
  jit.setDiskCacheDir("");
}

TEST(JitCache, GarbageDiskEntryAlsoFallsBack) {
  auto& jit = Jit::instance();
  const std::string dir = jit.scratchDir() + "/disk_garbage";
  jit.setDiskCacheDir(dir);
  const auto src = uniqueSource("garbage");
  jit.compile(src);
  jit.clearMemoryCache();
  const auto s0 = jit.stats();
  for (auto& e : fs::directory_iterator(dir)) {
    std::ofstream f(e.path(), std::ios::trunc | std::ios::binary);
    f << "not an ELF object at all";
  }
  auto rebuilt = jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 1);
  EXPECT_EQ(jit.stats().corruptEvictions, s0.corruptEvictions + 1);
  EXPECT_NE(rebuilt->symbol("lifta_test_sym"), nullptr);
  jit.setDiskCacheDir("");
}

TEST(JitCache, CompilerVersionIsPartOfTheKey) {
  auto& jit = Jit::instance();
  const auto src = uniqueSource("version");
  const auto s0 = jit.stats();
  jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 1);

  // Fake a compiler upgrade: the identity changes, so the same source must
  // miss the cache and recompile instead of serving the stale object.
  const std::string before = Jit::compilerIdentity();
  ::setenv("LIFTA_CXX_VERSION", "lifta-fake-compiler 99.9.9", 1);
  EXPECT_NE(Jit::compilerIdentity(), before);
  jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 2);

  // Same faked version again: back to a plain memory hit.
  const auto s1 = jit.stats();
  jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s1.compiled);
  EXPECT_EQ(jit.stats().hits, s1.hits + 1);

  ::unsetenv("LIFTA_CXX_VERSION");
  EXPECT_EQ(Jit::compilerIdentity(), before);
}

TEST(JitCache, FailedCompileThrowsWithLogAndLeavesNoTempFiles) {
  auto& jit = Jit::instance();
  const auto before = entryCount(jit.scratchDir());
  try {
    jit.compile("this is not C++ }{" + uniqueSource("fail"));
    FAIL() << "expected OclError";
  } catch (const OclError& e) {
    EXPECT_NE(std::string(e.what()).find("build failed"), std::string::npos);
  }
  EXPECT_EQ(entryCount(jit.scratchDir()), before);
}

// --- compiler deadline --------------------------------------------------------

/// Points LIFTA_CXX at a fake compiler that answers --version but hangs on a
/// build: it logs a line to its stderr (the build log), records its pid and
/// sleeps far past the shortened deadline.
class JitTimeout : public ::testing::Test {
protected:
  void SetUp() override {
    const std::string tmpl =
        (fs::temp_directory_path() / "lifta-hung-cxx-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
    const std::string script = dir_ + "/cxx.sh";
    {
      std::ofstream f(script);
      f << "#!/bin/sh\n"
           "if [ \"$1\" = \"--version\" ]; then echo hung-cxx; exit 0; fi\n"
           "echo 'hung compiler started' >&2\n"
           "echo $$ > '"
        << dir_ << "/pid'\nexec sleep 60\n";
    }
    fs::permissions(script, fs::perms::owner_all);
    ::setenv("LIFTA_CXX", script.c_str(), 1);
    ::setenv("LIFTA_CXX_VERSION", "hung-cxx", 1);
    // Long enough for the script to start and log under a loaded test
    // run, far shorter than its sleep.
    Jit::instance().setCompileTimeout(std::chrono::seconds(1));
  }

  void TearDown() override {
    Jit::instance().setCompileTimeout(kDefaultCompileTimeout);
    ::unsetenv("LIFTA_CXX");
    ::unsetenv("LIFTA_CXX_VERSION");
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// True once the fake compiler has died. The script runs under the
  /// JIT's shell, so after the group kill it may linger briefly as a zombie
  /// until its new parent reaps it; that counts as dead.
  bool compilerGone() const {
    std::ifstream f(dir_ + "/pid");
    long pid = 0;
    if (!(f >> pid) || pid <= 0) return false;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    do {
      std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
      std::string line;
      if (!std::getline(stat, line)) return true;  // reaped
      const auto close = line.rfind(')');
      if (close != std::string::npos && close + 2 < line.size() &&
          line[close + 2] == 'Z') {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } while (std::chrono::steady_clock::now() < until);
    return false;
  }

  std::string dir_;
};

TEST_F(JitTimeout, HungCompilerIsKilledWithItsLogAndLeavesNoTempFiles) {
  auto& jit = Jit::instance();
  const auto before = entryCount(jit.scratchDir());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    jit.compile(uniqueSource("hung"));
    FAIL() << "expected OclError";
  } catch (const OclError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("timed out"), std::string::npos) << what;
    EXPECT_NE(what.find("hung compiler started"), std::string::npos) << what;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));
  EXPECT_TRUE(compilerGone());
  EXPECT_EQ(entryCount(jit.scratchDir()), before);
}

TEST_F(JitTimeout, HungCompilerFailsTheCompileQueueTicket) {
  // The single background worker must come back: the ticket fails (so a
  // tiered kernel stays generic) instead of blocking every later build.
  auto& q = CompileQueue::instance();
  auto t = q.submit(uniqueSource("hung-queue"));
  EXPECT_EQ(q.wait(t), nullptr);
  EXPECT_EQ(t->state(), CompileQueue::State::Failed);
  EXPECT_NE(t->error().find("timed out"), std::string::npos) << t->error();
  EXPECT_TRUE(compilerGone());
}

}  // namespace
}  // namespace lifta::ocl
