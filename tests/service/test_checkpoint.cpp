// Checkpoint/restore round-trips: save mid-run, restore into a fresh
// simulation, and the continued trajectory must be bit-identical to the
// uninterrupted one for every boundary model — the property the RIR job
// service's resume path depends on.
#include "service/checkpoint.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"

using namespace lifta;
using namespace lifta::acoustics;
using namespace lifta::service;

namespace {

template <typename T>
typename Simulation<T>::Config makeConfig(BoundaryModel model,
                                          RoomShape shape = RoomShape::Dome) {
  typename Simulation<T>::Config cfg;
  cfg.room = Room{shape, 16, 14, 12};
  cfg.model = model;
  const bool mm = model == BoundaryModel::FiMm || model == BoundaryModel::FdMm;
  cfg.numMaterials = mm ? 3 : 1;
  cfg.numBranches = model == BoundaryModel::FdMm ? 3 : 0;
  return cfg;
}

/// Temp checkpoint path unique per test, removed on scope exit.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

template <typename T>
void expectSameState(const Simulation<T>& a, const Simulation<T>& b) {
  const std::size_t cells = a.config().room.cells();
  ASSERT_EQ(a.stepsTaken(), b.stepsTaken());
  for (std::size_t i = 0; i < cells; ++i) {
    ASSERT_EQ(a.prev()[i], b.prev()[i]) << "prev mismatch at cell " << i;
    ASSERT_EQ(a.curr()[i], b.curr()[i]) << "curr mismatch at cell " << i;
    ASSERT_EQ(a.next()[i], b.next()[i]) << "next mismatch at cell " << i;
  }
  ASSERT_EQ(a.fdStateLen(), b.fdStateLen());
  for (std::size_t i = 0; i < a.fdStateLen(); ++i) {
    ASSERT_EQ(a.g1()[i], b.g1()[i]) << "g1 mismatch at " << i;
    ASSERT_EQ(a.v1()[i], b.v1()[i]) << "v1 mismatch at " << i;
    ASSERT_EQ(a.v2()[i], b.v2()[i]) << "v2 mismatch at " << i;
  }
}

template <typename T>
void roundTripModel(BoundaryModel model, const std::string& fileName) {
  const auto cfg = makeConfig<T>(model);
  TempFile ck(fileName);

  // Uninterrupted run: 30 steps, then 30 more recording a trace.
  Simulation<T> reference(cfg);
  reference.addImpulse(8, 7, 6, T(1));
  reference.addImpulse(9, 7, 6, T(-1));
  const auto warm = reference.record(30, 5, 5, 5);
  ASSERT_EQ(warm.size(), 30u);

  // Interrupted run: identical 30 steps, checkpoint, restore into a FRESH
  // simulation, continue.
  Simulation<T> first(cfg);
  first.addImpulse(8, 7, 6, T(1));
  first.addImpulse(9, 7, 6, T(-1));
  first.record(30, 5, 5, 5);
  saveCheckpoint(first, ck.path);

  Simulation<T> resumed(cfg);
  restoreCheckpoint(resumed, ck.path);
  EXPECT_EQ(resumed.stepsTaken(), 30);
  expectSameState(reference, resumed);

  const std::vector<Receiver> rx = {{5, 5, 5}, {10, 8, 6}};
  const auto tailRef = reference.record(30, rx);
  const auto tailRes = resumed.record(30, rx);
  ASSERT_EQ(tailRef.size(), tailRes.size());
  for (std::size_t r = 0; r < tailRef.size(); ++r) {
    ASSERT_EQ(tailRef[r].size(), tailRes[r].size());
    for (std::size_t s = 0; s < tailRef[r].size(); ++s) {
      ASSERT_EQ(tailRef[r][s], tailRes[r][s])
          << modelName(model) << ": trace diverged, receiver " << r
          << " step " << s;
    }
  }
  expectSameState(reference, resumed);
  EXPECT_GT(resumed.energy(), 0.0);  // the restored field is non-trivial
}

TEST(Checkpoint, RoundTripBitIdenticalFusedFi) {
  roundTripModel<double>(BoundaryModel::FusedFi, "ck_fusedfi.ck");
}

TEST(Checkpoint, RoundTripBitIdenticalFiSplit) {
  roundTripModel<double>(BoundaryModel::FiSplit, "ck_fisplit.ck");
}

TEST(Checkpoint, RoundTripBitIdenticalFiMm) {
  roundTripModel<double>(BoundaryModel::FiMm, "ck_fimm.ck");
}

TEST(Checkpoint, RoundTripBitIdenticalFdMm) {
  roundTripModel<double>(BoundaryModel::FdMm, "ck_fdmm.ck");
}

TEST(Checkpoint, RoundTripFloatPrecision) {
  roundTripModel<float>(BoundaryModel::FdMm, "ck_fdmm_f32.ck");
}

TEST(Checkpoint, RestoreRejectsModelMismatch) {
  TempFile ck("ck_model_mismatch.ck");
  Simulation<double> fiMm(makeConfig<double>(BoundaryModel::FiMm));
  fiMm.addImpulse(8, 7, 6, 1.0);
  fiMm.record(5, 5, 5, 5);
  saveCheckpoint(fiMm, ck.path);

  Simulation<double> fiSplit(makeConfig<double>(BoundaryModel::FiSplit));
  EXPECT_THROW(restoreCheckpoint(fiSplit, ck.path), Error);
}

TEST(Checkpoint, RestoreRejectsDimensionMismatch) {
  TempFile ck("ck_dim_mismatch.ck");
  Simulation<double> sim(makeConfig<double>(BoundaryModel::FiMm));
  saveCheckpoint(sim, ck.path);

  auto other = makeConfig<double>(BoundaryModel::FiMm);
  other.room.nz += 2;
  Simulation<double> target(other);
  EXPECT_THROW(restoreCheckpoint(target, ck.path), Error);
}

TEST(Checkpoint, RestoreRejectsPrecisionMismatch) {
  TempFile ck("ck_precision_mismatch.ck");
  Simulation<double> sim(makeConfig<double>(BoundaryModel::FiMm));
  saveCheckpoint(sim, ck.path);

  Simulation<float> target(makeConfig<float>(BoundaryModel::FiMm));
  EXPECT_THROW(restoreCheckpoint(target, ck.path), Error);
}

TEST(Checkpoint, RestoreRejectsTruncatedFile) {
  TempFile full("ck_full.ck");
  TempFile cut("ck_truncated.ck");
  Simulation<double> sim(makeConfig<double>(BoundaryModel::FdMm));
  sim.addImpulse(8, 7, 6, 1.0);
  sim.record(3, 5, 5, 5);
  saveCheckpoint(sim, full.path);

  std::ifstream in(full.path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 100u);
  std::ofstream out(cut.path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  Simulation<double> target(makeConfig<double>(BoundaryModel::FdMm));
  EXPECT_THROW(restoreCheckpoint(target, cut.path), Error);
}

// A periodic checkpoint write that fails must not cost the job its last
// good checkpoint: the child process below hits RLIMIT_FSIZE mid-write
// (the live file used to be truncated first and left at the limit).
TEST(Checkpoint, FailedSaveKeepsPreviousCheckpoint) {
  TempFile ck("ck_failed_save.ck");
  const auto cfg = makeConfig<double>(BoundaryModel::FdMm);
  Simulation<double> sim(cfg);
  sim.addImpulse(8, 7, 6, 1.0);
  sim.record(10, 5, 5, 5);
  saveCheckpoint(sim, ck.path);
  Simulation<double> atTen(cfg);
  restoreCheckpoint(atTen, ck.path);
  sim.record(5, 5, 5, 5);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{4096, 4096};
    setrlimit(RLIMIT_FSIZE, &limit);
    int code = 1;  // the save did not throw
    try {
      saveCheckpoint(sim, ck.path);
    } catch (const Error& e) {
      code = std::string(e.what()).find("checkpoint write failed") !=
                     std::string::npos
                 ? 0
                 : 2;
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "the limited save must throw";

  Simulation<double> restored(cfg);
  restoreCheckpoint(restored, ck.path);
  expectSameState(restored, atTen);
  EXPECT_EQ(restored.stepsTaken(), 10);
  std::ifstream tmp(ck.path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "the failed write left its temp file";
}

TEST(Checkpoint, RestoreRejectsBadMagicAndMissingFile) {
  TempFile bad("ck_bad_magic.ck");
  {
    std::ofstream out(bad.path, std::ios::binary);
    const std::uint32_t junk[16] = {0xDEADBEEFu};
    out.write(reinterpret_cast<const char*>(junk), sizeof(junk));
  }
  Simulation<double> target(makeConfig<double>(BoundaryModel::FiMm));
  EXPECT_THROW(restoreCheckpoint(target, bad.path), Error);
  EXPECT_THROW(restoreCheckpoint(target, "/nonexistent/dir/x.ck"), Error);
}

}  // namespace
