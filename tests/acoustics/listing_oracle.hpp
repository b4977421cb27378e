// Test-local oracle for the reference stepper: a plain step loop over the
// listings' whole-grid kernels — refFusedFiLookup, or refVolume plus
// refFiBoundary / refFiMmBoundary / refFdMmBoundary — with Simulation<T>'s
// buffer rotation (prev <- curr <- next) and FD-MM v1/v2 swap. The stepper
// runs other kernels (interior runs, topology-class launches) as a task
// graph; for every thread count, tileZ and launch plan it must reproduce
// this loop bit-for-bit, branch state included.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "acoustics/simulation.hpp"

namespace lifta::acoustics {

template <typename T>
class ListingOracle {
public:
  explicit ListingOracle(const typename Simulation<T>::Config& cfg)
      : cfg_(cfg), grid_(voxelizeCached(cfg.room, cfg.numMaterials)) {
    const auto mats =
        cfg.materials.empty()
            ? defaultMaterials(cfg.numMaterials, cfg.numBranches)
            : cfg.materials;
    for (const auto& m : mats) beta_.push_back(static_cast<T>(m.beta));
    const FdCoeffs fd = deriveFdCoeffs(mats, cfg.numBranches, cfg.params.Ts());
    for (double v : fd.BI) bi_.push_back(static_cast<T>(v));
    for (double v : fd.D) d_.push_back(static_cast<T>(v));
    for (double v : fd.DI) di_.push_back(static_cast<T>(v));
    for (double v : fd.F) f_.push_back(static_cast<T>(v));
    const std::size_t cells = grid_->cells();
    prev.assign(cells, T(0));
    curr.assign(cells, T(0));
    next.assign(cells, T(0));
    if (cfg.model == BoundaryModel::FdMm) {
      const std::size_t stateLen =
          static_cast<std::size_t>(cfg.numBranches) * grid_->boundaryPoints();
      g1.assign(stateLen, T(0));
      v1.assign(stateLen, T(0));
      v2.assign(stateLen, T(0));
    }
  }

  void addImpulse(int x, int y, int z, T amplitude) {
    curr[cfg_.room.index(x, y, z)] += amplitude;
  }

  void step() {
    const RoomGrid& g = *grid_;
    const T l = static_cast<T>(cfg_.params.l());
    const T l2 = static_cast<T>(cfg_.params.l2());
    const auto numB = static_cast<std::int64_t>(g.boundaryPoints());
    if (cfg_.model == BoundaryModel::FusedFi) {
      refFusedFiLookup(g.nbrs.data(), prev.data(), curr.data(), next.data(),
                       g.nx, g.ny, g.nz, l, l2, beta_[0]);
    } else {
      refVolume(g.nbrs.data(), prev.data(), curr.data(), next.data(), g.nx,
                g.ny, g.nz, l2);
    }
    switch (cfg_.model) {
      case BoundaryModel::FusedFi:
        break;
      case BoundaryModel::FiSplit:
        refFiBoundary(g.boundaryIndices.data(), g.nbrs.data(), prev.data(),
                      next.data(), numB, l, beta_[0]);
        break;
      case BoundaryModel::FiMm:
        refFiMmBoundary(g.boundaryIndices.data(), g.nbrs.data(),
                        g.material.data(), beta_.data(), prev.data(),
                        next.data(), numB, l);
        break;
      case BoundaryModel::FdMm:
        refFdMmBoundary(g.boundaryIndices.data(), g.nbrs.data(),
                        g.material.data(), beta_.data(), bi_.data(),
                        d_.data(), di_.data(), f_.data(), cfg_.numBranches,
                        prev.data(), next.data(), g1.data(), v1.data(),
                        v2.data(), numB, l);
        std::swap(v1, v2);
        break;
    }
    std::swap(prev, curr);
    std::swap(curr, next);
    ++steps;
  }

  void run(int n) {
    for (int s = 0; s < n; ++s) step();
  }

  /// Result [r][s] is receiver r after step s, as Simulation<T>::record.
  std::vector<std::vector<T>> record(int n,
                                     const std::vector<Receiver>& receivers) {
    std::vector<std::vector<T>> out(receivers.size());
    for (int s = 0; s < n; ++s) {
      step();
      for (std::size_t r = 0; r < receivers.size(); ++r) {
        const auto& rx = receivers[r];
        out[r].push_back(curr[cfg_.room.index(rx.x, rx.y, rx.z)]);
      }
    }
    return out;
  }

  std::vector<T> prev, curr, next;
  std::vector<T> g1, v1, v2;  // FD-MM only
  int steps = 0;

private:
  typename Simulation<T>::Config cfg_;
  std::shared_ptr<const RoomGrid> grid_;
  std::vector<T> beta_, bi_, d_, di_, f_;
};

template <typename T>
bool sameBits(const T* a, const T* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

/// Step count, curr, prev and FD-MM g1/v1/v2 of `sim` against the oracle
/// after the same steps, bitwise.
template <typename T>
void expectStateMatches(const Simulation<T>& sim,
                        const ListingOracle<T>& oracle,
                        const std::string& what) {
  EXPECT_EQ(sim.stepsTaken(), oracle.steps) << what;
  const std::size_t cells = sim.grid().cells();
  ASSERT_EQ(cells, oracle.curr.size()) << what;
  EXPECT_TRUE(sameBits(sim.curr(), oracle.curr.data(), cells))
      << what << ": curr differs";
  EXPECT_TRUE(sameBits(sim.prev(), oracle.prev.data(), cells))
      << what << ": prev differs";
  const std::size_t stateLen = oracle.g1.size();
  ASSERT_EQ(sim.fdStateLen(), stateLen) << what;
  EXPECT_TRUE(sameBits(sim.g1(), oracle.g1.data(), stateLen))
      << what << ": FD-MM g1 differs";
  EXPECT_TRUE(sameBits(sim.v1(), oracle.v1.data(), stateLen))
      << what << ": FD-MM v1 differs";
  EXPECT_TRUE(sameBits(sim.v2(), oracle.v2.data(), stateLen))
      << what << ": FD-MM v2 differs";
}

template <typename T>
void expectTracesMatch(const std::vector<std::vector<T>>& got,
                       const std::vector<std::vector<T>>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << what;
    EXPECT_TRUE(sameBits(got[r].data(), want[r].data(), want[r].size()))
        << what << ": receiver " << r << " trace differs";
  }
}

struct Impulse {
  int x = 0, y = 0, z = 0;
  double amplitude = 1.0;
};

/// One recorded run of `cfg` through the stepper and the oracle from the
/// same impulses: traces, then the full final state, compared bitwise.
template <typename T>
void expectStepperMatchesOracle(const typename Simulation<T>::Config& cfg,
                                const std::vector<Impulse>& impulses,
                                const std::vector<Receiver>& receivers,
                                int steps, const std::string& what) {
  Simulation<T> sim(cfg);
  ListingOracle<T> oracle(cfg);
  for (const auto& i : impulses) {
    sim.addImpulse(i.x, i.y, i.z, static_cast<T>(i.amplitude));
    oracle.addImpulse(i.x, i.y, i.z, static_cast<T>(i.amplitude));
  }
  expectTracesMatch(sim.record(steps, receivers),
                    oracle.record(steps, receivers), what);
  expectStateMatches(sim, oracle, what);
}

}  // namespace lifta::acoustics
