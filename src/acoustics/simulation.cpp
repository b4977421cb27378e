#include "acoustics/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "acoustics/step_graph.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace lifta::acoustics {

const char* modelName(BoundaryModel m) {
  switch (m) {
    case BoundaryModel::FusedFi: return "FI (fused)";
    case BoundaryModel::FiSplit: return "FI (two-kernel)";
    case BoundaryModel::FiMm: return "FI-MM";
    case BoundaryModel::FdMm: return "FD-MM";
  }
  return "?";
}

template <typename T>
Simulation<T>::Simulation(Config config) : config_(std::move(config)) {
  LIFTA_CHECK(config_.params.stable(), kCourantRangeMessage);
  LIFTA_CHECK(config_.numMaterials >= 1, "need at least one material");
  if (config_.model == BoundaryModel::FdMm) {
    LIFTA_CHECK(config_.numBranches >= 1 &&
                    config_.numBranches <= kMaxBranches,
                "FD-MM needs 1..kMaxBranches ODE branches");
  }

  grid_ = voxelizeCached(config_.room, config_.numMaterials);

  LIFTA_CHECK(config_.params.threads >= 0, "params.threads must be >= 0");
  LIFTA_CHECK(config_.params.tileZ >= 1, "params.tileZ must be >= 1");
  if (config_.pool != nullptr) {
    // Externally owned shared pool (the job service): params.threads is
    // ignored; the pool may be stepping other simulations concurrently.
    pool_ = config_.pool;
  } else if (config_.params.threads == 0) {
    pool_ = &ThreadPool::global();
  } else {
    // threads == 1 spawns no workers: ThreadPool::run executes the step
    // graph serially on the caller, so every thread count steps one path.
    ownedPool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(config_.params.threads));
    pool_ = ownedPool_.get();
  }

  LIFTA_CHECK(config_.params.boundaryFissionMinPoints >= 0,
              "params.boundaryFissionMinPoints must be >= 0");
  if (config_.model != BoundaryModel::FusedFi &&
      grid_->boundaryPoints() > 0) {
    launches_ = planBoundaryLaunches(
        grid_->boundaryClasses,
        static_cast<std::int32_t>(config_.params.boundaryFissionMinPoints));
  }

  materials_ = config_.materials.empty()
                   ? defaultMaterials(config_.numMaterials, config_.numBranches)
                   : config_.materials;
  LIFTA_CHECK(static_cast<int>(materials_.size()) >= config_.numMaterials,
              "fewer materials than material ids in use");
  for (const auto& m : materials_) beta_.push_back(static_cast<T>(m.beta));

  fd_ = deriveFdCoeffs(materials_, config_.numBranches, config_.params.Ts());
  for (double v : fd_.BI) bi_.push_back(static_cast<T>(v));
  for (double v : fd_.D) d_.push_back(static_cast<T>(v));
  for (double v : fd_.DI) di_.push_back(static_cast<T>(v));
  for (double v : fd_.F) f_.push_back(static_cast<T>(v));

  const std::size_t cells = grid_->cells();
  bufA_.reset(cells);
  bufB_.reset(cells);
  bufC_.reset(cells);
  prev_ = bufA_.data();
  curr_ = bufB_.data();
  next_ = bufC_.data();

  if (config_.model == BoundaryModel::FdMm) {
    const std::size_t stateLen =
        static_cast<std::size_t>(config_.numBranches) * grid_->boundaryPoints();
    g1_.reset(stateLen);
    velA_.reset(stateLen);
    velB_.reset(stateLen);
    v1_ = velA_.data();
    v2_ = velB_.data();
  }
}

template <typename T>
Simulation<T>::~Simulation() = default;

template <typename T>
void Simulation<T>::addImpulse(int x, int y, int z, T amplitude) {
  LIFTA_CHECK(config_.room.inside(x, y, z), "impulse point is outside");
  curr_[config_.room.index(x, y, z)] += amplitude;
}

template <typename T>
std::size_t Simulation<T>::threadsUsed() const {
  return pool_->threadCount();
}

template <typename T>
void Simulation<T>::runBoundarySlots(std::int64_t j0, std::int64_t j1,
                                     const T* prev, T* next, T* v1,
                                     const T* v2, T l) {
  const auto& cp = grid_->boundaryClasses;
  for (const auto& ln : launches_) {
    const std::int64_t b = std::max<std::int64_t>(j0, ln.begin);
    const std::int64_t e = std::min<std::int64_t>(j1, ln.end);
    if (b >= e) continue;
    switch (config_.model) {
      case BoundaryModel::FusedFi:
        break;  // never planned

      case BoundaryModel::FiSplit:
        if (ln.fixedNbr >= 0) {
          refFiClassRange(cp.cellSorted.data(), ln.fixedNbr, prev, next, b, e,
                          l, beta_[0]);
        } else {
          refFiMixedRange(cp.cellSorted.data(), cp.nbrSorted.data(), prev,
                          next, b, e, l, beta_[0]);
        }
        break;

      case BoundaryModel::FiMm:
        if (ln.fixedNbr >= 0) {
          refFiMmClassRange(cp.cellSorted.data(), cp.matSorted.data(),
                            ln.fixedNbr, beta_.data(), prev, next, b, e, l);
        } else {
          refFiMmMixedRange(cp.cellSorted.data(), cp.nbrSorted.data(),
                            cp.matSorted.data(), beta_.data(), prev, next, b,
                            e, l);
        }
        break;

      case BoundaryModel::FdMm: {
        const auto numB = static_cast<std::int64_t>(grid_->boundaryPoints());
        if (ln.fixedNbr >= 0) {
          refFdMmClassRange(cp.cellSorted.data(), cp.matSorted.data(),
                            cp.order.data(), ln.fixedNbr, beta_.data(),
                            bi_.data(), d_.data(), di_.data(), f_.data(),
                            config_.numBranches, prev, next, g1_.data(), v1,
                            v2, numB, b, e, l);
        } else {
          refFdMmMixedRange(cp.cellSorted.data(), cp.nbrSorted.data(),
                            cp.matSorted.data(), cp.order.data(), beta_.data(),
                            bi_.data(), d_.data(), di_.data(), f_.data(),
                            config_.numBranches, prev, next, g1_.data(), v1,
                            v2, numB, b, e, l);
        }
        break;
      }
    }
  }
}

template <typename T>
void Simulation<T>::step() {
  runTaskGraph(1, nullptr, nullptr, 0, nullptr);
}

template <typename T>
int Simulation<T>::run(int steps, const std::atomic<bool>* cancel) {
  return runTaskGraph(steps, nullptr, nullptr, 0, cancel);
}

template <typename T>
void Simulation<T>::ensureStepGraph(int steps,
                                    const std::vector<std::size_t>* recvIdx) {
  const bool hasRecv = recvIdx != nullptr && !recvIdx->empty();
  if (stepGraph_ && cachedBatchSteps_ == steps && cachedHasRecv_ == hasRecv &&
      (!hasRecv || cachedRecvIdx_ == *recvIdx)) {
    return;
  }
  static const std::vector<std::size_t> kNoReceivers;
  // Slabs exist to overlap work across threads. A worker-less pool runs
  // each phase as one whole-grid task, so its step pays no more dispatch or
  // profiling overhead than a plain serial loop.
  const int tileZ =
      pool_->threadCount() > 1 ? config_.params.tileZ : grid_->nz;
  graphSpec_ = std::make_unique<StepGraphSpec>(StepGraphSpec::build(
      *grid_, config_.model, tileZ, config_.numBranches, steps,
      hasRecv ? *recvIdx : kNoReceivers));
  stepGraph_ = std::make_unique<TaskGraph>();
  for (std::size_t ti = 0; ti < graphSpec_->tasks.size(); ++ti) {
    stepGraph_->add([this, ti] { runGraphTask(ti); });
  }
  for (const auto& e : graphSpec_->edges) {
    stepGraph_->addEdge(e.first, e.second);
  }
  cachedBatchSteps_ = steps;
  cachedHasRecv_ = hasRecv;
  cachedRecvIdx_ = hasRecv ? *recvIdx : kNoReceivers;
}

template <typename T>
void Simulation<T>::runGraphTask(std::size_t ti) {
  const StepTaskSpec& t = graphSpec_->tasks[ti];
  if (taskHook_) taskHook_();
  if (batchCancel_) {
    // Cancellation cutoff protocol; the order matters. (1) publish that
    // this step has started; (2) if cancelled and no cutoff chosen yet,
    // propose the max started step; (3) skip if past the cutoff. Any task
    // that executes its body has step <= cutoff, and every task of a step
    // <= cutoff executes, so the completed steps form an exact prefix.
    int started = batchMaxStarted_.load();
    while (t.step > started &&
           !batchMaxStarted_.compare_exchange_weak(started, t.step)) {
    }
    if (batchCancel_->load(std::memory_order_relaxed) &&
        batchCutoff_.load() == std::numeric_limits<int>::max()) {
      int expected = std::numeric_limits<int>::max();
      batchCutoff_.compare_exchange_strong(expected, batchMaxStarted_.load());
    }
    if (t.step > batchCutoff_.load()) return;
  }

  const int k = t.step;
  const T* prev = batchBuf_[StepGraphSpec::pressurePhys(0, k)];
  const T* curr = batchBuf_[StepGraphSpec::pressurePhys(1, k)];
  T* next = batchBuf_[StepGraphSpec::pressurePhys(2, k)];
  const T l = static_cast<T>(config_.params.l());
  const T l2 = static_cast<T>(config_.params.l2());
  const int nx = grid_->nx;
  const int ny = grid_->ny;
  const bool fused = config_.model == BoundaryModel::FusedFi;
  const std::uint64_t cpu0 = profActive_ ? threadCpuTimeNs() : 0;

  switch (t.phase) {
    case StepTaskSpec::Phase::Volume: {
      // Interior-run plan: branch-free vectorizable loops over the slab's
      // nbr==6 runs, then its residual boundary-adjacent cells with the
      // per-cell formula of the listing's lookup kernel. Interior and
      // residual cells are disjoint and both read only prev/curr.
      const auto& plan = grid_->interiorRuns;
      refVolumeRunsRange(plan.runBegin.data(), plan.runLen.data(), t.run0,
                         t.run1, prev, curr, next, nx, ny, l2);
      if (t.b0 < t.b1) {
        if (fused) {
          refFusedFiResidualRange(grid_->boundaryIndices.data(),
                                  grid_->boundaryNbr.data(), t.b0, t.b1, prev,
                                  curr, next, nx, ny, l, l2, beta_[0]);
        } else {
          refVolumeResidualRange(grid_->boundaryIndices.data(),
                                 grid_->boundaryNbr.data(), t.b0, t.b1, prev,
                                 curr, next, nx, ny, l2);
        }
      }
      break;
    }
    case StepTaskSpec::Phase::Boundary: {
      // This slab's boundary points through the per-class kernels, via the
      // spec's slab-class slot table. Same point set as [b0, b1) — the
      // table rows partition it by class — so the declared access hull
      // covers it.
      T* v1 = nullptr;
      const T* v2 = nullptr;
      if (config_.model == BoundaryModel::FdMm) {
        v1 = batchVel_[StepGraphSpec::velocityWritePhys(k)];
        v2 = batchVel_[1 - StepGraphSpec::velocityWritePhys(k)];
      }
      const auto& S = graphSpec_->slabClassSlot;
      const std::size_t row =
          static_cast<std::size_t>(t.slab) * kNumBoundaryClasses;
      for (int c = 0; c < kNumBoundaryClasses; ++c) {
        runBoundarySlots(
            S[row + static_cast<std::size_t>(c)],
            S[row + kNumBoundaryClasses + static_cast<std::size_t>(c)], prev,
            next, v1, v2, l);
      }
      break;
    }
    case StepTaskSpec::Phase::Sample: {
      const auto& recv = *batchRecv_;
      for (std::size_t r = 0; r < recv.size(); ++r) {
        (*batchOut_)[r][batchOutBase_ + static_cast<std::size_t>(k)] =
            next[recv[r]];
      }
      return;  // sampling is not attributed to either kernel phase
    }
  }

  if (profActive_) {
    auto& acc = t.phase == StepTaskSpec::Phase::Boundary ? profBndNs_
                                                         : profVolNs_;
    acc[static_cast<std::size_t>(k)].fetch_add(threadCpuTimeNs() - cpu0,
                                               std::memory_order_relaxed);
  }
}

template <typename T>
int Simulation<T>::runTaskGraph(int steps,
                                const std::vector<std::size_t>* recvIdx,
                                std::vector<std::vector<T>>* out,
                                std::size_t outBase,
                                const std::atomic<bool>* cancel) {
  // Batch size: enough steps in flight for the pipeline to cover the
  // boundary-phase tail of each step, small enough to bound cancellation
  // latency and graph size.
  constexpr int kBatchSteps = 16;
  int done = 0;
  while (done < steps) {
    if (cancel && cancel->load(std::memory_order_relaxed) && done > 0) break;
    const int batch = std::min(kBatchSteps, steps - done);
    ensureStepGraph(batch, recvIdx);

    batchBuf_[0] = prev_;
    batchBuf_[1] = curr_;
    batchBuf_[2] = next_;
    batchVel_[0] = v1_;
    batchVel_[1] = v2_;
    batchOut_ = out;
    batchOutBase_ = outBase + static_cast<std::size_t>(done);
    batchRecv_ = recvIdx;
    batchCancel_ = cancel;
    batchMaxStarted_.store(-1);
    batchCutoff_.store(std::numeric_limits<int>::max());
    profActive_ = profiler_.enabled();
    if (profActive_) {
      profVolNs_ = std::vector<std::atomic<std::uint64_t>>(
          static_cast<std::size_t>(batch));
      profBndNs_ = std::vector<std::atomic<std::uint64_t>>(
          static_cast<std::size_t>(batch));
    }

    Timer wall;
    pool_->run(*stepGraph_);

    int completed = batch;
    if (cancel) {
      const int cutoff = batchCutoff_.load();
      if (cutoff != std::numeric_limits<int>::max()) {
        completed = std::min(batch, cutoff + 1);
      }
    }
    if (profActive_ && completed > 0) {
      const double wallMs = wall.milliseconds() / completed;
      for (int k = 0; k < completed; ++k) {
        profiler_.recordStepTasked(
            static_cast<double>(
                profVolNs_[static_cast<std::size_t>(k)].load()) /
                1e6,
            static_cast<double>(
                profBndNs_[static_cast<std::size_t>(k)].load()) /
                1e6,
            grid_->cells(), wallMs);
      }
    }

    // Land the member pointers on the rotation of the last completed step.
    T* base[3] = {batchBuf_[0], batchBuf_[1], batchBuf_[2]};
    prev_ = base[StepGraphSpec::pressurePhys(0, completed)];
    curr_ = base[StepGraphSpec::pressurePhys(1, completed)];
    next_ = base[StepGraphSpec::pressurePhys(2, completed)];
    if (config_.model == BoundaryModel::FdMm && completed % 2 == 1) {
      std::swap(v1_, v2_);
    }
    steps_ += completed;
    done += completed;
    if (completed < batch) break;  // cancelled inside the batch
  }
  batchOut_ = nullptr;
  batchRecv_ = nullptr;
  batchCancel_ = nullptr;
  return done;
}

template <typename T>
std::vector<T> Simulation<T>::record(int steps, int x, int y, int z) {
  std::vector<std::vector<T>> out;
  record(steps, {Receiver{x, y, z}}, out, nullptr);
  return std::move(out[0]);
}

template <typename T>
std::vector<std::vector<T>> Simulation<T>::record(
    int steps, const std::vector<Receiver>& receivers) {
  std::vector<std::vector<T>> out;
  record(steps, receivers, out, nullptr);
  return out;
}

template <typename T>
int Simulation<T>::record(int steps, const std::vector<Receiver>& receivers,
                          std::vector<std::vector<T>>& out,
                          const std::atomic<bool>* cancel) {
  LIFTA_CHECK(!receivers.empty(), "need at least one receiver");
  LIFTA_CHECK(steps >= 0, "steps must be >= 0");
  std::vector<std::size_t> indices;
  indices.reserve(receivers.size());
  for (const auto& r : receivers) {
    LIFTA_CHECK(config_.room.inside(r.x, r.y, r.z),
                "receiver point is outside");
    indices.push_back(config_.room.index(r.x, r.y, r.z));
  }
  out.assign(receivers.size(), std::vector<T>(static_cast<std::size_t>(steps)));
  const int done = runTaskGraph(steps, &indices, &out, 0, cancel);
  if (done < steps) {
    for (auto& trace : out) trace.resize(static_cast<std::size_t>(done));
  }
  return done;
}

template <typename T>
T Simulation<T>::sample(int x, int y, int z) const {
  return curr_[config_.room.index(x, y, z)];
}

template <typename T>
double Simulation<T>::energy() const {
  double sum = 0.0;
  const std::size_t cells = grid_->cells();
  for (std::size_t i = 0; i < cells; ++i) {
    sum += static_cast<double>(curr_[i]) * static_cast<double>(curr_[i]);
  }
  return sum;
}

template <typename T>
double Simulation<T>::maxAbs() const {
  double m = 0.0;
  const std::size_t cells = grid_->cells();
  for (std::size_t i = 0; i < cells; ++i) {
    m = std::max(m, std::fabs(static_cast<double>(curr_[i])));
  }
  return m;
}

template class Simulation<float>;
template class Simulation<double>;

}  // namespace lifta::acoustics
