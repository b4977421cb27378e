// The room acoustics simulation driver.
//
// Owns the grid state (three rotating pressure buffers plus, for FD-MM, the
// per-branch boundary state g1/v1/v2), injects sources, samples receivers
// and steps the chosen boundary model using the reference kernels. This is
// the "hand-written C" tier of the reproduction; the OpenCL-style and
// LIFT-generated tiers (src/lift_acoustics) are validated against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "acoustics/geometry.hpp"
#include "acoustics/materials.hpp"
#include "acoustics/reference_kernels.hpp"
#include "acoustics/sim_params.hpp"
#include "acoustics/step_profiler.hpp"
#include "common/aligned_buffer.hpp"
#include "common/thread_pool.hpp"

namespace lifta::acoustics {

enum class BoundaryModel {
  FusedFi,  // Listing 1 (lookup variant): one kernel, single material
  FiSplit,  // Listing 2: volume kernel + single-material boundary kernel
  FiMm,     // Listing 3: volume kernel + multi-material FI boundary
  FdMm,     // Listing 4: volume kernel + frequency-dependent boundary
};

const char* modelName(BoundaryModel m);

struct StepGraphSpec;  // step_graph.hpp

/// A receiver position on the grid (must be inside the room).
struct Receiver {
  int x = 0;
  int y = 0;
  int z = 0;
};

template <typename T>
class Simulation {
public:
  struct Config {
    Room room;
    SimParams params;
    BoundaryModel model = BoundaryModel::FiMm;
    int numMaterials = 1;
    int numBranches = 0;  // FD-MM only
    /// Optional explicit materials; defaultMaterials() otherwise.
    std::vector<Material> materials;
    /// Optional externally owned stepping pool, shared with other
    /// simulations (the RIR job service composes job-level concurrency
    /// this way). Overrides params.threads when non-null; must outlive
    /// the Simulation.
    ThreadPool* pool = nullptr;
  };

  explicit Simulation(Config config);
  ~Simulation();

  const Config& config() const { return config_; }
  const RoomGrid& grid() const { return *grid_; }
  const FdCoeffs& fdCoeffs() const { return fd_; }
  const std::vector<Material>& materials() const { return materials_; }

  /// Adds an impulse to the current pressure field. Coordinates must be
  /// inside the room.
  void addImpulse(int x, int y, int z, T amplitude);

  /// Advances one time step (volume kernel + boundary kernel, per model):
  /// a one-step batch of the task graph, so no cross-step pipelining.
  void step();

  /// Advances up to `steps` steps; the steps of a batch pipeline across
  /// the pool. If `cancel` is non-null and becomes true, stepping stops at
  /// a step boundary — at task granularity: tasks of steps past the cutoff
  /// become no-ops while the in-flight graph drains — and the number of
  /// fully completed steps is returned (== `steps` when never cancelled).
  /// The state always lands exactly on the returned step.
  int run(int steps, const std::atomic<bool>* cancel = nullptr);

  /// Runs `steps` steps recording the pressure at (x,y,z) after each —
  /// a room impulse response when combined with addImpulse.
  std::vector<T> record(int steps, int x, int y, int z);

  /// Multi-receiver variant: one pass over `steps` steps sampling every
  /// receiver after each step. Result [r][s] is receiver r at step s, and
  /// is bit-identical to `receivers.size()` single-receiver runs (sampling
  /// never perturbs the field).
  std::vector<std::vector<T>> record(int steps,
                                     const std::vector<Receiver>& receivers);

  /// Cancellable multi-receiver recording: fills out[r][s] for the steps
  /// that completed and truncates every trace to that count. Returns the
  /// completed step count (see run()).
  int record(int steps, const std::vector<Receiver>& receivers,
             std::vector<std::vector<T>>& out, const std::atomic<bool>* cancel);

  /// Test-only: invoked at the start of every task-graph task body (jitter
  /// injection for scheduling stress tests). Must be thread-safe.
  void testSetTaskHook(std::function<void()> hook) {
    taskHook_ = std::move(hook);
  }

  int stepsTaken() const { return steps_; }

  /// Number of threads the stepper actually uses (resolved from
  /// params.threads; 1 means the graph runs serially on the caller).
  std::size_t threadsUsed() const;

  /// Opt-in per-kernel instrumentation: when enabled, every step records
  /// its volume/boundary task CPU time and its wall time into profile().
  void enableProfiling(bool on = true) { profiler_.setEnabled(on); }
  const StepProfiler& profile() const { return profiler_; }
  StepProfiler& profile() { return profiler_; }

  T sample(int x, int y, int z) const;
  /// Sum of squared pressure over the grid (decay/energy proxy).
  double energy() const;
  double maxAbs() const;

  // Raw state access for the cross-implementation equivalence tests and
  // the service checkpoint writer/restorer. The mutable pointers alias the
  // same rotating buffers the stepper uses, so writing a previously saved
  // prev/curr/next (+ g1/v1/v2 and the step counter) reproduces the saved
  // trajectory bit-for-bit.
  const T* prev() const { return prev_; }
  const T* curr() const { return curr_; }
  const T* next() const { return next_; }
  T* prevMutable() { return prev_; }
  T* currMutable() { return curr_; }
  T* nextMutable() { return next_; }
  const T* g1() const { return g1_.data(); }
  const T* v1() const { return v1_; }
  const T* v2() const { return v2_; }
  T* g1Mutable() { return g1_.data(); }
  T* v1Mutable() { return v1_; }
  T* v2Mutable() { return v2_; }
  std::size_t fdStateLen() const { return g1_.size(); }
  /// Overwrites the step counter (service checkpoint restore only).
  void setStepsTaken(int steps) { steps_ = steps; }

private:
  /// Boundary dispatch: executes slot range [j0, j1) of the class-major
  /// sorted layout by walking the overlapping launches and calling the
  /// per-class (uniform-nbr) or mixed-fallback kernel of the active model.
  /// Disjoint slot ranges write disjoint cells (cellSorted is a permutation
  /// of the boundary set), so any partition is race-free and bit-identical
  /// to the listings' kernels over the original boundary order.
  void runBoundarySlots(std::int64_t j0, std::int64_t j1, const T* prev,
                        T* next, T* v1, const T* v2, T l);

  /// (Re)builds the cached batch graph for `steps` steps and the given
  /// receiver set (nullptr = none).
  void ensureStepGraph(int steps, const std::vector<std::size_t>* recvIdx);
  /// Executes up to `steps` steps through the task graph in batches;
  /// returns completed steps (< steps only when cancelled).
  int runTaskGraph(int steps, const std::vector<std::size_t>* recvIdx,
                   std::vector<std::vector<T>>* out, std::size_t outBase,
                   const std::atomic<bool>* cancel);
  /// Body of task `ti` of the cached graph (runs on any pool thread).
  void runGraphTask(std::size_t ti);

  Config config_;
  /// Shared immutable grid from the voxelization cache: repeated configs
  /// (bench sweeps) reuse one grid + interior-run plan.
  std::shared_ptr<const RoomGrid> grid_;
  ThreadPool* pool_ = nullptr;  // the stepping pool; never null
  std::unique_ptr<ThreadPool> ownedPool_;
  StepProfiler profiler_;
  /// Boundary launch plan (empty for the fused model or a grid without
  /// boundary points), derived from the grid's BoundaryClassPlan at
  /// construction via planBoundaryLaunches.
  std::vector<BoundaryLaunch> launches_;
  std::vector<Material> materials_;
  std::vector<T> beta_;
  FdCoeffs fd_;
  std::vector<T> bi_, d_, di_, f_;

  AlignedArray<T> bufA_, bufB_, bufC_;
  T* prev_ = nullptr;
  T* curr_ = nullptr;
  T* next_ = nullptr;

  AlignedArray<T> g1_, velA_, velB_;
  T* v1_ = nullptr;
  T* v2_ = nullptr;

  int steps_ = 0;

  // ---- Task-graph batch state ----------------------------------------
  // The graph's task bodies are closures over `this` + a task index; all
  // per-batch inputs (buffer rotation bases, receiver output, cancel flag)
  // live in these members, so the same graph object is reusable across
  // batches of the same shape.
  std::unique_ptr<TaskGraph> stepGraph_;
  std::unique_ptr<StepGraphSpec> graphSpec_;
  int cachedBatchSteps_ = -1;
  std::vector<std::size_t> cachedRecvIdx_;
  bool cachedHasRecv_ = false;

  /// Physical pressure buffers in batch-start role order (prev,curr,next).
  T* batchBuf_[3] = {nullptr, nullptr, nullptr};
  /// FD-MM velocity arrays in batch-start role order (v1,v2).
  T* batchVel_[2] = {nullptr, nullptr};
  std::vector<std::vector<T>>* batchOut_ = nullptr;
  std::size_t batchOutBase_ = 0;
  const std::vector<std::size_t>* batchRecv_ = nullptr;
  const std::atomic<bool>* batchCancel_ = nullptr;
  /// Highest batch-relative step any task has started.
  std::atomic<int> batchMaxStarted_{-1};
  /// Once cancellation is observed: last step allowed to execute. Tasks of
  /// later steps become no-ops (the graph still drains), so exactly the
  /// steps [0, cutoff] complete — a clean step boundary.
  std::atomic<int> batchCutoff_{0};
  /// Per-step per-phase CPU-time accumulators (profiling only).
  std::vector<std::atomic<std::uint64_t>> profVolNs_, profBndNs_;
  bool profActive_ = false;
  std::function<void()> taskHook_;
};

extern template class Simulation<float>;
extern template class Simulation<double>;

}  // namespace lifta::acoustics
