// Shared device-side setup for the acoustics benchmarks: uploads one room's
// grids/boundary data/material tables and hands out launch-ready kernels in
// either implementation tier —
//   Impl::Handwritten : the hand-written OpenCL baseline (src/acoustics)
//   Impl::Lift        : the LIFT-generated kernel (src/lift_acoustics)
// Both tiers execute through the same simulated OpenCL runtime, which is
// exactly the comparison Figures 4-6 make.
#pragma once

#include <memory>
#include <string>

#include "acoustics/cl_kernels.hpp"
#include "acoustics/geometry.hpp"
#include "acoustics/materials.hpp"
#include "acoustics/sim_params.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/rng.hpp"
#include "harness/autotune.hpp"
#include "harness/launcher.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/runtime.hpp"

namespace lifta::harness {

enum class Impl { Handwritten, Lift };

inline const char* implName(Impl i) {
  return i == Impl::Handwritten ? "OpenCL" : "LIFT";
}

template <typename T>
constexpr ir::ScalarKind realKindOf() {
  return std::is_same_v<T, float> ? ir::ScalarKind::Float
                                  : ir::ScalarKind::Double;
}

inline const char* precisionName(ir::ScalarKind k) {
  return k == ir::ScalarKind::Double ? "Double" : "Single";
}

/// A kernel bound to its arguments and launch configuration.
struct BoundKernel {
  std::shared_ptr<ocl::Kernel> kernel;
  ocl::NDRange range;

  ocl::Event run(ocl::CommandQueue& q) { return q.enqueueNDRange(*kernel, range); }
};

/// Work-group size for one bench configuration: the fixed size from the
/// command line, or — with --autotune — autotuneWorkGroup's pick over the
/// candidate set, re-binding the kernel at each candidate. The JIT kernel
/// cache makes the repeated rebuilds cheap.
template <typename MakeBound>
std::size_t pickLocalSize(ocl::Context& ctx, bool autotune, std::size_t fixed,
                          MakeBound&& make) {
  if (!autotune) return fixed;
  ocl::CommandQueue q(ctx);
  return autotuneWorkGroup([&](std::size_t ls) {
           auto bound = make(ls);
           return bound.run(q).milliseconds;
         })
      .bestLocalSize;
}

template <typename T>
class AcousticBench {
public:
  AcousticBench(ocl::Context& ctx, const acoustics::Room& room,
                int numMaterials, int branches, std::uint64_t seed = 42)
      : ctx_(ctx), q_(ctx), branches_(branches) {
    grid_ = acoustics::voxelizeCached(room, numMaterials);
    const auto mats = acoustics::defaultMaterials(numMaterials, branches);
    const auto fd =
        acoustics::deriveFdCoeffs(mats, branches, params_.Ts());

    Rng rng(seed);
    const std::size_t cells = grid_->cells();
    std::vector<T> prev(cells, T(0)), curr(cells, T(0)), next(cells, T(0));
    for (std::size_t i = 0; i < cells; ++i) {
      if (grid_->nbrs[i] > 0) {
        prev[i] = static_cast<T>(rng.uniform(-0.1, 0.1));
        curr[i] = static_cast<T>(rng.uniform(-0.1, 0.1));
      }
    }
    std::vector<T> beta, bi, d, di, f;
    for (const auto& m : mats) beta.push_back(static_cast<T>(m.beta));
    for (double v : fd.BI) bi.push_back(static_cast<T>(v));
    for (double v : fd.D) d.push_back(static_cast<T>(v));
    for (double v : fd.DI) di.push_back(static_cast<T>(v));
    for (double v : fd.F) f.push_back(static_cast<T>(v));
    const std::size_t stateLen =
        static_cast<std::size_t>(branches) * grid_->boundaryPoints();
    std::vector<T> g1(stateLen, T(0)), v1(stateLen, T(0)), v2(stateLen, T(0));
    for (std::size_t i = 0; i < stateLen; ++i) {
      g1[i] = static_cast<T>(rng.uniform(-0.01, 0.01));
      v2[i] = static_cast<T>(rng.uniform(-0.01, 0.01));
    }

    prev_ = upload(ctx_, q_, prev);
    curr_ = upload(ctx_, q_, curr);
    next_ = upload(ctx_, q_, next);
    nbrs_ = upload(ctx_, q_, grid_->nbrs);
    bidx_ = upload(ctx_, q_, grid_->boundaryIndices);
    mat_ = upload(ctx_, q_, grid_->material);
    beta_ = upload(ctx_, q_, beta);
    bi_ = upload(ctx_, q_, bi);
    d_ = upload(ctx_, q_, d);
    di_ = upload(ctx_, q_, di);
    f_ = upload(ctx_, q_, f);
    g1_ = upload(ctx_, q_, g1);
    v1_ = upload(ctx_, q_, v1);
    v2_ = upload(ctx_, q_, v2);
  }

  std::size_t cells() const { return grid_->cells(); }
  std::size_t boundaryPoints() const { return grid_->boundaryPoints(); }
  const acoustics::RoomGrid& grid() const { return *grid_; }

  /// Overrides the optimizer options used for the LIFT tier (defaults to
  /// CodegenOptions::fromEnv(), i.e. optimized unless LIFTA_CODEGEN_OPT=0).
  void setCodegenOptions(const codegen::CodegenOptions& opts) { copts_ = opts; }
  const codegen::CodegenOptions& codegenOptions() const { return copts_; }

  BoundKernel volume(Impl impl, std::size_t local) {
    constexpr auto rk = realKindOf<T>();
    BoundKernel b;
    b.range = launchConfig(cells(), local);
    if (impl == Impl::Handwritten) {
      auto program = ctx_.buildProgram(acoustics::clVolumeSource(rk));
      b.kernel = std::make_shared<ocl::Kernel>(program, "volume_step");
      b.kernel->setArg(0, next_);
      b.kernel->setArg(1, prev_);
      b.kernel->setArg(2, curr_);
      b.kernel->setArg(3, nbrs_);
      b.kernel->setArg(4, nx());
      b.kernel->setArg(5, nxny());
      b.kernel->setArg(6, cellsI());
      b.kernel->setArg(7, l2());
      return b;
    }
    const auto gen =
        codegen::generateKernel(lift_acoustics::liftVolumeKernel(rk), copts_);
    b.range = launchConfigFor(gen, cells(), local, ThreadPool::global());
    auto program = ctx_.buildProgram(gen.source);
    b.kernel = std::make_shared<ocl::Kernel>(program, gen.name);
    bindKernelArgs(*b.kernel, gen.plan,
                   ArgMap{{"prev", prev_},
                          {"curr", curr_},
                          {"nbrs", nbrs_},
                          {"nx", nx()},
                          {"nxny", nxny()},
                          {"cells", cellsI()},
                          {"l2", l2()},
                          {"out", next_}});
    return b;
  }

  BoundKernel fusedFi(Impl impl, std::size_t local) {
    constexpr auto rk = realKindOf<T>();
    BoundKernel b;
    b.range = launchConfig(cells(), local);
    if (impl == Impl::Handwritten) {
      auto program = ctx_.buildProgram(acoustics::clFusedFiSource(rk));
      b.kernel = std::make_shared<ocl::Kernel>(program, "fused_fi");
      b.kernel->setArg(0, next_);
      b.kernel->setArg(1, prev_);
      b.kernel->setArg(2, curr_);
      b.kernel->setArg(3, nbrs_);
      b.kernel->setArg(4, nx());
      b.kernel->setArg(5, nxny());
      b.kernel->setArg(6, cellsI());
      b.kernel->setArg(7, l());
      b.kernel->setArg(8, l2());
      b.kernel->setArg(9, betaScalar());
      return b;
    }
    const auto gen = codegen::generateKernel(
        lift_acoustics::liftFusedFiKernel(rk), copts_);
    b.range = launchConfigFor(gen, cells(), local, ThreadPool::global());
    auto program = ctx_.buildProgram(gen.source);
    b.kernel = std::make_shared<ocl::Kernel>(program, gen.name);
    bindKernelArgs(*b.kernel, gen.plan,
                   ArgMap{{"prev", prev_},
                          {"curr", curr_},
                          {"nbrs", nbrs_},
                          {"nx", nx()},
                          {"nxny", nxny()},
                          {"cells", cellsI()},
                          {"l", l()},
                          {"l2", l2()},
                          {"beta", betaScalar()},
                          {"out", next_}});
    return b;
  }

  BoundKernel fiMm(Impl impl, std::size_t local) {
    constexpr auto rk = realKindOf<T>();
    BoundKernel b;
    b.range = launchConfig(boundaryPoints(), local);
    if (impl == Impl::Handwritten) {
      auto program = ctx_.buildProgram(acoustics::clFiMmBoundarySource(rk));
      b.kernel = std::make_shared<ocl::Kernel>(program, "fimm_boundary");
      b.kernel->setArg(0, next_);
      b.kernel->setArg(1, prev_);
      b.kernel->setArg(2, bidx_);
      b.kernel->setArg(3, nbrs_);
      b.kernel->setArg(4, mat_);
      b.kernel->setArg(5, beta_);
      b.kernel->setArg(6, numBI());
      b.kernel->setArg(7, l());
      return b;
    }
    const auto gen =
        codegen::generateKernel(lift_acoustics::liftFiMmKernel(rk), copts_);
    b.range = launchConfigFor(gen, boundaryPoints(), local,
                              ThreadPool::global());
    auto program = ctx_.buildProgram(gen.source);
    b.kernel = std::make_shared<ocl::Kernel>(program, gen.name);
    bindKernelArgs(*b.kernel, gen.plan,
                   ArgMap{{"boundaryIndices", bidx_},
                          {"material", mat_},
                          {"nbrs", nbrs_},
                          {"beta", beta_},
                          {"next", next_},
                          {"prev", prev_},
                          {"cells", cellsI()},
                          {"numB", numBI()},
                          {"M", numMaterialsI()},
                          {"l", l()}});
    return b;
  }

  BoundKernel fdMm(Impl impl, std::size_t local) {
    constexpr auto rk = realKindOf<T>();
    BoundKernel b;
    b.range = launchConfig(boundaryPoints(), local);
    if (impl == Impl::Handwritten) {
      auto program =
          ctx_.buildProgram(acoustics::clFdMmBoundarySource(rk, branches_));
      b.kernel = std::make_shared<ocl::Kernel>(program, "fdmm_boundary");
      b.kernel->setArg(0, next_);
      b.kernel->setArg(1, prev_);
      b.kernel->setArg(2, g1_);
      b.kernel->setArg(3, v1_);
      b.kernel->setArg(4, v2_);
      b.kernel->setArg(5, bidx_);
      b.kernel->setArg(6, nbrs_);
      b.kernel->setArg(7, mat_);
      b.kernel->setArg(8, beta_);
      b.kernel->setArg(9, bi_);
      b.kernel->setArg(10, d_);
      b.kernel->setArg(11, di_);
      b.kernel->setArg(12, f_);
      b.kernel->setArg(13, numBI());
      b.kernel->setArg(14, l());
      return b;
    }
    const auto gen = codegen::generateKernel(
        lift_acoustics::liftFdMmKernel(rk, branches_), copts_);
    b.range = launchConfigFor(gen, boundaryPoints(), local,
                              ThreadPool::global());
    auto program = ctx_.buildProgram(gen.source);
    b.kernel = std::make_shared<ocl::Kernel>(program, gen.name);
    bindKernelArgs(*b.kernel, gen.plan,
                   ArgMap{{"boundaryIndices", bidx_},
                          {"material", mat_},
                          {"nbrs", nbrs_},
                          {"beta", beta_},
                          {"BI", bi_},
                          {"D", d_},
                          {"DI", di_},
                          {"F", f_},
                          {"next", next_},
                          {"prev", prev_},
                          {"g1", g1_},
                          {"v1", v1_},
                          {"v2", v2_},
                          {"cells", cellsI()},
                          {"numB", numBI()},
                          {"M", numMaterialsI()},
                          {"l", l()}});
    return b;
  }

private:
  int nx() const { return grid_->nx; }
  int nxny() const { return grid_->nx * grid_->ny; }
  int cellsI() const { return static_cast<int>(grid_->cells()); }
  int numBI() const { return static_cast<int>(grid_->boundaryPoints()); }
  int numMaterialsI() const {
    int maxId = 0;
    for (int id : grid_->material) maxId = std::max(maxId, id);
    return maxId + 1;
  }
  T l() const { return static_cast<T>(params_.l()); }
  T l2() const { return static_cast<T>(params_.l2()); }
  T betaScalar() const {
    return static_cast<T>(acoustics::defaultMaterials(1, 0)[0].beta);
  }

  ocl::Context& ctx_;
  ocl::CommandQueue q_;
  std::shared_ptr<const acoustics::RoomGrid> grid_;
  acoustics::SimParams params_;
  codegen::CodegenOptions copts_ = codegen::CodegenOptions::fromEnv();
  int branches_ = 0;
  ocl::BufferPtr prev_, curr_, next_, nbrs_, bidx_, mat_, beta_;
  ocl::BufferPtr bi_, d_, di_, f_, g1_, v1_, v2_;
};

}  // namespace lifta::harness
