#include "lift_acoustics/device_simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "common/error.hpp"
#include "harness/autotune.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/compile_queue.hpp"

namespace lifta::lift_acoustics {

using acoustics::RoomGrid;

struct DeviceSimulation::Impl {
  host::HostProgram prog;
  host::HostPtr prev1G, prev2G, nextG, v1G, v2G;
  host::HostPtr volNode;  // the volume launch (for tuning)
  /// One node per boundary kernel launch: the fused kernel alone, or one
  /// per entry of `launches` under the fission schedule. Their RunStats
  /// kernel indices are 1..bndNodes.size().
  std::vector<host::HostPtr> bndNodes;
  host::HostPtr bndNode;  // last boundary node (program tail)
  std::shared_ptr<host::CompiledHostProgram> compiled;

  /// The boundary launch plan in effect; empty means the fused schedule.
  std::vector<acoustics::BoundaryLaunch> launches;

  /// One generated kernel eligible for constant specialization: the host
  /// node to hot-swap (KernelCall or its WriteTo wrapper) plus the kernel
  /// definition and the per-kernel constants (keyed by *kernel parameter*
  /// name — fission launches all name their count param "count" while the
  /// host scalars are "count<k>", so a per-kernel map is required).
  struct SpecTarget {
    host::HostPtr node;
    memory::KernelDef def;
    memory::Specialization spec;
  };
  std::vector<SpecTarget> specTargets;

  /// Tiered mode: one in-flight background build per target.
  struct PendingSwap {
    std::size_t target = 0;  // index into specTargets
    codegen::GeneratedKernel gen;
    ocl::CompileQueue::TicketPtr ticket;
    bool done = false;
  };
  std::vector<PendingSwap> pending;
  std::size_t swapped = 0;   // hot-swapped (or spec-built) kernel count
  int firstSwapStep = -1;

  // Host staging (double master copies; float shadows when needed).
  std::vector<double> curr, prev;
  std::vector<float> currF, prevF;
  std::vector<double> beta, bi, d, di, f, g1, v1, v2;
  std::vector<float> betaF, biF, dF, diF, fF, g1F, v1F, v2F;
  std::vector<std::int32_t> nbrs, bidx, mat;
  /// Per-launch slices of the class plan's sorted layout (fission only).
  std::vector<std::vector<std::int32_t>> launchCell, launchMat, launchNbr,
      launchPos;
  std::vector<std::int32_t> segStart, segKind;  // run-table variant only
  std::vector<double> nextZero;                 // initial zero "next" upload
  std::vector<float> nextZeroF;
  int segWidth = 0;
  bool uploaded = false;
};

namespace {

template <typename T>
void bindVec(host::CompiledHostProgram& c, const char* name,
             const std::vector<T>& v) {
  c.bindBuffer(name, v.data(), v.size() * sizeof(T));
}

std::vector<float> toF(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

/// Window width for the run-table volume kernel. Clamped to one z plane
/// per buildVolumeSegments' contract; 64 cells amortizes the per-segment
/// dispatch while keeping most windows pure interior on bench grids.
constexpr int kSegmentWidth = 64;

}  // namespace

DeviceSimulation::DeviceSimulation(ocl::Context& ctx, Config config)
    : config_(std::move(config)), ctx_(&ctx) {
  LIFTA_CHECK(config_.params.stable(), "Courant number exceeds the limit");
  LIFTA_CHECK(!(config_.useStencil3DVolume && config_.useRunTableVolume),
              "pick one volume kernel variant");
  grid_ = acoustics::voxelizeCached(config_.room, config_.numMaterials);
  const auto mats =
      config_.materials.empty()
          ? acoustics::defaultMaterials(
                config_.numMaterials,
                config_.model == DeviceModel::FdMm ? config_.numBranches : 0)
          : config_.materials;
  const auto fd = acoustics::deriveFdCoeffs(
      mats, config_.model == DeviceModel::FdMm ? config_.numBranches : 0,
      config_.params.Ts());

  // Resolve the boundary schedule. A plan of one mixed launch is the fused
  // kernel modulo point order — fission buys nothing there — so Auto only
  // fissions when at least one launch is specialized; with autotuning on it
  // measures both variants instead of guessing.
  auto launches = acoustics::planBoundaryLaunches(
      grid_->boundaryClasses,
      static_cast<std::int32_t>(
          std::max(0, config_.params.boundaryFissionMinPoints)));
  const bool degenerate =
      launches.size() == 1 && launches.front().fixedNbr < 0;
  bool fission = false;
  bool measuredPick = false;
  switch (config_.boundarySchedule) {
    case BoundarySchedule::Fused:
      break;
    case BoundarySchedule::Fission:
      fission = !launches.empty();
      break;
    case BoundarySchedule::Auto:
      if (launches.empty() || degenerate) {
        fission = false;
      } else if (config_.autoTuneLocalSize) {
        measuredPick = true;
      } else {
        fission = true;
      }
      break;
  }

  if (measuredPick) {
    impl_ = buildProgram(ctx, mats, fd, launches);
    autotuneLocalSizes();
    const double fisMs = measureBoundaryMs();
    auto fisImpl = std::move(impl_);
    impl_ = buildProgram(ctx, mats, fd, {});
    autotuneLocalSizes();
    const double fusMs = measureBoundaryMs();
    if (fisMs <= fusMs) impl_ = std::move(fisImpl);
  } else {
    impl_ = buildProgram(
        ctx, mats, fd,
        fission ? std::move(launches)
                : std::vector<acoustics::BoundaryLaunch>{});
    if (config_.autoTuneLocalSize) autotuneLocalSizes();
  }

  // Tier resolution runs after the schedule pick so background builds
  // target the program that will actually step.
  if (config_.kernelTier == KernelTier::Specialized) {
    // buildProgram compiled every kernel specialized already; record that
    // for the tier accessors.
    impl_->swapped = 1 + impl_->bndNodes.size();
    impl_->firstSwapStep = 0;
  } else if (config_.kernelTier == KernelTier::Tiered) {
    queueSpecializations();
  }
}

std::unique_ptr<DeviceSimulation::Impl> DeviceSimulation::buildProgram(
    ocl::Context& ctx, const std::vector<acoustics::Material>& mats,
    const acoustics::FdCoeffs& fd,
    std::vector<acoustics::BoundaryLaunch> launches) {
  auto implPtr = std::make_unique<Impl>();
  Impl& im = *implPtr;
  im.launches = std::move(launches);
  const std::size_t cells = grid_->cells();
  im.curr.assign(cells, 0.0);
  im.prev.assign(cells, 0.0);
  im.beta = acoustics::betaTable(mats);
  im.bi = fd.BI;
  im.d = fd.D;
  im.di = fd.DI;
  im.f = fd.F;
  const std::size_t stateLen =
      (config_.model == DeviceModel::FdMm
           ? static_cast<std::size_t>(config_.numBranches)
           : 0) *
      grid_->boundaryPoints();
  im.g1.assign(stateLen, 0.0);
  im.v1.assign(stateLen, 0.0);
  im.v2.assign(stateLen, 0.0);
  im.nbrs = grid_->nbrs;
  im.bidx = grid_->boundaryIndices;
  im.mat = grid_->material;

  // --- Listing 5 host program --------------------------------------------
  auto& prog = im.prog;
  for (const char* s : {"nx", "ny", "nz", "nxny", "cells", "numB", "M"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  for (const char* s : {"l", "l2"}) {
    prog.declareScalar(s, host::ScalarType::Real);
  }

  // Host-scalar values, known before any kernel is built — the same values
  // the setInt/setReal calls below bind at run time. They feed the
  // constant-specialization maps, which must therefore stay in lockstep
  // with those bindings (bit-identity depends on it).
  std::map<std::string, std::int64_t> intVals = {
      {"nx", grid_->nx},
      {"ny", grid_->ny},
      {"nz", grid_->nz},
      {"nxny", grid_->nx * grid_->ny},
      {"cells", static_cast<std::int64_t>(cells)},
      {"numB", static_cast<std::int64_t>(grid_->boundaryPoints())},
      {"M", static_cast<std::int64_t>(im.beta.size())},
  };
  std::map<std::string, double> realVals = {{"l", config_.params.l()},
                                            {"l2", config_.params.l2()}};
  // Builds the per-kernel constant map: walk the declared args (positionally
  // aligned with the kernel definition's parameters) and record every
  // scalar under its *kernel parameter* name.
  const auto makeSpec = [&](const host::KernelSpec& ks) {
    memory::Specialization s;
    const auto& params = ks.def->params;
    for (std::size_t i = 0; i < ks.args.size() && i < params.size(); ++i) {
      if (ks.args[i].buffer) continue;
      const auto& p = params[i];
      if (p->type->isScalar() &&
          p->type->scalarKind() == ir::ScalarKind::Int) {
        s.ints[p->name] = intVals.at(ks.args[i].scalarName);
      } else {
        s.reals[p->name] = realVals.at(ks.args[i].scalarName);
      }
    }
    return s;
  };
  const bool specializedBuild = config_.kernelTier == KernelTier::Specialized;
  im.prev1G = prog.toGPU(prog.hostParam("prev1_h"));
  im.prev2G = prog.toGPU(prog.hostParam("prev2_h"));
  auto nbrsG = prog.toGPU(prog.hostParam("nbrs_h"));
  // The flat boundary lists only ride along under the fused schedule; the
  // fission schedule uploads per-launch slices of the sorted layout instead.
  host::HostPtr boundG, matG;
  if (im.launches.empty()) {
    boundG = prog.toGPU(prog.hostParam("boundaries_h"));
    matG = prog.toGPU(prog.hostParam("material_h"));
  }
  auto betaG = prog.toGPU(prog.hostParam("beta_h"));

  host::KernelSpec volume;
  host::HostPtr volNode;
  if (config_.useRunTableVolume) {
    // Lower the interior-run plan to a fixed-width segment table uploaded
    // once; the kernel writes only segment windows, so `next` must be a
    // real (zero-filled, rotating) device buffer rather than the kernel's
    // implicit output — cells outside every segment keep their zeros.
    const auto segs = acoustics::buildVolumeSegments(
        *grid_, std::min(kSegmentWidth, grid_->nx * grid_->ny));
    im.segStart = segs.start;
    im.segKind = segs.kind;
    im.segWidth = segs.width;
    prog.declareScalar("numSeg", host::ScalarType::Int);
    prog.declareScalar("segW", host::ScalarType::Int);
    intVals["numSeg"] = static_cast<std::int64_t>(im.segStart.size());
    intVals["segW"] = im.segWidth;
    auto segStartG = prog.toGPU(prog.hostParam("segstart_h"));
    auto segKindG = prog.toGPU(prog.hostParam("segkind_h"));
    im.nextG = prog.toGPU(prog.hostParam("next0_h"));
    volume.def = liftVolumeRunsKernel(config_.precision);
    volume.args = {{im.prev2G, ""},     {im.prev1G, ""},     {nbrsG, ""},
                   {segStartG, ""},     {segKindG, ""},      {im.nextG, ""},
                   {nullptr, "nx"},     {nullptr, "nxny"},   {nullptr, "cells"},
                   {nullptr, "numSeg"}, {nullptr, "segW"},   {nullptr, "l2"}};
    volume.launchCountScalar = "numSeg";
    if (specializedBuild) volume.spec = makeSpec(volume);
    volNode = prog.writeTo(im.nextG, prog.kernelCall(volume));
  } else if (config_.useStencil3DVolume) {
    volume.def = liftVolumeStencil3DKernel(config_.precision);
    volume.args = {{im.prev2G, ""},  {im.prev1G, ""},  {nbrsG, ""},
                   {nullptr, "nx"},  {nullptr, "ny"},  {nullptr, "nz"},
                   {nullptr, "cells"}, {nullptr, "l2"}};
    // The Listing-6 kernel parallelizes over z planes.
    volume.launchCountScalar = "nz";
    volume.localSize = 1;
    if (specializedBuild) volume.spec = makeSpec(volume);
    im.nextG = prog.kernelCall(volume);
    volNode = im.nextG;
  } else {
    volume.def = liftVolumeKernel(config_.precision);
    volume.args = {{im.prev2G, ""},    {im.prev1G, ""},   {nbrsG, ""},
                   {nullptr, "nx"},    {nullptr, "nxny"}, {nullptr, "cells"},
                   {nullptr, "l2"}};
    volume.launchCountScalar = "cells";
    if (specializedBuild) volume.spec = makeSpec(volume);
    im.nextG = prog.kernelCall(volume);
    volNode = im.nextG;
  }
  im.specTargets.push_back({volNode, *volume.def, makeSpec(volume)});

  const bool fdmm = config_.model == DeviceModel::FdMm;
  host::HostPtr biG, dG, diG, fG, g1G;
  if (fdmm) {
    biG = prog.toGPU(prog.hostParam("bi_h"));
    dG = prog.toGPU(prog.hostParam("d_h"));
    diG = prog.toGPU(prog.hostParam("di_h"));
    fG = prog.toGPU(prog.hostParam("f_h"));
    im.v1G = prog.toGPU(prog.hostParam("v1_h"));
    im.v2G = prog.toGPU(prog.hostParam("v2_h"));
    g1G = prog.toGPU(prog.hostParam("g1_h"));
  }

  host::HostPtr updated;
  if (im.launches.empty()) {
    // Fused schedule: the Listing-7/8 kernel over the original order.
    host::KernelSpec boundary;
    if (!fdmm) {
      boundary.def = liftFiMmKernel(config_.precision);
      boundary.args = {{boundG, ""},       {matG, ""},        {nbrsG, ""},
                       {betaG, ""},        {volNode, ""},     {im.prev2G, ""},
                       {nullptr, "cells"}, {nullptr, "numB"}, {nullptr, "M"},
                       {nullptr, "l"}};
    } else {
      boundary.def = liftFdMmKernel(config_.precision, config_.numBranches);
      boundary.args = {{boundG, ""},   {matG, ""},     {nbrsG, ""},
                       {betaG, ""},    {biG, ""},      {dG, ""},
                       {diG, ""},      {fG, ""},       {volNode, ""},
                       {im.prev2G, ""}, {g1G, ""},     {im.v1G, ""},
                       {im.v2G, ""},   {nullptr, "cells"}, {nullptr, "numB"},
                       {nullptr, "M"}, {nullptr, "l"}};
    }
    boundary.launchCountScalar = "numB";
    if (specializedBuild) boundary.spec = makeSpec(boundary);
    updated = prog.writeTo(volNode, prog.kernelCall(boundary));
    im.bndNodes.push_back(updated);
    im.specTargets.push_back({updated, *boundary.def, makeSpec(boundary)});
  } else {
    // Fission schedule: one specialized kernel per launch, chained so each
    // updates the running `next` view in place. Within a step the launches
    // write disjoint cells (cellSorted is a permutation of the boundary
    // set), so the chain order is immaterial to the result.
    const auto& cp = grid_->boundaryClasses;
    host::HostPtr cur = volNode;
    for (std::size_t k = 0; k < im.launches.size(); ++k) {
      const auto& L = im.launches[k];
      const auto b0 = static_cast<std::size_t>(L.begin);
      const auto b1 = static_cast<std::size_t>(L.end);
      im.launchCell.emplace_back(cp.cellSorted.begin() + b0,
                                 cp.cellSorted.begin() + b1);
      im.launchMat.emplace_back(cp.matSorted.begin() + b0,
                                cp.matSorted.begin() + b1);
      im.launchNbr.emplace_back(cp.nbrSorted.begin() + b0,
                                cp.nbrSorted.begin() + b1);
      im.launchPos.emplace_back(cp.order.begin() + b0, cp.order.begin() + b1);

      const std::string tag = std::to_string(k);
      const std::string countName = "count" + tag;
      prog.declareScalar(countName.c_str(), host::ScalarType::Int);
      intVals[countName] = static_cast<std::int64_t>(L.count());
      auto cellG = prog.toGPU(prog.hostParam("cellsorted" + tag + "_h"));
      auto matSG = prog.toGPU(prog.hostParam("matsorted" + tag + "_h"));
      host::HostPtr nbrSG, posG;
      if (L.fixedNbr < 0) {
        nbrSG = prog.toGPU(prog.hostParam("nbrsorted" + tag + "_h"));
      }
      if (fdmm) {
        posG = prog.toGPU(prog.hostParam("origpos" + tag + "_h"));
      }

      host::KernelSpec b;
      if (!fdmm) {
        if (L.fixedNbr >= 0) {
          b.def = liftFiMmClassKernel(config_.precision, L.fixedNbr);
          b.args = {{cellG, ""},        {matSG, ""},
                    {betaG, ""},        {cur, ""},
                    {im.prev2G, ""},    {nullptr, "cells"},
                    {nullptr, countName}, {nullptr, "M"},
                    {nullptr, "l"}};
        } else {
          b.def = liftFiMmClassMixedKernel(config_.precision);
          b.args = {{cellG, ""},        {matSG, ""},
                    {nbrSG, ""},        {betaG, ""},
                    {cur, ""},          {im.prev2G, ""},
                    {nullptr, "cells"}, {nullptr, countName},
                    {nullptr, "M"},     {nullptr, "l"}};
        }
      } else {
        if (L.fixedNbr >= 0) {
          b.def = liftFdMmClassKernel(config_.precision, config_.numBranches,
                                      L.fixedNbr);
          b.args = {{cellG, ""},      {matSG, ""},    {posG, ""},
                    {betaG, ""},      {biG, ""},      {dG, ""},
                    {diG, ""},        {fG, ""},       {cur, ""},
                    {im.prev2G, ""},  {g1G, ""},      {im.v1G, ""},
                    {im.v2G, ""},     {nullptr, "cells"},
                    {nullptr, countName}, {nullptr, "numB"},
                    {nullptr, "M"},   {nullptr, "l"}};
        } else {
          b.def = liftFdMmClassMixedKernel(config_.precision,
                                           config_.numBranches);
          b.args = {{cellG, ""},      {matSG, ""},    {posG, ""},
                    {nbrSG, ""},      {betaG, ""},    {biG, ""},
                    {dG, ""},         {diG, ""},      {fG, ""},
                    {cur, ""},        {im.prev2G, ""}, {g1G, ""},
                    {im.v1G, ""},     {im.v2G, ""},   {nullptr, "cells"},
                    {nullptr, countName}, {nullptr, "numB"},
                    {nullptr, "M"},   {nullptr, "l"}};
        }
      }
      b.launchCountScalar = countName;
      if (specializedBuild) b.spec = makeSpec(b);
      cur = prog.writeTo(cur, prog.kernelCall(b));
      im.bndNodes.push_back(cur);
      im.specTargets.push_back({cur, *b.def, makeSpec(b)});
    }
    updated = cur;
  }
  im.volNode = volNode;
  im.bndNode = updated;
  // The output copy-back is on demand via sample(), which reads one element
  // of this node's device buffer; next_h is never bound, so no run copies
  // the field to the host.
  prog.toHost(updated, "next_h");

  im.compiled = prog.compile(ctx, config_.precision);

  // --- static bindings -----------------------------------------------------
  auto& c = *im.compiled;
  const bool dbl = config_.precision == ir::ScalarKind::Double;
  if (!dbl) {
    im.betaF = toF(im.beta);
    im.biF = toF(im.bi);
    im.dF = toF(im.d);
    im.diF = toF(im.di);
    im.fF = toF(im.f);
    im.g1F = toF(im.g1);
    im.v1F = toF(im.v1);
    im.v2F = toF(im.v2);
  }
  bindVec(c, "nbrs_h", im.nbrs);
  if (im.launches.empty()) {
    bindVec(c, "boundaries_h", im.bidx);
    bindVec(c, "material_h", im.mat);
  }
  if (dbl) {
    bindVec(c, "beta_h", im.beta);
  } else {
    bindVec(c, "beta_h", im.betaF);
  }
  if (config_.model == DeviceModel::FdMm) {
    if (dbl) {
      bindVec(c, "bi_h", im.bi);
      bindVec(c, "d_h", im.d);
      bindVec(c, "di_h", im.di);
      bindVec(c, "f_h", im.f);
      bindVec(c, "g1_h", im.g1);
      bindVec(c, "v1_h", im.v1);
      bindVec(c, "v2_h", im.v2);
    } else {
      bindVec(c, "bi_h", im.biF);
      bindVec(c, "d_h", im.dF);
      bindVec(c, "di_h", im.diF);
      bindVec(c, "f_h", im.fF);
      bindVec(c, "g1_h", im.g1F);
      bindVec(c, "v1_h", im.v1F);
      bindVec(c, "v2_h", im.v2F);
    }
  }
  if (config_.useRunTableVolume) {
    bindVec(c, "segstart_h", im.segStart);
    bindVec(c, "segkind_h", im.segKind);
    if (dbl) {
      im.nextZero.assign(cells, 0.0);
      bindVec(c, "next0_h", im.nextZero);
    } else {
      im.nextZeroF.assign(cells, 0.0f);
      bindVec(c, "next0_h", im.nextZeroF);
    }
    c.setInt("numSeg", static_cast<int>(im.segStart.size()));
    c.setInt("segW", im.segWidth);
  }
  for (std::size_t k = 0; k < im.launches.size(); ++k) {
    const std::string tag = std::to_string(k);
    bindVec(c, ("cellsorted" + tag + "_h").c_str(), im.launchCell[k]);
    bindVec(c, ("matsorted" + tag + "_h").c_str(), im.launchMat[k]);
    if (im.launches[k].fixedNbr < 0) {
      bindVec(c, ("nbrsorted" + tag + "_h").c_str(), im.launchNbr[k]);
    }
    if (config_.model == DeviceModel::FdMm) {
      bindVec(c, ("origpos" + tag + "_h").c_str(), im.launchPos[k]);
    }
    c.setInt(("count" + tag).c_str(),
             static_cast<int>(im.launches[k].count()));
  }
  c.setInt("nx", grid_->nx);
  c.setInt("ny", grid_->ny);
  c.setInt("nz", grid_->nz);
  c.setInt("nxny", grid_->nx * grid_->ny);
  c.setInt("cells", static_cast<int>(cells));
  c.setInt("numB", static_cast<int>(grid_->boundaryPoints()));
  c.setInt("M", static_cast<int>(im.beta.size()));
  c.setReal("l", config_.params.l());
  c.setReal("l2", config_.params.l2());
  return implPtr;
}

void DeviceSimulation::autotuneLocalSizes() {
  Impl& im = *impl_;
  auto& c = *im.compiled;
  const bool dbl = config_.precision == ir::ScalarKind::Double;
  // Bind the zero-filled initial state so the schedule can run. `uploaded`
  // stays false, so the first real step() re-binds and re-uploads pristine
  // state — the tuning runs leave no trace in simulation output.
  if (dbl) {
    bindVec(c, "prev1_h", im.curr);
    bindVec(c, "prev2_h", im.prev);
  } else {
    im.currF = toF(im.curr);
    im.prevF = toF(im.prev);
    bindVec(c, "prev1_h", im.currF);
    bindVec(c, "prev2_h", im.prevF);
  }
  c.run();  // materialize device buffers once at the spec defaults

  struct Target {
    host::HostPtr node;
    std::size_t kernelIdx;
  };
  std::vector<Target> targets;
  // The stencil3d volume kernel parallelizes over z planes with one plane
  // per work item; localSize = 1 is part of its contract, so skip it.
  if (!config_.useStencil3DVolume) targets.push_back({im.volNode, 0});
  // Each boundary launch is tuned independently: the classes differ in
  // size by orders of magnitude, so one shared work-group size would be
  // wrong for most of them.
  for (std::size_t k = 0; k < im.bndNodes.size(); ++k) {
    targets.push_back({im.bndNodes[k], 1 + k});
  }
  for (const auto& t : targets) {
    // The launch rule shrinks the work-group of a small chunk-scheduled
    // launch to reach every pool thread, so every candidate it shrinks
    // launches alike: time each distinct launch once, and leave a launch
    // whose candidates all launch alike at its default.
    std::vector<std::size_t> candidates;
    std::set<std::size_t> launched;
    for (const std::size_t ls : {16, 32, 64, 128, 256}) {
      if (launched.insert(c.launchRange(t.node, ls).local[0]).second) {
        candidates.push_back(ls);
      }
    }
    if (candidates.size() < 2) continue;
    const auto tuned = harness::autotuneWorkGroup(
        [&](std::size_t ls) {
          c.setLocalSize(t.node, ls);
          return c.run(/*skipUploads=*/true).kernels.at(t.kernelIdx).second;
        },
        candidates, /*iters=*/5, /*warmup=*/1);
    c.setLocalSize(t.node, tuned.bestLocalSize);
  }
}

void DeviceSimulation::queueSpecializations() {
  Impl& im = *impl_;
  auto& queue = ocl::CompileQueue::instance();
  for (std::size_t t = 0; t < im.specTargets.size(); ++t) {
    auto& target = im.specTargets[t];
    try {
      auto def = target.def;
      def.real = config_.precision;
      auto opts = codegen::CodegenOptions::fromEnv();
      opts.spec = target.spec;
      // Codegen — including the translation-validation gate over the
      // specialized IR — runs here on the calling thread; only the C
      // compiler subprocess is backgrounded. A kernel whose specialization
      // fails to generate or validate simply stays generic.
      Impl::PendingSwap ps;
      ps.target = t;
      ps.gen = codegen::generateKernel(def, opts);
      ps.ticket = queue.submit(ps.gen.source, ps.gen.buildFlags);
      im.pending.push_back(std::move(ps));
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "lifta: specialization of kernel '%s' failed (%s); "
                   "keeping the generic kernel\n",
                   target.def.name.c_str(), e.what());
    }
  }
}

void DeviceSimulation::pollSpecializations() {
  Impl& im = *impl_;
  for (auto& ps : im.pending) {
    if (ps.done || !ps.ticket->done()) continue;
    ps.done = true;
    if (ps.ticket->state() == ocl::CompileQueue::State::Ready) {
      // The background build parked the object in the Jit memory cache, so
      // this buildProgram is an instant cache hit, not a second compile.
      auto program = ctx_->buildProgram(ps.gen.source, ps.gen.buildFlags);
      im.compiled->replaceKernelProgram(im.specTargets[ps.target].node,
                                        ps.gen, std::move(program));
      ++im.swapped;
      if (im.firstSwapStep < 0) im.firstSwapStep = steps_;
    } else if (ps.ticket->state() == ocl::CompileQueue::State::Failed) {
      std::fprintf(stderr,
                   "lifta: background build of specialized kernel '%s' "
                   "failed (%s); keeping the generic kernel\n",
                   ps.gen.name.c_str(), ps.ticket->error().c_str());
    }
    // Cancelled tickets (batch teardown) also just stay generic.
  }
}

void DeviceSimulation::waitForSpecialization() {
  auto& queue = ocl::CompileQueue::instance();
  for (auto& ps : impl_->pending) {
    if (!ps.done) queue.wait(ps.ticket);
  }
  pollSpecializations();
}

std::size_t DeviceSimulation::totalKernels() const {
  return 1 + impl_->bndNodes.size();
}

std::size_t DeviceSimulation::specializedKernels() const {
  return impl_->swapped;
}

bool DeviceSimulation::specializationPending() const {
  for (const auto& ps : impl_->pending) {
    if (!ps.done) return true;
  }
  return false;
}

int DeviceSimulation::firstSwapStep() const { return impl_->firstSwapStep; }

double DeviceSimulation::measureBoundaryMs() {
  auto& c = *impl_->compiled;
  double best = std::numeric_limits<double>::infinity();
  for (int it = 0; it < 3; ++it) {
    const auto stats = c.run(/*skipUploads=*/true);
    double sum = 0.0;
    for (std::size_t k = 0; k < impl_->bndNodes.size(); ++k) {
      sum += stats.kernels.at(1 + k).second;
    }
    best = std::min(best, sum);
  }
  return best;
}

std::size_t DeviceSimulation::volumeLocalSize() const {
  return impl_->compiled->localSize(impl_->volNode);
}

std::size_t DeviceSimulation::boundaryLocalSize() const {
  return impl_->compiled->localSize(impl_->bndNodes.front());
}

std::size_t DeviceSimulation::boundaryLocalSize(std::size_t launch) const {
  return impl_->compiled->localSize(impl_->bndNodes.at(launch));
}

bool DeviceSimulation::boundaryFissionActive() const {
  return !impl_->launches.empty();
}

std::size_t DeviceSimulation::boundaryLaunchCount() const {
  return impl_->bndNodes.size();
}

const std::vector<acoustics::BoundaryLaunch>&
DeviceSimulation::boundaryLaunches() const {
  return impl_->launches;
}

std::size_t DeviceSimulation::prewarmSpecializations(ocl::Context& ctx,
                                                     Config config) {
  config.kernelTier = KernelTier::Tiered;
  DeviceSimulation sim(ctx, config);
  const std::size_t queued = sim.impl_->pending.size();
  // Detach the tickets: the destructor cancels whatever is still pending,
  // but a pre-warm exists precisely so the builds continue after this
  // temporary simulation dies. The CompileQueue holds its own references;
  // finished objects land in the process-wide Jit cache, and identical
  // later submissions dedup onto the in-flight tickets.
  sim.impl_->pending.clear();
  return queued;
}

DeviceSimulation::~DeviceSimulation() {
  // Builds still queued for a simulation being torn down are wasted work;
  // cancel what has not started (in-flight builds finish and just warm the
  // process-wide Jit cache for any later identical configuration).
  if (impl_) {
    auto& queue = ocl::CompileQueue::instance();
    for (auto& ps : impl_->pending) {
      if (!ps.done) queue.cancel(ps.ticket);
    }
  }
}

void DeviceSimulation::addImpulse(int x, int y, int z, double amplitude) {
  LIFTA_CHECK(!impl_->uploaded,
              "impulses must be added before the first step");
  LIFTA_CHECK(config_.room.inside(x, y, z), "impulse point is outside");
  impl_->curr[config_.room.index(x, y, z)] += amplitude;
}

double DeviceSimulation::step() {
  Impl& im = *impl_;
  auto& c = *im.compiled;
  const bool dbl = config_.precision == ir::ScalarKind::Double;

  // Hot-swap point: finished background builds replace their generic
  // kernel here, strictly between runs, so a step always executes one
  // coherent kernel set. Specialization never changes data arithmetic, so
  // a swap at step k produces the same trajectory as never swapping.
  if (!im.pending.empty()) pollSpecializations();

  host::CompiledHostProgram::RunStats stats;
  if (!im.uploaded) {
    if (dbl) {
      bindVec(c, "prev1_h", im.curr);
      bindVec(c, "prev2_h", im.prev);
    } else {
      im.currF = toF(im.curr);
      im.prevF = toF(im.prev);
      bindVec(c, "prev1_h", im.currF);
      bindVec(c, "prev2_h", im.prevF);
    }
    stats = c.run();
    im.uploaded = true;
  } else {
    // Rotate pressure: prev2 <- prev1 <- next <- (old prev2 storage).
    auto p1 = c.deviceBuffer(im.prev1G);
    auto p2 = c.deviceBuffer(im.prev2G);
    auto nx = c.deviceBuffer(im.nextG);
    c.setDeviceBuffer(im.prev2G, p1);
    c.setDeviceBuffer(im.prev1G, nx);
    c.setDeviceBuffer(im.nextG, p2);
    if (config_.model == DeviceModel::FdMm) {
      auto a = c.deviceBuffer(im.v1G);
      auto b = c.deviceBuffer(im.v2G);
      c.setDeviceBuffer(im.v1G, b);
      c.setDeviceBuffer(im.v2G, a);
    }
    stats = c.run(/*skipUploads=*/true);
  }
  ++steps_;
  const double vol = stats.kernels.at(0).second;
  double bnd = 0.0;
  for (std::size_t k = 0; k < im.bndNodes.size(); ++k) {
    bnd += stats.kernels.at(1 + k).second;
  }
  volumeMs_ += vol;
  boundaryMs_ += bnd;
  return (vol + bnd) > 0 ? bnd / (vol + bnd) : 0.0;
}

double DeviceSimulation::sample(int x, int y, int z) {
  Impl& im = *impl_;
  // Before the first step the field is the zero initial state.
  if (!im.uploaded) return 0.0;
  // The last boundary launch wrote the step's result in place, so its
  // node's buffer holds the whole updated field; read just this element.
  const auto buf = im.compiled->deviceBuffer(im.bndNode);
  const std::size_t idx = config_.room.index(x, y, z);
  if (config_.precision == ir::ScalarKind::Double) {
    double v = 0.0;
    buf->read(&v, sizeof v, idx * sizeof v);
    return v;
  }
  float v = 0.0f;
  buf->read(&v, sizeof v, idx * sizeof v);
  return static_cast<double>(v);
}

std::vector<double> DeviceSimulation::record(int n, int x, int y, int z) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    step();
    out.push_back(sample(x, y, z));
  }
  return out;
}

}  // namespace lifta::lift_acoustics
