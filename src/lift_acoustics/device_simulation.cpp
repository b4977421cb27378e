#include "lift_acoustics/device_simulation.hpp"

#include <cstdio>
#include <deque>
#include <string>

#include "common/error.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/compile_queue.hpp"

namespace lifta::lift_acoustics {

namespace {

template <typename T>
void bindVec(host::CompiledHostProgram& c, const std::string& name,
             const std::vector<T>& v) {
  c.bindBuffer(name, v.data(), v.size() * sizeof(T));
}

/// Binds the slots [L.begin, L.end) of one of the plan's sorted arrays.
void bindSlice(host::CompiledHostProgram& c, const std::string& name,
               const std::vector<std::int32_t>& v,
               const acoustics::BoundaryLaunch& L) {
  c.bindBuffer(name, v.data() + L.begin,
               static_cast<std::size_t>(L.count()) * sizeof(std::int32_t));
}

}  // namespace

struct DeviceSimulation::Impl {
  host::HostProgram prog;
  host::HostPtr prev1G, prev2G, nextG, v1G, v2G;
  /// One node per boundary kernel launch: the fused kernel alone, or one
  /// per launch of the plan. Their RunStats kernel indices are
  /// 1..bndNodes.size().
  std::vector<host::HostPtr> bndNodes;
  std::shared_ptr<host::CompiledHostProgram> compiled;

  /// One generated kernel eligible for constant specialization: the host
  /// node to hot-swap (KernelCall or its WriteTo wrapper) plus the kernel
  /// definition and its class constants, keyed by kernel parameter name.
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

  // Host staging. The real arrays are kept in double; the int arrays are
  // bound straight from the shared grid.
  ir::ScalarKind real = ir::ScalarKind::Double;
  std::vector<double> curr, prev, beta, branchState;
  acoustics::FdCoeffs fd;
  /// The f32 copies bindReal binds; a deque keeps their addresses stable.
  std::deque<std::vector<float>> f32Copies;
  bool uploaded = false;

  /// Binds a real host array at the kernels' precision: `v` itself in
  /// f64, a static_cast<float> copy of it in f32.
  void bindReal(const std::string& name, const std::vector<double>& v) {
    if (real == ir::ScalarKind::Double) {
      bindVec(*compiled, name, v);
    } else {
      bindVec(*compiled, name, f32Copies.emplace_back(v.begin(), v.end()));
    }
  }
};

DeviceSimulation::DeviceSimulation(ocl::Context& ctx, Config config)
    : config_(std::move(config)), ctx_(&ctx) {
  const bool fdmm = config_.model == DeviceModel::FdMm;
  LIFTA_CHECK(config_.params.stable(), acoustics::kCourantRangeMessage);
  LIFTA_CHECK(config_.numMaterials >= 1, "need at least one material");
  if (fdmm) {
    LIFTA_CHECK(config_.numBranches >= 1 &&
                    config_.numBranches <= acoustics::kMaxBranches,
                "FD-MM needs 1..kMaxBranches ODE branches");
  }
  LIFTA_CHECK(config_.params.boundaryFissionMinPoints >= 0,
              "params.boundaryFissionMinPoints must be >= 0");
  grid_ = acoustics::voxelizeCached(config_.room, config_.numMaterials);
  const auto mats =
      config_.materials.empty()
          ? acoustics::defaultMaterials(config_.numMaterials,
                                        fdmm ? config_.numBranches : 0)
          : config_.materials;
  // The boundary kernels read beta[material id] unchecked.
  LIFTA_CHECK(static_cast<int>(mats.size()) >= config_.numMaterials,
              "fewer materials than material ids in use");
  impl_ = buildProgram(ctx, mats);

  if (config_.kernelTier == KernelTier::Specialized) {
    // buildProgram compiled every kernel specialized already; record that
    // for the tier accessors.
    impl_->swapped = totalKernels();
    impl_->firstSwapStep = 0;
  } else if (config_.kernelTier == KernelTier::Tiered) {
    queueSpecializations();
  }
}

std::unique_ptr<DeviceSimulation::Impl> DeviceSimulation::buildProgram(
    ocl::Context& ctx, const std::vector<acoustics::Material>& mats) {
  auto implPtr = std::make_unique<Impl>();
  Impl& im = *implPtr;
  const bool fdmm = config_.model == DeviceModel::FdMm;
  const int branches = fdmm ? config_.numBranches : 0;
  const std::size_t cells = grid_->cells();
  im.real = config_.precision;
  im.curr.assign(cells, 0.0);
  im.prev.assign(cells, 0.0);
  im.beta = acoustics::betaTable(mats);
  im.fd = acoustics::deriveFdCoeffs(mats, branches, config_.params.Ts());
  // FD-MM branch state g1, v1 and v2 all start at zero.
  im.branchState.assign(
      static_cast<std::size_t>(branches) * grid_->boundaryPoints(), 0.0);

  // The boundary schedule follows the launch plan. One mixed launch is the
  // fused kernel modulo point order, so it runs fused, like an empty plan;
  // any other plan runs one generated kernel per launch.
  const auto& cp = grid_->boundaryClasses;
  auto launches = acoustics::planBoundaryLaunches(
      cp, static_cast<std::int32_t>(config_.params.boundaryFissionMinPoints));
  if (launches.size() == 1 && launches.front().fixedNbr < 0) launches.clear();
  const bool fused = launches.empty();

  // --- Listing 5 host program --------------------------------------------
  auto& prog = im.prog;
  for (const char* s : {"nx", "ny", "nz", "nxny", "cells", "numB", "M"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  for (const char* s : {"l", "l2"}) {
    prog.declareScalar(s, host::ScalarType::Real);
  }

  // Constant specialization is keyed by the job class (DESIGN.md §12): the
  // material count and the update coefficients are baked — the same values
  // the setInt/setReal calls below bind (bit-identity depends on it) — and
  // the room's sizes and launch counts stay run-time scalars.
  const auto makeSpec = [&](const host::KernelSpec& ks) {
    return classSpecialization(*ks.def,
                               static_cast<std::int64_t>(im.beta.size()),
                               config_.params.l(), config_.params.l2());
  };
  const bool specializedBuild = config_.kernelTier == KernelTier::Specialized;
  im.prev1G = prog.toGPU(prog.hostParam("prev1_h"));
  im.prev2G = prog.toGPU(prog.hostParam("prev2_h"));
  auto nbrsG = prog.toGPU(prog.hostParam("nbrs_h"));
  // The flat boundary lists only ride along under the fused schedule; the
  // fission schedule uploads per-launch slices of the sorted layout instead.
  host::HostPtr boundG, matG;
  if (fused) {
    boundG = prog.toGPU(prog.hostParam("boundaries_h"));
    matG = prog.toGPU(prog.hostParam("material_h"));
  }
  auto betaG = prog.toGPU(prog.hostParam("beta_h"));

  host::KernelSpec volume;
  volume.def = liftVolumeKernel(config_.precision);
  volume.args = {{im.prev2G, ""},    {im.prev1G, ""},   {nbrsG, ""},
                 {nullptr, "nx"},    {nullptr, "nxny"}, {nullptr, "cells"},
                 {nullptr, "l2"}};
  volume.launchCountScalar = "cells";
  if (specializedBuild) volume.spec = makeSpec(volume);
  const host::HostPtr volNode = prog.kernelCall(volume);
  im.nextG = volNode;
  im.specTargets.push_back({volNode, *volume.def, makeSpec(volume)});

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

  if (fused) {
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
    const host::HostPtr updated =
        prog.writeTo(volNode, prog.kernelCall(boundary));
    im.bndNodes.push_back(updated);
    im.specTargets.push_back({updated, *boundary.def, makeSpec(boundary)});
  } else {
    // Fission schedule: one specialized kernel per launch, chained so each
    // updates the running `next` view in place. Within a step the launches
    // write disjoint cells (cellSorted is a permutation of the boundary
    // set), so the chain order is immaterial to the result.
    host::HostPtr cur = volNode;
    for (std::size_t k = 0; k < launches.size(); ++k) {
      const auto& L = launches[k];
      const std::string tag = std::to_string(k);
      const std::string countName = "count" + tag;
      prog.declareScalar(countName.c_str(), host::ScalarType::Int);
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
  }
  // The output copy-back is on demand via sample(), which reads one element
  // of the last boundary node's device buffer; next_h is never bound, so no
  // run copies the field to the host.
  prog.toHost(im.bndNodes.back(), "next_h");

  im.compiled = prog.compile(ctx, config_.precision);

  // --- static bindings -----------------------------------------------------
  auto& c = *im.compiled;
  bindVec(c, "nbrs_h", grid_->nbrs);
  if (fused) {
    bindVec(c, "boundaries_h", grid_->boundaryIndices);
    bindVec(c, "material_h", grid_->material);
  }
  im.bindReal("beta_h", im.beta);
  if (fdmm) {
    im.bindReal("bi_h", im.fd.BI);
    im.bindReal("d_h", im.fd.D);
    im.bindReal("di_h", im.fd.DI);
    im.bindReal("f_h", im.fd.F);
    for (const char* s : {"g1_h", "v1_h", "v2_h"}) {
      im.bindReal(s, im.branchState);
    }
  }
  for (std::size_t k = 0; k < launches.size(); ++k) {
    const auto& L = launches[k];
    const std::string tag = std::to_string(k);
    bindSlice(c, "cellsorted" + tag + "_h", cp.cellSorted, L);
    bindSlice(c, "matsorted" + tag + "_h", cp.matSorted, L);
    if (L.fixedNbr < 0) {
      bindSlice(c, "nbrsorted" + tag + "_h", cp.nbrSorted, L);
    }
    if (fdmm) bindSlice(c, "origpos" + tag + "_h", cp.order, L);
    c.setInt("count" + tag, static_cast<int>(L.count()));
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

  // Hot-swap point: finished background builds replace their generic
  // kernel here, strictly between runs, so a step always executes one
  // coherent kernel set. Specialization never changes data arithmetic, so
  // a swap at step k produces the same trajectory as never swapping.
  if (!im.pending.empty()) pollSpecializations();

  host::CompiledHostProgram::RunStats stats;
  if (!im.uploaded) {
    im.bindReal("prev1_h", im.curr);
    im.bindReal("prev2_h", im.prev);
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
  const auto buf = im.compiled->deviceBuffer(im.bndNodes.back());
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
  std::vector<std::vector<double>> out;
  record(n, {acoustics::Receiver{x, y, z}}, out, nullptr);
  return std::move(out[0]);
}

int DeviceSimulation::record(int steps,
                             const std::vector<acoustics::Receiver>& receivers,
                             std::vector<std::vector<double>>& out,
                             const std::atomic<bool>* cancel) {
  LIFTA_CHECK(!receivers.empty(), "need at least one receiver");
  LIFTA_CHECK(steps >= 0, "steps must be >= 0");
  for (const auto& r : receivers) {
    LIFTA_CHECK(config_.room.inside(r.x, r.y, r.z),
                "receiver point is outside");
  }
  out.assign(receivers.size(), {});
  for (auto& trace : out) trace.reserve(static_cast<std::size_t>(steps));
  int done = 0;
  for (; done < steps; ++done) {
    if (cancel != nullptr && cancel->load()) break;
    step();
    for (std::size_t r = 0; r < receivers.size(); ++r) {
      out[r].push_back(sample(receivers[r].x, receivers[r].y, receivers[r].z));
    }
  }
  return done;
}

}  // namespace lifta::lift_acoustics
