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

/// The kernel call behind a step program's kernel node: the node itself,
/// or the call its WriteTo wraps.
const host::KernelSpec& kernelOf(const host::HostPtr& node) {
  return node->op == host::HOp::WriteTo ? node->call->kernel : node->kernel;
}

/// The constants a kernel node is specialized on, keyed by the job class
/// (DESIGN.md §12): the material count and the update coefficients are
/// baked — the same values buildProgram binds to M, l and l2 (bit-identity
/// depends on it) — and the room's sizes and launch counts stay run-time
/// scalars.
memory::Specialization classSpec(const host::HostPtr& node,
                                 std::size_t materials,
                                 const acoustics::SimParams& params) {
  return classSpecialization(kernelOf(node).def,
                             static_cast<std::int64_t>(materials), params.l(),
                             params.l2());
}

}  // namespace

struct DeviceSimulation::Impl {
  /// The program and its nodes; every kernel node is a hot-swap target,
  /// and step.kernels[k] is RunStats kernel k.
  StepProgram step;
  std::shared_ptr<host::CompiledHostProgram> compiled;

  /// Specialized and Tiered: one background build per kernel node.
  struct PendingSwap {
    std::size_t kernel = 0;  // index into step.kernels
    codegen::GeneratedKernel gen;
    ocl::CompileQueue::TicketPtr ticket;
    bool done = false;
  };
  std::vector<PendingSwap> pending;
  std::size_t swapped = 0;   // hot-swapped kernel count
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

  // Specialized builds the way Tiered does and waits for the builds, so
  // every kernel whose build succeeds runs specialized from step 0.
  if (config_.kernelTier != KernelTier::Generic) queueSpecializations();
  if (config_.kernelTier == KernelTier::Specialized) waitForSpecialization();
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

  im.step = buildStepProgram(config_.model, config_.precision,
                             config_.numBranches, launches);
  im.compiled = im.step.prog.compile(ctx, config_.precision);

  // --- static bindings -----------------------------------------------------
  // next_h stays unbound, so no run copies the field to the host: sample()
  // reads one element of the last boundary node's device buffer instead.
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
  for (std::size_t k = 0; k < im.step.kernels.size(); ++k) {
    const auto& node = im.step.kernels[k];
    try {
      auto def = kernelOf(node).def;
      def.real = config_.precision;
      auto opts = codegen::CodegenOptions::fromEnv();
      opts.spec = classSpec(node, im.beta.size(), config_.params);
      // Codegen — including the translation-validation gate over the
      // specialized IR — runs here on the calling thread; only the C
      // compiler subprocess is backgrounded. A kernel whose specialization
      // fails to generate or validate simply stays generic.
      Impl::PendingSwap ps;
      ps.kernel = k;
      ps.gen = codegen::generateKernel(def, opts);
      ps.ticket = queue.submit(ps.gen.source, ps.gen.buildFlags);
      im.pending.push_back(std::move(ps));
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "lifta: specialization of kernel '%s' failed (%s); "
                   "keeping the generic kernel\n",
                   kernelOf(node).def.name.c_str(), e.what());
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
      im.compiled->replaceKernelProgram(im.step.kernels[ps.kernel], ps.gen,
                                        std::move(program));
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
  return impl_->step.kernels.size();
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
    const StepProgram& sp = im.step;
    auto p1 = c.deviceBuffer(sp.prev1);
    auto p2 = c.deviceBuffer(sp.prev2);
    auto nx = c.deviceBuffer(sp.kernels.front());
    c.setDeviceBuffer(sp.prev2, p1);
    c.setDeviceBuffer(sp.prev1, nx);
    c.setDeviceBuffer(sp.kernels.front(), p2);
    if (config_.model == DeviceModel::FdMm) {
      auto a = c.deviceBuffer(sp.v1);
      auto b = c.deviceBuffer(sp.v2);
      c.setDeviceBuffer(sp.v1, b);
      c.setDeviceBuffer(sp.v2, a);
    }
    stats = c.run(/*skipUploads=*/true);
  }
  ++steps_;
  const double vol = stats.kernels.at(0).second;
  double bnd = 0.0;
  for (std::size_t k = 1; k < im.step.kernels.size(); ++k) {
    bnd += stats.kernels.at(k).second;
  }
  volumeMs_ += vol;
  boundaryMs_ += bnd;
  return (vol + bnd) > 0 ? bnd / (vol + bnd) : 0.0;
}

double DeviceSimulation::sample(int x, int y, int z) {
  Impl& im = *impl_;
  const std::size_t idx = config_.room.index(x, y, z);
  const bool f64 = config_.precision == ir::ScalarKind::Double;
  // Before the first step the field is the staged initial state, impulses
  // included, as the first step uploads it (bindReal).
  if (!im.uploaded) {
    return f64 ? im.curr[idx]
               : static_cast<double>(static_cast<float>(im.curr[idx]));
  }
  // The last boundary launch wrote the step's result in place, so its
  // node's buffer holds the whole updated field; read just this element.
  const auto buf = im.compiled->deviceBuffer(im.step.kernels.back());
  if (f64) {
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
