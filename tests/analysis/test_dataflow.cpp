// Host-program dataflow lint tests: each def-use defect class (dead write,
// redundant upload) is seeded into a small program and reported at the
// documented severity, and the clean shapes stay clean. Structural
// host-DAG defects live in test_host_lint.cpp.
#include "analysis/dataflow.hpp"

#include <gtest/gtest.h>

#include "host/host_program.hpp"
#include "ir/expr.hpp"
#include "memory/kernel_def.hpp"

namespace lifta::analysis {
namespace {

using namespace lifta::host;
using arith::Expr;

/// mapGlb(i => A[i] * 2, iota(N)): reads A, produces an implicit output
/// buffer — a *full* writer when wrapped in host-level WriteTo.
memory::KernelDef valueKernel() {
  using namespace lifta::ir;
  memory::KernelDef def;
  def.name = "scale";
  const Expr n = Expr::var("N");
  auto a = param("A", Type::array(Type::float_(), n));
  auto np = param("N", Type::int_());
  auto i = param("i", nullptr);
  def.params = {a, np};
  def.body = mapGlb(lambda({i}, arrayAccess(a, i) * litFloat(2.0f)), iota(n));
  return def;
}

KernelSpec specOver(memory::KernelDef def, HostPtr buf) {
  return KernelSpec{std::move(def), {{buf, ""}, {nullptr, "N"}}, "N"};
}

HostProgram freshProgram() {
  HostProgram prog;
  prog.declareScalar("N", ScalarType::Int);
  return prog;
}

std::size_t findingsAt(const Report& r, Severity sev,
                       const std::string& needle) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.severity == sev && d.pass == PassId::Dataflow &&
        d.message.find(needle) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(Dataflow, CleanPipelineHasNoFindings) {
  HostProgram prog = freshProgram();
  auto aG = prog.toGPU(prog.hostParam("a_h"));
  auto out = prog.kernelCall(specOver(valueKernel(), aG));
  prog.toHost(out, "out_h");
  const Report r = lintHostDataflow(prog, "clean");
  EXPECT_EQ(r.diagnostics.size(), 0u) << r.toText();
}

TEST(Dataflow, DeadWriteToScratchWarns) {
  HostProgram prog = freshProgram();
  auto aG = prog.toGPU(prog.hostParam("a_h"));
  // A kernel's fresh output buffer, used as scratch that nothing reads.
  auto s = prog.kernelCall(specOver(valueKernel(), aG));
  auto out = prog.kernelCall(specOver(valueKernel(), aG));
  prog.toHost(out, "out_h");
  // Computed into scratch, never read by anything: the work is dropped.
  prog.writeTo(s, prog.kernelCall(specOver(valueKernel(), aG)));
  const Report r = lintHostDataflow(prog);
  EXPECT_GE(findingsAt(r, Severity::Warning, "dead write"), 1u)
      << r.toText();
}

TEST(Dataflow, InPlaceUpdateOfUploadedStateIsOnlyANote) {
  // The FD-MM shape: a kernel updates an *uploaded* buffer in place and
  // nothing in this program reads it — steppers rotate such state between
  // runs with setDeviceBuffer, so this is a note, not a warning.
  HostProgram prog = freshProgram();
  auto aG = prog.toGPU(prog.hostParam("a_h"));
  auto vG = prog.toGPU(prog.hostParam("v_h"));
  auto out = prog.kernelCall(specOver(valueKernel(), aG));
  prog.toHost(out, "out_h");
  prog.writeTo(vG, prog.kernelCall(specOver(valueKernel(), aG)));
  const Report r = lintHostDataflow(prog);
  EXPECT_EQ(findingsAt(r, Severity::Warning, "dead write"), 0u)
      << r.toText();
  EXPECT_GE(findingsAt(r, Severity::Info, "dead write"), 1u) << r.toText();
}

TEST(Dataflow, UploadFullyOverwrittenBeforeAnyReadWarns) {
  HostProgram prog = freshProgram();
  auto aG = prog.toGPU(prog.hostParam("a_h"));  // upload never observed
  auto bG = prog.toGPU(prog.hostParam("b_h"));
  auto w = prog.writeTo(aG, prog.kernelCall(specOver(valueKernel(), bG)));
  prog.toHost(w, "out_h");
  const Report r = lintHostDataflow(prog);
  EXPECT_GE(findingsAt(r, Severity::Warning, "redundant upload"), 1u)
      << r.toText();
}

TEST(Dataflow, UploadReadBeforeOverwriteIsClean) {
  // Same overwrite, but a kernel observes the uploaded contents first (the
  // overwriting kernel reads the pre-image), so the transfer is live.
  HostProgram prog = freshProgram();
  auto aG = prog.toGPU(prog.hostParam("a_h"));
  auto w = prog.writeTo(aG, prog.kernelCall(specOver(valueKernel(), aG)));
  prog.toHost(w, "out_h");
  const Report r = lintHostDataflow(prog);
  EXPECT_EQ(findingsAt(r, Severity::Warning, "redundant upload"), 0u)
      << r.toText();
}

}  // namespace
}  // namespace lifta::analysis
