// End-to-end checks of the analysis passes over the shipped kernels, and of
// the codegen-time verification gate. The mutation harness with seeded
// defects lives in test_mutations.cpp; host-program lint in
// test_host_lint.cpp.
#include <gtest/gtest.h>

#include "analysis/passes.hpp"
#include "analysis/verify.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/error.hpp"
#include "geophys/lift_kernels.hpp"
#include "ir/expr.hpp"
#include "lift_acoustics/kernels.hpp"

namespace lifta::analysis {
namespace {

using arith::Expr;

/// Every shipped kernel: the acoustic ones and the geophysics FDTD2D ones.
std::vector<memory::KernelDef> kernelSubjects() {
  auto defs = lift_acoustics::shippedKernels();
  defs.insert(defs.end(),
              {geophys::liftEmEzKernel(ir::ScalarKind::Double),
               geophys::liftEmHKernel(ir::ScalarKind::Double),
               geophys::liftEmHxKernel(ir::ScalarKind::Double),
               geophys::liftEmHyKernel(ir::ScalarKind::Double)});
  return defs;
}

TEST(Passes, ShippedKernelsHaveNoErrorFindings) {
  // Even without contracts the shipped kernels must produce zero
  // error-severity findings — scatter through uncontracted index buffers
  // degrades to warnings, never proven defects.
  for (const auto& def : kernelSubjects()) {
    const Report r = analyzeKernelDef(def);
    EXPECT_EQ(r.count(Severity::Error), 0u)
        << def.name << ":\n" << r.toText();
  }
}

TEST(Passes, ShippedKernelsCleanUnderContracts) {
  // With the voxelizer contracts every warning is discharged too; only
  // info-severity notes (guarded neighbor loads etc.) may remain.
  const AnalysisOptions opts = lift_acoustics::acousticContracts();
  for (const auto& def : kernelSubjects()) {
    const Report r = analyzeKernelDef(def, opts);
    EXPECT_EQ(r.count(Severity::Error), 0u)
        << def.name << ":\n" << r.toText();
    EXPECT_EQ(r.count(Severity::Warning), 0u)
        << def.name << ":\n" << r.toText();
  }
}

TEST(Passes, ReportJsonCarriesCountsAndFindings) {
  const Report r =
      analyzeKernelDef(lift_acoustics::liftFiMmKernel(ir::ScalarKind::Double));
  const std::string json = r.toJson();
  EXPECT_NE(json.find("\"tool\""), std::string::npos);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

TEST(Passes, RelationalDomainDischargesMixedStrideDisjointness) {
  // Work item g writes A[g] while reading A[2g + N] (extent 3N keeps every
  // access in bounds). The write stride (1) and read stride (2) differ, so
  // the affine-difference rule cannot align the pair — historically a
  // guaranteed "different work-item strides" warning. The relational
  // difference-bound domain proves the windows disjoint (g < N <= 2g' + N
  // for every pair of work items), so the analysis is clean.
  using namespace lifta::ir;
  memory::KernelDef def;
  def.name = "mixed_stride";
  const Expr n = Expr::var("N");
  auto a = param("A", Type::array(Type::float_(), Expr(3) * n));
  auto np = param("N", Type::int_());
  auto g = param("g", nullptr);
  def.params = {a, np};
  def.body = mapGlb(
      lambda({g},
             writeTo(arrayAccess(a, g),
                     arrayAccess(a, g * litInt(2) + np) * litFloat(0.5f))),
      iota(n));

  const Report clean = analyzeKernelDef(def);
  EXPECT_EQ(clean.count(Severity::Error), 0u) << clean.toText();
  EXPECT_EQ(clean.count(Severity::Warning), 0u) << clean.toText();
}

// --- the codegen-time verification gate -------------------------------------

/// A kernel with a proven out-of-bounds read: A[i+1] over i in [0, N-1].
memory::KernelDef oobKernel() {
  using namespace lifta::ir;
  memory::KernelDef def;
  def.name = "oob_read";
  const Expr n = Expr::var("N");
  auto a = param("A", Type::array(Type::float_(), n));
  auto np = param("N", Type::int_());
  auto i = param("i", nullptr);
  def.params = {a, np};
  def.body = mapGlb(lambda({i}, arrayAccess(a, i + litInt(1))), iota(n));
  return def;
}

/// Restores the verify flag on scope exit so a failing EXPECT cannot leak a
/// disabled gate into other tests.
struct VerifyGuard {
  ~VerifyGuard() { setVerifyEnabled(true); }
};

TEST(Verify, GenerateKernelRejectsProvenOutOfBounds) {
  VerifyGuard guard;
  setVerifyEnabled(true);
  EXPECT_THROW(codegen::generateKernel(oobKernel()), AnalysisError);
}

TEST(Verify, DisablingTheGateSkipsAnalysis) {
  VerifyGuard guard;
  setVerifyEnabled(false);
  EXPECT_FALSE(verifyEnabled());
  // The kernel is type-correct; with the gate off it must generate.
  const auto gen = codegen::generateKernel(oobKernel());
  EXPECT_FALSE(gen.source.empty());
  setVerifyEnabled(true);
  EXPECT_TRUE(verifyEnabled());
}

TEST(Verify, ShippedKernelsPassTheGate) {
  VerifyGuard guard;
  setVerifyEnabled(true);
  for (const auto& def : kernelSubjects()) {
    EXPECT_NO_THROW(verifyKernel(def)) << def.name;
  }
}

TEST(Verify, ErrorMessageNamesThePassAndTheOptOut) {
  VerifyGuard guard;
  setVerifyEnabled(true);
  try {
    verifyKernel(oobKernel());
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bounds"), std::string::npos) << msg;
    EXPECT_NE(msg.find("LIFTA_SKIP_VERIFY"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace lifta::analysis
