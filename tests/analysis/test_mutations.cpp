// Mutation harness for the static-analysis suite: each test seeds one
// distinct defect class into a small kernel and asserts the right pass
// reports it at error severity (or, for uncontracted scatter, warns). The
// companion negative controls keep the detector honest about false
// positives; tests/analysis/test_passes.cpp checks the shipped kernels are
// error-free. Host-program defect classes live in test_host_lint.cpp.
//
// Miscompile mutations seed defects into the *optimized store summary* (the
// seam compareSummaries exposes for exactly this purpose) and assert the
// translation validator rejects them. The MutationCoverage test at the
// bottom runs every class, pins the per-pass totals, and writes the catch
// counts to MUTATION_coverage.json for the CI artifact.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "analysis/dataflow.hpp"
#include "analysis/equiv.hpp"
#include "analysis/host_lint.hpp"
#include "analysis/passes.hpp"
#include "common/json_writer.hpp"
#include "host/host_program.hpp"
#include "ir/expr.hpp"
#include "lift_acoustics/kernels.hpp"
#include "memory/kernel_def.hpp"

namespace lifta::analysis {
namespace {

using namespace lifta::ir;
using memory::KernelDef;

arith::Expr N() { return arith::Expr::var("N"); }

std::size_t errorsIn(const Report& r, PassId pass) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.severity == Severity::Error && d.pass == pass) ++n;
  }
  return n;
}

std::size_t warningsIn(const Report& r, PassId pass) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.severity == Severity::Warning && d.pass == pass) ++n;
  }
  return n;
}

/// mapGlb(i => body(i, N), iota(N)) over positions 0..N-1.
KernelDef positionKernel(
    const std::string& name, const ExprPtr& a,
    std::vector<ExprPtr> extraParams,
    const std::function<ExprPtr(ExprPtr, ExprPtr)>& body) {
  KernelDef def;
  def.name = name;
  auto n = param("N", Type::int_());
  auto i = param("i", nullptr);
  def.params = {a, n};
  for (auto& p : extraParams) def.params.push_back(p);
  def.body = mapGlb(lambda({i}, body(i, n)), iota(N()));
  return def;
}

// --- seeded bounds defects --------------------------------------------------

TEST(Mutations, ReadPastEndDetected) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("read_past_end", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    return arrayAccess(a, i + litInt(1));  // A[N] at the last work item
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_GE(errorsIn(r, PassId::Bounds), 1u);
}

TEST(Mutations, ReadBeforeStartDetected) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("read_before_start", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    return arrayAccess(a, i - litInt(1));  // A[-1] at work item 0
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_GE(errorsIn(r, PassId::Bounds), 1u);
}

TEST(Mutations, ScatterWritePastEndDetected) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("write_past_end", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    return writeTo(arrayAccess(a, i + litInt(1)), litFloat(1.0f));
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_GE(errorsIn(r, PassId::Bounds), 1u);
}

TEST(Mutations, GuardedNeighborReadIsNotAnError) {
  // Negative control: the same off-by-one read behind a Select guard must
  // not be an error (the guard is data-dependent; severity drops to info).
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("guarded_read", a, {}, [&](ExprPtr i, ExprPtr n) {
    return select(binary(BinOp::Lt, i, n - litInt(1)),
                  arrayAccess(a, i + litInt(1)), litFloat(0.0f));
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_EQ(errorsIn(r, PassId::Bounds), 0u);
}

TEST(Mutations, InRangeAccessesAreClean) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("clean_read", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    return arrayAccess(a, i) * litFloat(2.0f);
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_EQ(r.count(Severity::Error), 0u);
  EXPECT_EQ(r.count(Severity::Warning), 0u);
}

// --- seeded race defects ----------------------------------------------------

TEST(Mutations, AllWorkItemsWriteSameElementDetected) {
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("write_elem0", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    (void)i;
    return writeTo(arrayAccess(a, litInt(0)), litFloat(1.0f));
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_GE(errorsIn(r, PassId::Race), 1u);
}

TEST(Mutations, WorkItemsCoverSameLoopRangeDetected) {
  // Every work item runs the same inner loop over all of A: the write index
  // ignores the work-item id entirely.
  auto a = param("A", Type::array(Type::int_(), arith::Expr::var("M")));
  auto m = param("M", Type::int_());
  auto j = param("j", nullptr);
  auto def = positionKernel("full_range_write", a, {m}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    (void)i;
    return mapSeq(lambda({j}, writeTo(arrayAccess(a, j), j + litInt(1))),
                  iota(arith::Expr::var("M")));
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_GE(errorsIn(r, PassId::Race), 1u);
}

TEST(Mutations, ShiftedReadWriteHazardDetected) {
  // Work item g writes A[g] while g+1 reads A[g+1]... i.e. the read of one
  // work item aliases the write of another (extent N+1 keeps it in bounds,
  // isolating the hazard from the bounds pass).
  auto a = param("A", Type::array(Type::float_(), N() + arith::Expr(1)));
  auto def = positionKernel("shifted_rw", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    return writeTo(arrayAccess(a, i),
                   arrayAccess(a, i + litInt(1)) * litFloat(0.5f));
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_GE(errorsIn(r, PassId::Race), 1u);
}

TEST(Mutations, UncontractedScatterWarnsButContractSilences) {
  // WriteTo through a data-dependent index buffer: without a contract the
  // detector must warn (it cannot prove disjointness); an injectivity
  // contract discharges it.
  KernelDef def;
  def.name = "scatter";
  auto grid = param("grid", Type::array(Type::float_(), N()));
  auto idxs =
      param("indices", Type::array(Type::int_(), arith::Expr::var("M")));
  auto n = param("N", Type::int_());
  auto m = param("M", Type::int_());
  auto idx = param("idx", nullptr);
  def.params = {grid, idxs, n, m};
  def.body = mapGlb(
      lambda({idx}, writeTo(arrayAccess(grid, idx),
                            arrayAccess(grid, idx) * litFloat(2.0f))),
      idxs);

  const Report plain = analyzeKernelDef(def);
  EXPECT_GE(warningsIn(plain, PassId::Race), 1u);
  EXPECT_EQ(plain.count(Severity::Error), 0u);  // not provable, not proven

  AnalysisOptions opts;
  BufferContract c;
  c.valueLo = arith::Expr(0);
  c.valueHi = N() - arith::Expr(1);
  c.injective = true;
  opts.contracts["indices"] = c;
  const Report contracted = analyzeKernelDef(def, opts);
  EXPECT_EQ(contracted.count(Severity::Error), 0u);
  EXPECT_EQ(warningsIn(contracted, PassId::Race), 0u);
}

TEST(Mutations, DisjointStridedWritesAreClean) {
  // Negative control for the race pass: out[g] written once per work item.
  auto a = param("A", Type::array(Type::float_(), N()));
  auto def = positionKernel("ident_write", a, {}, [&](ExprPtr i, ExprPtr n) {
    (void)n;
    return writeTo(arrayAccess(a, i), litFloat(3.0f));
  });
  const Report r = analyzeKernelDef(def);
  EXPECT_EQ(r.count(Severity::Error), 0u);
  EXPECT_EQ(r.count(Severity::Warning), 0u);
}

// --- seeded miscompile mutations (translation validation) -------------------
//
// Each mutator corrupts the optimized store summary the way a broken
// optimizer pass would — the exact seam compareSummaries verifies — and the
// validator must reject the result against the honest reference summary.

/// mapGlb(g => A[g+1] - 1, iota(N)) over an N+1 array: one store per work
/// item with a shifted address and a non-commutative value tree.
memory::KernelDef shiftSubKernel() {
  memory::KernelDef def;
  def.name = "shift_sub";
  auto a = param("A", Type::array(Type::float_(), N() + arith::Expr(1)));
  auto np = param("N", Type::int_());
  auto g = param("g", nullptr);
  def.params = {a, np};
  def.body = mapGlb(
      lambda({g}, arrayAccess(a, g + litInt(1)) - litFloat(1.0f)), iota(N()));
  return def;
}

/// The §III-B stencil shape: mapGlb over slide(3,1,pad(1,1,A)) summing the
/// window ends. Both loads carry a zero-pad guard; the optimizer proves the
/// upper side of w[0] (g-1 <= N-1) but must keep the lower (g-1 >= 0 fails
/// at g=0), giving the guard mutations a real kept/dropped mix to corrupt.
memory::KernelDef padNeighborsKernel() {
  memory::KernelDef def;
  def.name = "pad_neighbors";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto np = param("N", Type::int_());
  auto w = param("w", nullptr);
  def.params = {a, np};
  def.body = mapGlb(
      lambda({w}, arrayAccess(w, litInt(0)) + arrayAccess(w, litInt(2))),
      slide(3, 1, pad(1, 1, PadMode::Zero, a)));
  return def;
}

/// Rebuilds a value tree bottom-up, letting `edit` modify each copied node.
SummaryValPtr mapTree(const SummaryValPtr& node,
                      const std::function<void(SummaryVal&)>& edit) {
  if (!node) return node;
  auto copy = std::make_shared<SummaryVal>(*node);
  for (auto& arg : copy->args) arg = mapTree(arg, edit);
  edit(*copy);
  return copy;
}

using Mutator = std::function<void(KernelSummary&)>;

/// Applies `edit` to every node of every store's value tree.
Mutator editValues(std::function<void(SummaryVal&)> edit) {
  return [edit = std::move(edit)](KernelSummary& s) {
    for (auto& st : s.stores) st.value = mapTree(st.value, edit);
  };
}

bool equivCatches(const memory::KernelDef& def, const Mutator& mutate,
                  const memory::Specialization& spec = {}) {
  const KernelSummary ref = summarizeKernel(def, /*optimized=*/false, spec);
  KernelSummary opt = summarizeKernel(def, /*optimized=*/true, spec);
  mutate(opt);
  return compareSummaries(ref, opt).hasErrors();
}

/// lift_volume_step specialized for a 16x14x12 box: its store speculates
/// over [nxny, cells - nxny), the range curr[i -/+ nxny] allow.
memory::KernelDef speculatedVolumeKernel() {
  return lift_acoustics::liftVolumeKernel(ir::ScalarKind::Double);
}

memory::Specialization speculatedVolumeSpec() {
  memory::Specialization spec;
  spec.ints = {{"nx", 16}, {"nxny", 16 * 14}, {"cells", 16 * 14 * 12}};
  spec.reals = {{"l2", 0.25}};
  return spec;
}

/// The miscompile classes, named after the optimizer bug each simulates.
const std::vector<std::pair<std::string, std::function<bool()>>>&
miscompileClasses() {
  static const std::vector<std::pair<std::string, std::function<bool()>>>
      classes = {
          {"offset_shift",  // index simplification off by one
           [] {
             return equivCatches(shiftSubKernel(), [](KernelSummary& s) {
               s.stores[0].address = s.stores[0].address + arith::Expr(1);
             });
           }},
          {"wrong_stride",  // flattening multiplied by the wrong extent
           [] {
             return equivCatches(shiftSubKernel(), [](KernelSummary& s) {
               s.stores[0].address = s.stores[0].address * arith::Expr(2);
             });
           }},
          {"wrong_buffer",  // store redirected to another argument
           [] {
             return equivCatches(shiftSubKernel(), [](KernelSummary& s) {
               s.stores[0].buffer = "bogus";
             });
           }},
          {"drop_store",  // dead-store elimination deleting a live store
           [] {
             return equivCatches(shiftSubKernel(), [](KernelSummary& s) {
               s.stores.pop_back();
             });
           }},
          {"duplicate_store",  // loop peeling emitting a store twice
           [] {
             return equivCatches(shiftSubKernel(), [](KernelSummary& s) {
               s.stores.push_back(s.stores.back());
             });
           }},
          {"swap_operands",  // operand order lost on a non-commutative op
           [] {
             return equivCatches(
                 shiftSubKernel(), editValues([](SummaryVal& n) {
                   if (n.kind == SummaryVal::Kind::Apply && n.args.size() == 2) {
                     std::swap(n.args[0], n.args[1]);
                   }
                 }));
           }},
          {"hoist_non_invariant",  // load hoisted out of the loop it varies in
           [] {
             return equivCatches(shiftSubKernel(), [](KernelSummary& s) {
               if (s.domains.empty()) return;  // caught=false fails the test
               const std::string iv = s.domains.begin()->first;
               for (auto& st : s.stores) {
                 st.value = mapTree(st.value, [&iv](SummaryVal& n) {
                   if (n.kind == SummaryVal::Kind::Load) {
                     n.index = n.index.substitute(iv, arith::Expr(0));
                   }
                 });
               }
             });
           }},
          {"perturb_literal",  // constant folding producing a wrong constant
           [] {
             return equivCatches(
                 shiftSubKernel(), editValues([](SummaryVal& n) {
                   if (n.kind == SummaryVal::Kind::Lit) n.text += "0";
                 }));
           }},
          {"drop_guard_side",  // guard elimination discharging an unprovable side
           [] {
             return equivCatches(
                 padNeighborsKernel(), editValues([](SummaryVal& n) {
                   for (auto& g : n.guards) g.droppedLower = true;
                 }));
           }},
          {"narrow_guard_extent",  // guard checks against the wrong size
           [] {
             return equivCatches(
                 padNeighborsKernel(), editValues([](SummaryVal& n) {
                   for (auto& g : n.guards) g.size = g.size - arith::Expr(1);
                 }));
           }},
          {"shift_guard_condition",  // guard predicate drifted off the address
           [] {
             return equivCatches(
                 padNeighborsKernel(), editValues([](SummaryVal& n) {
                   for (auto& g : n.guards) {
                     g.adjusted = g.adjusted + arith::Expr(1);
                   }
                 }));
           }},
          {"speculation_range_widened",  // split one cell below the proof
           [] {
             return equivCatches(
                 speculatedVolumeKernel(),
                 [](KernelSummary& s) {
                   // No speculation means nothing to widen: caught=false
                   // fails the test.
                   if (!s.stores[0].speculation) return;
                   Domain& d = s.stores[0].speculation->domain;
                   d.lo = d.lo - arith::Expr(1);
                 },
                 speculatedVolumeSpec());
           }},
      };
  return classes;
}

TEST(Mutations, TranslationValidatorCatchesEveryMiscompileClass) {
  for (const auto& [name, run] : miscompileClasses()) {
    EXPECT_TRUE(run()) << "miscompile class escaped the validator: " << name;
  }
}

TEST(Mutations, UnmutatedSummariesValidateClean) {
  // Negative control: the seeded kernels themselves are honestly optimized.
  for (const auto& def : {shiftSubKernel(), padNeighborsKernel()}) {
    const Report r = compareSummaries(summarizeKernel(def, false),
                                      summarizeKernel(def, true));
    EXPECT_EQ(r.count(Severity::Error), 0u) << def.name << ":\n" << r.toText();
  }
}

TEST(Mutations, HonestSpeculationValidatesClean) {
  // Negative control for speculation_range_widened: the emitter's own split
  // re-proves every speculated load.
  const auto def = speculatedVolumeKernel();
  const auto spec = speculatedVolumeSpec();
  const KernelSummary opt = summarizeKernel(def, true, spec);
  ASSERT_TRUE(opt.stores[0].speculation.has_value());
  const Report r = compareSummaries(summarizeKernel(def, false, spec), opt);
  EXPECT_EQ(r.count(Severity::Error), 0u) << r.toText();
}

// --- coverage summary: per-rule catch counts, pinned and exported -----------

/// mapGlb(i => A[i] * 2, iota(N)): value kernel for the host-level classes.
memory::KernelDef hostValueKernel() {
  memory::KernelDef def;
  def.name = "scale";
  auto a = param("A", Type::array(Type::float_(), N()));
  auto np = param("N", Type::int_());
  auto i = param("i", nullptr);
  def.params = {a, np};
  def.body =
      mapGlb(lambda({i}, arrayAccess(a, i) * litFloat(2.0f)), iota(N()));
  return def;
}

host::KernelSpec hostSpec(host::HostPtr buf) {
  host::KernelSpec s;
  s.def = hostValueKernel();
  s.args = {{buf, ""}, {nullptr, "N"}};
  s.launchCountScalar = "N";
  return s;
}

host::HostProgram hostProgram() {
  host::HostProgram prog;
  prog.declareScalar("N", host::ScalarType::Int);
  return prog;
}

TEST(MutationCoverage, EveryClassCaughtAndTotalsPinned) {
  struct Entry {
    std::string pass;
    std::string name;
    bool caught;
  };
  std::vector<Entry> table;

  // Bounds classes (kernels as in the tests above).
  {
    auto a = param("A", Type::array(Type::float_(), N()));
    auto past = positionKernel("m_read_past_end", a, {},
                               [&](ExprPtr i, ExprPtr) {
                                 return arrayAccess(a, i + litInt(1));
                               });
    table.push_back({"bounds", "read_past_end",
                     errorsIn(analyzeKernelDef(past), PassId::Bounds) >= 1});
  }
  {
    auto a = param("A", Type::array(Type::float_(), N()));
    auto before = positionKernel("m_read_before_start", a, {},
                                 [&](ExprPtr i, ExprPtr) {
                                   return arrayAccess(a, i - litInt(1));
                                 });
    table.push_back({"bounds", "read_before_start",
                     errorsIn(analyzeKernelDef(before), PassId::Bounds) >= 1});
  }
  {
    auto a = param("A", Type::array(Type::float_(), N()));
    auto wpast = positionKernel(
        "m_write_past_end", a, {}, [&](ExprPtr i, ExprPtr) {
          return writeTo(arrayAccess(a, i + litInt(1)), litFloat(1.0f));
        });
    table.push_back({"bounds", "scatter_write_past_end",
                     errorsIn(analyzeKernelDef(wpast), PassId::Bounds) >= 1});
  }

  // Race classes.
  {
    auto a = param("A", Type::array(Type::float_(), N()));
    auto same = positionKernel(
        "m_write_elem0", a, {}, [&](ExprPtr, ExprPtr) {
          return writeTo(arrayAccess(a, litInt(0)), litFloat(1.0f));
        });
    table.push_back({"race", "same_element_write",
                     errorsIn(analyzeKernelDef(same), PassId::Race) >= 1});
  }
  {
    auto a = param("A", Type::array(Type::int_(), arith::Expr::var("M")));
    auto m = param("M", Type::int_());
    auto j = param("j", nullptr);
    auto full = positionKernel(
        "m_full_range_write", a, {m}, [&](ExprPtr, ExprPtr) {
          return mapSeq(lambda({j}, writeTo(arrayAccess(a, j), j + litInt(1))),
                        iota(arith::Expr::var("M")));
        });
    table.push_back({"race", "full_range_write",
                     errorsIn(analyzeKernelDef(full), PassId::Race) >= 1});
  }
  {
    auto a = param("A", Type::array(Type::float_(), N() + arith::Expr(1)));
    auto shifted = positionKernel(
        "m_shifted_rw", a, {}, [&](ExprPtr i, ExprPtr) {
          return writeTo(arrayAccess(a, i),
                         arrayAccess(a, i + litInt(1)) * litFloat(0.5f));
        });
    table.push_back({"race", "shifted_read_write",
                     errorsIn(analyzeKernelDef(shifted), PassId::Race) >= 1});
  }

  // Translation-validation (equiv) classes.
  for (const auto& [name, run] : miscompileClasses()) {
    table.push_back({"equiv", name, run()});
  }

  // Host-lint classes.
  {
    host::HostProgram prog = hostProgram();
    auto out = prog.kernelCall(hostSpec(prog.hostParam("a_h")));
    prog.toHost(out, "out_h");
    table.push_back({"hostlint", "param_as_kernel_arg",
                     lintHostProgram(prog).hasErrors()});
  }
  {
    host::HostProgram prog = hostProgram();
    auto aG = prog.toGPU(prog.hostParam("a_h"));
    auto used = prog.kernelCall(hostSpec(aG));
    prog.kernelCall(hostSpec(aG));  // result dropped
    prog.toHost(used, "out_h");
    table.push_back(
        {"hostlint", "dead_compute", lintHostProgram(prog).hasErrors()});
  }

  // Host dataflow classes.
  {
    host::HostProgram prog = hostProgram();
    auto aG = prog.toGPU(prog.hostParam("a_h"));
    auto scratch = prog.kernelCall(hostSpec(aG));  // fresh output, unread
    auto out = prog.kernelCall(hostSpec(aG));
    prog.toHost(out, "out_h");
    prog.writeTo(scratch, prog.kernelCall(hostSpec(aG)));
    const Report r = lintHostDataflow(prog);
    table.push_back(
        {"dataflow", "dead_scratch_write", r.count(Severity::Warning) >= 1});
  }
  {
    host::HostProgram prog = hostProgram();
    auto aG = prog.toGPU(prog.hostParam("a_h"));
    auto bG = prog.toGPU(prog.hostParam("b_h"));
    auto w = prog.writeTo(aG, prog.kernelCall(hostSpec(bG)));
    prog.toHost(w, "out_h");
    const Report r = lintHostDataflow(prog);
    table.push_back(
        {"dataflow", "redundant_upload", r.count(Severity::Warning) >= 1});
  }

  // Pin the per-pass class counts: growing a pass's coverage means updating
  // these totals deliberately, and a silently skipped class fails here.
  std::map<std::string, int> perPass, caughtPerPass;
  for (const auto& e : table) {
    ++perPass[e.pass];
    if (e.caught) ++caughtPerPass[e.pass];
    EXPECT_TRUE(e.caught) << e.pass << "." << e.name << " escaped detection";
  }
  EXPECT_EQ(perPass["bounds"], 3);
  EXPECT_EQ(perPass["race"], 3);
  EXPECT_EQ(perPass["equiv"], 12);
  EXPECT_EQ(perPass["hostlint"], 2);
  EXPECT_EQ(perPass["dataflow"], 2);
  EXPECT_EQ(table.size(), 22u);

  // Export the catch counts for the CI artifact.
  JsonWriter w;
  w.beginObject();
  w.field("tool", "lifta-mutations");
  w.field("total_classes", static_cast<std::int64_t>(table.size()));
  w.key("per_pass").beginObject();
  for (const auto& [pass, total] : perPass) {
    w.key(pass).beginObject();
    w.field("classes", total);
    w.field("caught", caughtPerPass[pass]);
    w.endObject();
  }
  w.endObject();
  w.key("classes").beginArray();
  for (const auto& e : table) {
    w.beginObject();
    w.field("pass", e.pass);
    w.field("name", e.name);
    w.field("caught", e.caught);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  w.writeFile("MUTATION_coverage.json");
}

}  // namespace
}  // namespace lifta::analysis
