// A guided tour of the code generator: builds the paper's LIFT expressions,
// prints the IR, the views they lower through, the generated OpenCL-style
// kernel code, and the generated host code for the two-kernel acoustic
// step (Listing 5). Run with no arguments; add --fdmm to also dump the
// (much longer) FD-MM kernel.
#include <cstdio>

#include "codegen/kernel_codegen.hpp"
#include "common/cli.hpp"
#include "ir/printer.hpp"
#include "ir/typecheck.hpp"
#include "lift_acoustics/kernels.hpp"
#include "lift_acoustics/step_program.hpp"
#include "view/view.hpp"

using namespace lifta;
using namespace lifta::ir;

namespace {

void banner(const char* title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title);
  std::printf("============================================================\n");
}

void tableIExamples() {
  banner("Table I: the new primitives and their generated code");

  // Concat(Map(add2, A), Map(mul3, B))
  {
    auto a = param("A", Type::array(Type::float_(), arith::Expr::var("N1")));
    auto b = param("B", Type::array(Type::float_(), arith::Expr::var("N2")));
    auto x = param("x", nullptr);
    auto y = param("y", nullptr);
    memory::KernelDef def;
    def.name = "concat_example";
    def.params = {a, b, param("N1", Type::int_()), param("N2", Type::int_())};
    def.body = concat({mapSeq(lambda({x}, x + litFloat(2.0f)), a),
                       mapSeq(lambda({y}, y * litFloat(3.0f)), b)});
    std::printf("\nLIFT:  %s\n", printCompact(def.body).c_str());
    const auto gen = codegen::generateKernel(def);
    std::printf("generated body:\n%s", gen.body.c_str());
  }

  // Concat(Skip<int>(n), Array(1,2,3)) — Skip emits no code.
  {
    auto n = param("n", Type::int_());
    auto v = param("v", nullptr);
    memory::KernelDef def;
    def.name = "skip_example";
    def.params = {n};
    def.body = concat({skip(Type::int_(), n),
                       mapSeq(lambda({v}, v + litInt(1)), iota(3))});
    std::printf("\nLIFT:  %s\n", printCompact(def.body).c_str());
    const auto gen = codegen::generateKernel(def);
    std::printf("generated body:\n%s", gen.body.c_str());
  }
}

void viewExample() {
  banner("§III-A: views for mapSeq(p => p.get(0) + p.get(1)) o zip(A, B)");
  const auto t = Type::array(Type::float_(), arith::Expr::var("N"));
  auto zipped = view::zipView(
      {view::memView("A", t), view::memView("B", t)},
      Type::array(Type::tuple({Type::float_(), Type::float_()}),
                  arith::Expr::var("N")));
  auto elem = view::accessView(zipped, arith::Expr::var("i"));
  for (int c = 0; c < 2; ++c) {
    auto component = view::tupleComponentView(elem, c);
    std::printf("inputView(p.get(%d)) = %s\n", c,
                view::describe(component).c_str());
    std::printf("  resolves to load: %s\n",
                view::resolveLoad(component, "0.0f").c_str());
  }
}

void acousticKernels(bool fdmm) {
  banner("Listing 7: FI-MM boundary kernel (in-place via Concat/Skip)");
  const auto fimm = lift_acoustics::liftFiMmKernel(ScalarKind::Float);
  std::printf("LIFT IR:\n%s\n", print(fimm.body).c_str());
  const auto gen = codegen::generateKernel(fimm);
  std::printf("generated kernel:\n%s\n", gen.source.c_str());

  if (fdmm) {
    banner("Listing 8: FD-MM boundary kernel (three in-place outputs)");
    const auto fd = lift_acoustics::liftFdMmKernel(ScalarKind::Float, 3);
    const auto genFd = codegen::generateKernel(fd);
    std::printf("generated kernel:\n%s\n", genFd.source.c_str());
  }
}

void hostCode() {
  banner("Listing 5: generated host code for the two-kernel step");
  // The device tier's own step program (lift_acoustics/step_program): an
  // empty launch plan gives the fused FI-MM boundary kernel.
  const auto step = lift_acoustics::buildStepProgram(
      lift_acoustics::DeviceModel::FiMm, ScalarKind::Float, 0, {});
  std::printf("%s\n", step.prog.generateHostCode(ScalarKind::Float).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  tableIExamples();
  viewExample();
  acousticKernels(args.getBool("fdmm", false));
  hostCode();
  std::printf("\ndone. (--fdmm dumps the FD-MM kernel too)\n");
  return 0;
}
