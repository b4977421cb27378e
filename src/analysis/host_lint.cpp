#include "analysis/host_lint.hpp"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/verify.hpp"
#include "common/error.hpp"
#include "ir/typecheck.hpp"
#include "memory/allocator.hpp"

namespace lifta::analysis {

namespace {

using host::HOp;
using host::HostNode;
using host::HostPtr;

std::string label(const HostNode* n) {
  return n->name + "#" + std::to_string(n->id);
}

/// The device buffer a node's value lives in: WriteTo aliases its
/// destination, everything else owns its own buffer.
const HostNode* resolveBuffer(const HostNode* n) {
  while (n != nullptr && n->op == HOp::WriteTo) n = n->dest.get();
  return n;
}

/// Direct operands of a node, as used by CompiledHostProgram::evalDevice.
std::vector<const HostNode*> operandsOf(const HostNode* n) {
  std::vector<const HostNode*> out;
  if (n->input) out.push_back(n->input.get());
  if (n->dest) out.push_back(n->dest.get());
  if (n->call) out.push_back(n->call.get());
  for (const auto& a : n->kernel.args) {
    if (a.buffer) out.push_back(a.buffer.get());
  }
  return out;
}

class HostLinter {
 public:
  HostLinter(const host::HostProgram& prog, const std::string& subject)
      : prog_(prog) {
    report_.subject = subject;
  }

  Report run() {
    for (const auto& n : prog_.nodes()) {
      if (n->op == HOp::KernelCall) checkKernelCall(n.get());
      if (n->op == HOp::WriteTo) checkWriteTo(n.get());
      if (n->op == HOp::ToHost) checkToHost(n.get());
    }
    checkTransfers();
    checkDeadCompute();
    checkOverlappingWrites();
    return std::move(report_);
  }

 private:
  void add(Severity sev, const HostNode* node, std::string msg) {
    Diagnostic d;
    d.severity = sev;
    d.pass = PassId::HostLint;
    d.kernel = report_.subject;
    d.node = label(node);
    d.message = std::move(msg);
    report_.add(std::move(d));
  }

  /// Whether a kernel call produces a value (an implicit output buffer).
  /// Unplannable kernels are left to codegen's own errors.
  bool callHasValue(const HostNode* call) {
    auto it = hasValue_.find(call);
    if (it != hasValue_.end()) return it->second;
    bool value = false;
    try {
      const auto& def = call->kernel.def;
      ir::typecheck(def.body);
      value = memory::planMemory(def).hasOutBuffer;
    } catch (const Error&) {
      value = true;  // malformed: don't pile lint errors on top
    }
    hasValue_[call] = value;
    return value;
  }

  /// A node usable as a device value: ToGPU, value-producing KernelCall, or
  /// WriteTo (whose value is its destination buffer).
  void checkDeviceValue(const HostNode* user, const HostNode* value,
                        const std::string& role) {
    if (value->op == HOp::Param) {
      add(Severity::Error, user,
          "host parameter '" + value->name + "' used directly as " + role +
              "; wrap it in toGPU(...)");
    } else if (value->op == HOp::KernelCall && !callHasValue(value)) {
      add(Severity::Error, user,
          "effect-only kernel call '" + label(value) +
              "' produces no device value but is used as " + role +
              "; wrap it in writeTo(dest, call)");
    }
  }

  void checkKernelCall(const HostNode* n) {
    int slot = 0;
    for (const auto& a : n->kernel.args) {
      if (a.buffer) {
        checkDeviceValue(n, a.buffer.get(),
                         "argument " + std::to_string(slot) + " of kernel '" +
                             n->name + "'");
      }
      ++slot;
    }
  }

  void checkWriteTo(const HostNode* n) {
    checkDeviceValue(n, n->dest.get(), "a WriteTo destination");
  }

  void checkToHost(const HostNode* n) {
    const HostNode* v = n->input.get();
    checkDeviceValue(n, v, "a ToHost source (output '" + n->name + "')");
    if (v->op == HOp::ToGPU) {
      add(Severity::Warning, n,
          "output '" + n->name + "' reads back '" + label(v) +
              "' untouched by any kernel (device round trip)");
    }
  }

  void checkTransfers() {
    std::map<std::string, const HostNode*> uploaded;
    for (const auto& n : prog_.nodes()) {
      if (n->op != HOp::ToGPU) continue;
      const std::string& param = n->input->name;
      auto [it, fresh] = uploaded.emplace(param, n.get());
      if (!fresh) {
        add(Severity::Warning, n.get(),
            "host parameter '" + param + "' already uploaded as '" +
                label(it->second) +
                "' (redundant transfer and a second device copy)");
      }
    }
  }

  void checkDeadCompute() {
    std::set<const HostNode*> consumed;
    for (const auto& n : prog_.nodes()) {
      for (const HostNode* op : operandsOf(n.get())) consumed.insert(op);
    }
    for (const auto& [node, name] : prog_.outputs()) consumed.insert(node.get());
    for (const auto& n : prog_.nodes()) {
      if (consumed.count(n.get()) != 0) continue;
      if (n->op == HOp::KernelCall || n->op == HOp::WriteTo) {
        add(Severity::Error, n.get(),
            "dead compute: result of '" + label(n.get()) +
                "' never reaches ToHost or another kernel, so it is never "
                "evaluated");
      } else if (n->op == HOp::ToGPU) {
        add(Severity::Warning, n.get(),
            "unused transfer: '" + label(n.get()) +
                "' is never read by any kernel or output");
      }
    }
  }

  bool reachable(const HostNode* from, const HostNode* target) {
    if (from == target) return true;
    std::set<const HostNode*> seen;
    std::vector<const HostNode*> stack{from};
    while (!stack.empty()) {
      const HostNode* n = stack.back();
      stack.pop_back();
      if (!seen.insert(n).second) continue;
      for (const HostNode* op : operandsOf(n)) {
        if (op == target) return true;
        stack.push_back(op);
      }
    }
    return false;
  }

  bool ordered(const HostNode* a, const HostNode* b) {
    return reachable(a, b) || reachable(b, a);
  }

  struct Action {
    const HostNode* node;    // the KernelCall / WriteTo performing the access
    const HostNode* buffer;  // identity node of the device buffer
    bool write;
  };

  void checkOverlappingWrites() {
    std::vector<Action> actions;
    for (const auto& n : prog_.nodes()) {
      if (n->op == HOp::WriteTo) {
        actions.push_back({n.get(), resolveBuffer(n->dest.get()), true});
      }
      if (n->op != HOp::KernelCall) continue;
      // Kernels declare which parameters they write (the memory plan's
      // writable flags, in ABI slot order). A malformed kernel gives us
      // nothing to go on; treat its arguments as reads.
      std::vector<bool> writable;
      try {
        const auto& def = n->kernel.def;
        ir::typecheck(def.body);
        const auto plan = memory::planMemory(def);
        for (const auto& arg : plan.args) writable.push_back(arg.writable);
      } catch (const Error&) {
        writable.clear();
      }
      std::size_t slot = 0;
      for (const auto& a : n->kernel.args) {
        const bool w = slot < writable.size() && writable[slot];
        if (a.buffer && a.buffer->op != HOp::Param) {
          actions.push_back({n.get(), resolveBuffer(a.buffer.get()), w});
        }
        ++slot;
      }
    }
    std::set<std::string> reported;
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (!actions[i].write) continue;
      for (std::size_t j = 0; j < actions.size(); ++j) {
        if (i == j) continue;
        const Action& w = actions[i];
        const Action& o = actions[j];
        if (w.node == o.node || w.buffer != o.buffer) continue;
        if (o.write && j < i) continue;  // report each write/write pair once
        if (ordered(w.node, o.node)) continue;
        const std::string key = label(w.node) + "|" + label(o.node) + "|" +
                                label(w.buffer) + (o.write ? "|ww" : "|rw");
        if (!reported.insert(key).second) continue;
        if (o.write) {
          add(Severity::Error, w.node,
              "overlapping writes: '" + label(w.node) + "' and '" +
                  label(o.node) + "' both write device buffer '" +
                  label(w.buffer) +
                  "' with no dependence between them; the final contents "
                  "depend on evaluation order");
        } else {
          add(Severity::Warning, w.node,
              "read/write hazard: '" + label(w.node) + "' writes device "
              "buffer '" + label(w.buffer) + "' while '" + label(o.node) +
                  "' reads it, with no dependence ordering the two");
        }
      }
    }
  }

  const host::HostProgram& prog_;
  Report report_;
  std::map<const HostNode*, bool> hasValue_;
};

}  // namespace

Report lintHostProgram(const host::HostProgram& prog,
                       const std::string& subjectName) {
  return HostLinter(prog, subjectName).run();
}

void verifyHostProgram(const host::HostProgram& prog,
                       const std::string& subjectName) {
  if (!verifyEnabled()) return;
  const Report report = lintHostProgram(prog, subjectName);
  if (!report.hasErrors()) return;
  std::string msg = "host program failed static verification:\n";
  for (const auto& d : report.diagnostics) {
    if (d.severity != Severity::Error) continue;
    msg += "  " + std::string(passName(d.pass)) + ": " + d.message + "\n";
  }
  msg += "(set LIFTA_SKIP_VERIFY=1 to bypass)";
  throw AnalysisError(msg);
}

}  // namespace lifta::analysis
