#include "analysis/dataflow.hpp"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/access.hpp"
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

const HostNode* resolveBuffer(const HostNode* n) {
  while (n != nullptr && n->op == HOp::WriteTo) n = n->dest.get();
  return n;
}

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

/// How one kernel call touches each of its array parameters.
struct ParamUse {
  bool read = false;
  bool write = false;
};

class DataflowLinter {
 public:
  DataflowLinter(const host::HostProgram& prog, const std::string& subject)
      : prog_(prog) {
    report_.subject = subject;
  }

  Report run() {
    collectActions();
    checkDeadWrites();
    checkRedundantUploads();
    return std::move(report_);
  }

 private:
  struct BufferUse {
    std::vector<const HostNode*> writers;  // nodes that write the buffer
    std::set<const HostNode*> fullWriters; // dense-overwrite subset
    std::vector<const HostNode*> readers;  // definite-read observers
  };

  void add(Severity sev, const HostNode* node, std::string msg) {
    Diagnostic d;
    d.severity = sev;
    d.pass = PassId::Dataflow;
    d.kernel = report_.subject;
    d.node = label(node);
    d.message = std::move(msg);
    report_.add(std::move(d));
  }

  /// Per-parameter read/write sets of a kernel call, in ABI slot order
  /// (matching KernelSpec::args). Nullopt for malformed kernels — their
  /// argument use is unknown.
  const std::vector<ParamUse>* usesFor(const HostNode* call) {
    auto it = uses_.find(call);
    if (it != uses_.end()) return it->second ? &*it->second : nullptr;
    std::optional<std::vector<ParamUse>> uses;
    try {
      const auto& def = call->kernel.def;
      ir::typecheck(def.body);
      const auto plan = memory::planMemory(def);
      const KernelAccessInfo info = collectAccesses(def);
      std::map<std::string, ParamUse> byName;
      for (const auto& a : info.accesses) {
        if (a.isPrivate) continue;
        if (a.isWrite) byName[a.buffer].write = true;
        else byName[a.buffer].read = true;
      }
      std::vector<ParamUse> slots;
      for (std::size_t i = 0; i < call->kernel.args.size(); ++i) {
        ParamUse u;
        if (i < plan.args.size()) {
          auto f = byName.find(plan.args[i].name);
          if (f != byName.end()) u = f->second;
        }
        slots.push_back(u);
      }
      uses = std::move(slots);
    } catch (const Error&) {
      uses.reset();  // malformed: codegen reports its own errors
    }
    auto [ins, _] = uses_.emplace(call, std::move(uses));
    return ins->second ? &*ins->second : nullptr;
  }

  /// Whether a call produces a dense implicit output buffer.
  bool callHasOut(const HostNode* call) {
    try {
      const auto& def = call->kernel.def;
      ir::typecheck(def.body);
      return memory::planMemory(def).hasOutBuffer;
    } catch (const Error&) {
      return false;
    }
  }

  /// True when the wrapped kernel reads the buffer `ident` through any of
  /// its arguments (a read-modify-write overwrite is not "full": the
  /// previous contents are observed).
  bool callReads(const HostNode* call, const HostNode* ident) {
    const std::vector<ParamUse>* uses = usesFor(call);
    std::size_t slot = 0;
    for (const auto& a : call->kernel.args) {
      const bool reads = uses == nullptr || (*uses)[slot].read;
      if (a.buffer && reads && resolveBuffer(a.buffer.get()) == ident) {
        return true;
      }
      ++slot;
    }
    return false;
  }

  void collectActions() {
    for (const auto& n : prog_.nodes()) {
      if (n->op == HOp::ToHost) {
        buffers_[resolveBuffer(n->input.get())].readers.push_back(n.get());
        continue;
      }
      if (n->op == HOp::WriteTo) {
        const HostNode* ident = resolveBuffer(n->dest.get());
        BufferUse& b = buffers_[ident];
        b.writers.push_back(n.get());
        // Dense overwrite: the kernel's implicit output covers the whole
        // destination and the kernel never reads the destination buffer.
        if (callHasOut(n->call.get()) && !callReads(n->call.get(), ident)) {
          b.fullWriters.insert(n.get());
        }
        continue;
      }
      if (n->op != HOp::KernelCall) continue;
      const std::vector<ParamUse>* uses = usesFor(n.get());
      std::size_t slot = 0;
      for (const auto& a : n->kernel.args) {
        if (a.buffer && a.buffer->op != HOp::Param) {
          const HostNode* ident = resolveBuffer(a.buffer.get());
          // Unknown use (malformed kernel): count as a definite read —
          // observers suppress warnings — but never as a writer.
          const bool reads = uses == nullptr || (*uses)[slot].read;
          const bool writes = uses != nullptr && (*uses)[slot].write;
          if (reads) buffers_[ident].readers.push_back(n.get());
          if (writes) buffers_[ident].writers.push_back(n.get());
        }
        ++slot;
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

  void checkDeadWrites() {
    for (const auto& [ident, use] : buffers_) {
      if (use.writers.empty() || !use.readers.empty()) continue;
      // Report once per buffer, anchored at its first writer. Reads from a
      // *later run* count too (iterative steppers rotate buffers), which is
      // why any reader anywhere — ordered or not — keeps the write live.
      // An in-place update of an uploaded (ToGPU) buffer is host-owned
      // persistent state: steppers rotate such buffers between runs with
      // setDeviceBuffer, which no static DAG walk can see, so that case is
      // a note rather than a warning.
      const Severity sev =
          ident->op == HOp::ToGPU ? Severity::Info : Severity::Warning;
      add(sev, use.writers.front(),
          "dead write: '" + label(use.writers.front()) +
              "' writes device buffer '" + label(ident) +
              "' but nothing in this program reads it (no kernel, no "
              "ToHost)" +
              (sev == Severity::Info
                   ? "; uploaded state may be carried across runs"
                   : ""));
    }
  }

  void checkRedundantUploads() {
    for (const auto& [ident, use] : buffers_) {
      if (ident->op != HOp::ToGPU) continue;
      for (const HostNode* w : use.fullWriters) {
        bool allAfter = true;
        for (const HostNode* r : use.readers) {
          if (r != w && !reachable(r, w)) {
            allAfter = false;
            break;
          }
        }
        if (allAfter) {
          add(Severity::Warning, ident,
              "redundant upload: '" + label(ident) +
                  "' is fully overwritten by '" + label(w) +
                  "' before any read, so the transfer is wasted");
          break;
        }
      }
    }
  }

  const host::HostProgram& prog_;
  Report report_;
  std::map<const HostNode*, BufferUse> buffers_;
  std::map<const HostNode*, std::optional<std::vector<ParamUse>>> uses_;
};

}  // namespace

Report lintHostDataflow(const host::HostProgram& prog,
                        const std::string& subjectName) {
  return DataflowLinter(prog, subjectName).run();
}

}  // namespace lifta::analysis
