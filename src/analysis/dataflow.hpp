// Host-program dataflow lint: def-use / liveness reasoning over *device
// buffer identities* of the HostProgram DAG, complementing host_lint's
// structural checks. A buffer identity is the node that owns the memory:
// a ToGPU upload or a value-producing KernelCall (its fresh output); WriteTo
// aliases its destination. Per-kernel read/write sets come from the kernel
// access collector (src/analysis/access), so "reads buffer" and "writes
// buffer" are facts about the generated code, not guesses from argument
// order.
//
// Rules (neither is an Error, so the pass has no verify entry point; it
// runs where warnings are enforced: lifta-lint --werror and the step
// program tests):
//  * dead write (Warning/Info): a buffer some kernel writes but nothing in
//    the program reads — not another kernel, not the kernel itself on its
//    next iteration, not a ToHost readback. The work is computed and
//    dropped. Writes into an *uploaded* (ToGPU) buffer are only an Info:
//    that is host-owned persistent state, and iterative steppers carry it
//    across runs by rotating device buffers (setDeviceBuffer), which the
//    static DAG cannot see.
//  * redundant upload (Warning): a ToGPU transfer whose buffer is fully
//    overwritten (dense WriteTo, destination not read by the writing
//    kernel) before any reader can observe the uploaded contents.
//
// Like host_lint, the header lives in src/analysis but the implementation
// compiles into lifta_host (it needs host/host_program.hpp; lifta_analysis
// cannot link lifta_host without a cycle).
#pragma once

#include "analysis/diagnostics.hpp"
#include "host/host_program.hpp"

namespace lifta::analysis {

/// Runs the dataflow rules; never throws on findings.
Report lintHostDataflow(const host::HostProgram& prog,
                        const std::string& subjectName = "host-program");

}  // namespace lifta::analysis
