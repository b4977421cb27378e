#include "acoustics/step_graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace lifta::acoustics {

namespace {

using analysis::AccessDagBuilder;
using analysis::TaskAccessRecord;

/// Wraps the builder so every declaration is both fed to the edge deriver
/// and retained for the lint replay.
struct RecordingBuilder {
  AccessDagBuilder builder;
  std::vector<TaskAccessRecord>* log = nullptr;

  void read(AccessDagBuilder::TaskId task, AccessDagBuilder::BufferId buf,
            std::int64_t begin, std::int64_t end) {
    builder.read(task, buf, begin, end);
    log->push_back({task, buf, begin, end, /*isWrite=*/false});
  }
  void write(AccessDagBuilder::TaskId task, AccessDagBuilder::BufferId buf,
             std::int64_t begin, std::int64_t end) {
    builder.write(task, buf, begin, end);
    log->push_back({task, buf, begin, end, /*isWrite=*/true});
  }
};

}  // namespace

StepGraphSpec StepGraphSpec::build(const RoomGrid& grid, BoundaryModel model,
                                   int tileZ, int numBranches, int steps,
                                   const std::vector<std::size_t>& receiverIdx) {
  LIFTA_CHECK(steps >= 1, "StepGraphSpec: need at least one step");
  LIFTA_CHECK(tileZ >= 1, "StepGraphSpec: tileZ must be >= 1");

  StepGraphSpec spec;
  spec.steps = steps;
  const int nz = grid.nz;
  const std::int64_t plane =
      static_cast<std::int64_t>(grid.nx) * static_cast<std::int64_t>(grid.ny);
  const std::int64_t cells = plane * nz;
  spec.slabs = (nz + tileZ - 1) / tileZ;

  RecordingBuilder rb;
  rb.log = &spec.accesses;
  // Pressure buffers by *physical* index; roles rotate by step (see
  // pressurePhys). Names document the batch-start role assignment.
  const auto p0 = rb.builder.declareBuffer("pressure0 (prev@k0)", cells);
  const auto p1 = rb.builder.declareBuffer("pressure1 (curr@k0)", cells);
  const auto p2 = rb.builder.declareBuffer("pressure2 (next@k0)", cells);
  const AccessDagBuilder::BufferId pressure[3] = {p0, p1, p2};
  AccessDagBuilder::BufferId g1 = 0, vel[2] = {0, 0};
  const auto numB = static_cast<std::int64_t>(grid.boundaryPoints());
  const bool fdmm = model == BoundaryModel::FdMm;
  if (fdmm) {
    const std::int64_t stateLen =
        static_cast<std::int64_t>(numBranches) * std::max<std::int64_t>(1, numB);
    g1 = rb.builder.declareBuffer("g1", stateLen);
    vel[0] = rb.builder.declareBuffer("vel0 (v1@k0)", stateLen);
    vel[1] = rb.builder.declareBuffer("vel1 (v2@k0)", stateLen);
  }

  // Per-slab subranges of the ascending interior-run list and the ascending
  // boundary-point list. Runs never cross a grid row, so a run lies entirely
  // inside the slab containing its first cell.
  const auto& runBegin = grid.interiorRuns.runBegin;
  const auto& bIdx = grid.boundaryIndices;
  const auto runLowerBound = [&](std::int64_t flat) {
    return static_cast<std::size_t>(
        std::lower_bound(runBegin.begin(), runBegin.end(), flat) -
        runBegin.begin());
  };
  const auto boundaryLowerBound = [&](std::int64_t flat) {
    return static_cast<std::int64_t>(
        std::lower_bound(bIdx.begin(), bIdx.end(), flat,
                         [](std::int32_t v, std::int64_t bound) {
                           return static_cast<std::int64_t>(v) < bound;
                         }) -
        bIdx.begin());
  };

  const bool hasBoundaryPhase = model != BoundaryModel::FusedFi;

  // Per-slab class-slot table (see the header comment): within a class the
  // sorted layout is ascending by cell index, so the slots of a slab form a
  // contiguous subrange found by binary search on the slab's first plane.
  const auto& cp = grid.boundaryClasses;
  spec.slabClassSlot.resize(
      static_cast<std::size_t>(spec.slabs + 1) * kNumBoundaryClasses);
  for (int s = 0; s <= spec.slabs; ++s) {
    const std::int64_t zPlane =
        std::min<std::int64_t>(nz, static_cast<std::int64_t>(s) * tileZ) *
        plane;
    for (int c = 0; c < kNumBoundaryClasses; ++c) {
      const auto segBegin =
          cp.cellSorted.begin() + cp.classBegin[static_cast<std::size_t>(c)];
      const auto segEnd =
          cp.cellSorted.begin() +
          cp.classBegin[static_cast<std::size_t>(c) + 1];
      spec.slabClassSlot[static_cast<std::size_t>(s) * kNumBoundaryClasses +
                         static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(
              std::lower_bound(segBegin, segEnd, zPlane,
                               [](std::int32_t v, std::int64_t bound) {
                                 return static_cast<std::int64_t>(v) < bound;
                               }) -
              cp.cellSorted.begin());
    }
  }

  for (int k = 0; k < steps; ++k) {
    const auto prevBuf = pressure[pressurePhys(0, k)];
    const auto currBuf = pressure[pressurePhys(1, k)];
    const auto nextBuf = pressure[pressurePhys(2, k)];

    // Volume tasks, one per slab, in ascending-z (= serial scan) order.
    for (int s = 0; s < spec.slabs; ++s) {
      const int z0 = s * tileZ;
      const int z1 = std::min(nz, z0 + tileZ);
      StepTaskSpec t;
      t.phase = StepTaskSpec::Phase::Volume;
      t.step = k;
      t.slab = s;
      t.run0 = runLowerBound(static_cast<std::int64_t>(z0) * plane);
      t.run1 = runLowerBound(static_cast<std::int64_t>(z1) * plane);
      t.b0 = boundaryLowerBound(static_cast<std::int64_t>(z0) * plane);
      t.b1 = boundaryLowerBound(static_cast<std::int64_t>(z1) * plane);
      const auto id =
          static_cast<AccessDagBuilder::TaskId>(spec.tasks.size());
      spec.tasks.push_back(t);
      // Stencil: curr at z-1..z1, prev own cell, next own cell.
      rb.read(id, currBuf, std::max(0, z0 - 1) * plane,
              std::min(nz, z1 + 1) * plane);
      rb.read(id, prevBuf, static_cast<std::int64_t>(z0) * plane,
              static_cast<std::int64_t>(z1) * plane);
      rb.write(id, nextBuf, static_cast<std::int64_t>(z0) * plane,
               static_cast<std::int64_t>(z1) * plane);
    }

    // Boundary tasks for slabs that own boundary points. The kernels only
    // touch their own cells (and, for FD-MM, their own branch-state rows),
    // so the access hull of a slab's points stays inside the slab and the
    // derived dependence is just "my slab's volume task" — not a barrier.
    if (hasBoundaryPhase && numB > 0) {
      for (int s = 0; s < spec.slabs; ++s) {
        const int z0 = s * tileZ;
        const int z1 = std::min(nz, z0 + tileZ);
        const std::int64_t i0 =
            boundaryLowerBound(static_cast<std::int64_t>(z0) * plane);
        const std::int64_t i1 =
            boundaryLowerBound(static_cast<std::int64_t>(z1) * plane);
        if (i0 >= i1) continue;
        StepTaskSpec t;
        t.phase = StepTaskSpec::Phase::Boundary;
        t.step = k;
        t.slab = s;
        t.b0 = i0;
        t.b1 = i1;
        const auto id =
            static_cast<AccessDagBuilder::TaskId>(spec.tasks.size());
        spec.tasks.push_back(t);
        // Conservative contiguous hull of the slab's boundary cells.
        const std::int64_t lo = bIdx[static_cast<std::size_t>(i0)];
        const std::int64_t hi = bIdx[static_cast<std::size_t>(i1 - 1)] + 1;
        rb.read(id, prevBuf, lo, hi);
        rb.read(id, nextBuf, lo, hi);
        rb.write(id, nextBuf, lo, hi);
        if (fdmm) {
          const auto vw = vel[velocityWritePhys(k)];
          const auto vr = vel[1 - velocityWritePhys(k)];
          for (int b = 0; b < numBranches; ++b) {
            const std::int64_t row = static_cast<std::int64_t>(b) * numB;
            rb.read(id, g1, row + i0, row + i1);
            rb.write(id, g1, row + i0, row + i1);
            rb.read(id, vr, row + i0, row + i1);
            rb.write(id, vw, row + i0, row + i1);
          }
        }
      }
    }

    // One sampling task per step; it reads exactly the receiver cells of the
    // just-completed field, so it depends on the tasks that wrote those
    // cells — and tasks of step k+3 that recycle the buffer pick up the
    // write-after-read edge automatically.
    if (!receiverIdx.empty()) {
      StepTaskSpec t;
      t.phase = StepTaskSpec::Phase::Sample;
      t.step = k;
      const auto id = static_cast<AccessDagBuilder::TaskId>(spec.tasks.size());
      spec.tasks.push_back(t);
      for (std::size_t idx : receiverIdx) {
        rb.read(id, nextBuf, static_cast<std::int64_t>(idx),
                static_cast<std::int64_t>(idx) + 1);
      }
    }
  }

  spec.edges = rb.builder.edges();
  spec.bufferNames.reserve(rb.builder.bufferCount());
  for (AccessDagBuilder::BufferId b = 0; b < rb.builder.bufferCount(); ++b) {
    spec.bufferNames.push_back(rb.builder.bufferName(b));
  }
  return spec;
}

}  // namespace lifta::acoustics
