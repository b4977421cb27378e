#include "acoustics/reference_kernels.hpp"

#include "common/error.hpp"

namespace lifta::acoustics {

template <typename T>
void refFusedFiBoxSlab(const T* prev, const T* curr, T* next, int nx, int ny,
                       int nz, int z0, int z1, T l, T l2, T beta) {
  // Listing 1, kept line-for-line: analytic nbr, fused boundary handling.
  // The flat index is a row base advanced by one per x iteration; the same
  // integer value as z*nx*ny + (y*nx + x), without the per-cell multiplies.
  for (int z = z0; z < z1; ++z) {
    for (int y = 0; y < ny; ++y) {
      std::int64_t idx = static_cast<std::int64_t>(z) * nx * ny +
                         static_cast<std::int64_t>(y) * nx;
      for (int x = 0; x < nx; ++x, ++idx) {
        int nbr = (x == 1 ? 0 : 1) + (y == 1 ? 0 : 1) + (z == 1 ? 0 : 1) +
                  (x == nx - 2 ? 0 : 1) + (y == ny - 2 ? 0 : 1) +
                  (z == nz - 2 ? 0 : 1);
        if (x == 0 || y == 0 || z == 0 || x == nx - 1 || y == ny - 1 ||
            z == nz - 1) {
          nbr = 0;  // outside
        }
        if (nbr > 0) {  // inside or at boundary
          const T s = curr[idx - 1] + curr[idx + 1] + curr[idx - nx] +
                      curr[idx + nx] +
                      curr[idx - static_cast<std::int64_t>(nx) * ny] +
                      curr[idx + static_cast<std::int64_t>(nx) * ny];
          if (nbr < 6) {  // at boundary
            const T cf = T(0.5) * l * T(6 - nbr) * beta;
            next[idx] = ((T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s +
                         (cf - T(1.0)) * prev[idx]) /
                        (T(1.0) + cf);
          } else {  // inside
            next[idx] =
                (T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s - prev[idx];
          }
        }
      }
    }
  }
}

template <typename T>
void refFusedFiBox(const T* prev, const T* curr, T* next, int nx, int ny,
                   int nz, T l, T l2, T beta) {
  refFusedFiBoxSlab(prev, curr, next, nx, ny, nz, 0, nz, l, l2, beta);
}

template <typename T>
void refFusedFiLookup(const std::int32_t* nbrs, const T* prev, const T* curr,
                      T* next, int nx, int ny, int nz, T l, T l2, T beta) {
  const std::int64_t cells = static_cast<std::int64_t>(nx) * ny * nz;
  for (std::int64_t idx = 0; idx < cells; ++idx) {
    const int nbr = nbrs[idx];
    if (nbr > 0) {
      const T s = curr[idx - 1] + curr[idx + 1] + curr[idx - nx] +
                  curr[idx + nx] +
                  curr[idx - static_cast<std::int64_t>(nx) * ny] +
                  curr[idx + static_cast<std::int64_t>(nx) * ny];
      if (nbr < 6) {
        const T cf = T(0.5) * l * T(6 - nbr) * beta;
        next[idx] = ((T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s +
                     (cf - T(1.0)) * prev[idx]) /
                    (T(1.0) + cf);
      } else {
        next[idx] = (T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s - prev[idx];
      }
    }
  }
}

template <typename T>
void refVolume(const std::int32_t* nbrs, const T* prev, const T* curr,
               T* next, int nx, int ny, int nz, T l2) {
  // Listing 2, kernel 1.
  const std::int64_t cells = static_cast<std::int64_t>(nx) * ny * nz;
  for (std::int64_t idx = 0; idx < cells; ++idx) {
    const int nbr = nbrs[idx];
    if (nbr > 0) {  // inside or at boundary
      const T s = curr[idx - 1] + curr[idx + 1] + curr[idx - nx] +
                  curr[idx + nx] +
                  curr[idx - static_cast<std::int64_t>(nx) * ny] +
                  curr[idx + static_cast<std::int64_t>(nx) * ny];
      next[idx] = (T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s - prev[idx];
    }
  }
}

template <typename T>
void refVolumeRunsRange(const std::int64_t* runBegin,
                        const std::int32_t* runLen, std::size_t r0,
                        std::size_t r1, const T* prev, const T* curr, T* next,
                        int nx, int ny, T l2) {
  const std::int64_t plane = static_cast<std::int64_t>(nx) * ny;
  // Every cell of a run has nbr == 6, so the per-cell coefficient is the
  // loop-invariant 2 - l2*6 — T(6) is exact, the subtraction and multiply
  // are the same operations as (2 - l2*nbr) at nbr = 6: identical bits.
  const T c0 = T(2.0) - l2 * T(6);
  const T* __restrict p = prev;
  const T* __restrict c = curr;
  T* __restrict n = next;
  for (std::size_t r = r0; r < r1; ++r) {
    const std::int64_t begin = runBegin[r];
    const std::int64_t end = begin + runLen[r];
    for (std::int64_t idx = begin; idx < end; ++idx) {
      const T s = c[idx - 1] + c[idx + 1] + c[idx - nx] + c[idx + nx] +
                  c[idx - plane] + c[idx + plane];
      n[idx] = c0 * c[idx] + l2 * s - p[idx];
    }
  }
}

template <typename T>
void refVolumeResidualRange(const std::int32_t* boundaryIndices,
                            const std::int32_t* boundaryNbr, std::int64_t i0,
                            std::int64_t i1, const T* prev, const T* curr,
                            T* next, int nx, int ny, T l2) {
  const std::int64_t plane = static_cast<std::int64_t>(nx) * ny;
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::int64_t idx = boundaryIndices[i];
    const int nbr = boundaryNbr[i];
    const T s = curr[idx - 1] + curr[idx + 1] + curr[idx - nx] +
                curr[idx + nx] + curr[idx - plane] + curr[idx + plane];
    next[idx] = (T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s - prev[idx];
  }
}

template <typename T>
void refFusedFiResidualRange(const std::int32_t* boundaryIndices,
                             const std::int32_t* boundaryNbr, std::int64_t i0,
                             std::int64_t i1, const T* prev, const T* curr,
                             T* next, int nx, int ny, T l, T l2, T beta) {
  const std::int64_t plane = static_cast<std::int64_t>(nx) * ny;
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::int64_t idx = boundaryIndices[i];
    const int nbr = boundaryNbr[i];
    const T s = curr[idx - 1] + curr[idx + 1] + curr[idx - nx] +
                curr[idx + nx] + curr[idx - plane] + curr[idx + plane];
    const T cf = T(0.5) * l * T(6 - nbr) * beta;
    next[idx] = ((T(2.0) - l2 * T(nbr)) * curr[idx] + l2 * s +
                 (cf - T(1.0)) * prev[idx]) /
                (T(1.0) + cf);
  }
}

template <typename T>
void refVolumeRuns(const std::int64_t* runBegin, const std::int32_t* runLen,
                   std::size_t numRuns, const std::int32_t* boundaryIndices,
                   const std::int32_t* boundaryNbr,
                   std::int64_t numBoundaryPoints, const T* prev,
                   const T* curr, T* next, int nx, int ny, T l2) {
  refVolumeRunsRange(runBegin, runLen, 0, numRuns, prev, curr, next, nx, ny,
                     l2);
  refVolumeResidualRange(boundaryIndices, boundaryNbr, 0, numBoundaryPoints,
                         prev, curr, next, nx, ny, l2);
}

template <typename T>
void refFusedFiRuns(const std::int64_t* runBegin, const std::int32_t* runLen,
                    std::size_t numRuns, const std::int32_t* boundaryIndices,
                    const std::int32_t* boundaryNbr,
                    std::int64_t numBoundaryPoints, const T* prev,
                    const T* curr, T* next, int nx, int ny, T l, T l2,
                    T beta) {
  refVolumeRunsRange(runBegin, runLen, 0, numRuns, prev, curr, next, nx, ny,
                     l2);
  refFusedFiResidualRange(boundaryIndices, boundaryNbr, 0, numBoundaryPoints,
                          prev, curr, next, nx, ny, l, l2, beta);
}

template <typename T>
void refFiBoundary(const std::int32_t* boundaryIndices,
                   const std::int32_t* nbrs, const T* prev, T* next,
                   std::int64_t numBoundaryPoints, T l, T beta) {
  // Listing 2, kernel 2.
  for (std::int64_t i = 0; i < numBoundaryPoints; ++i) {
    const std::int32_t idx = boundaryIndices[i];
    const int nbr = nbrs[idx];
    const T cf = T(0.5) * l * T(6 - nbr) * beta;
    next[idx] = (next[idx] + cf * prev[idx]) / (T(1.0) + cf);
  }
}

template <typename T>
void refFiMmBoundary(const std::int32_t* boundaryIndices,
                     const std::int32_t* nbrs, const std::int32_t* material,
                     const T* beta, const T* prev, T* next,
                     std::int64_t numBoundaryPoints, T l) {
  // Listing 3.
  for (std::int64_t i = 0; i < numBoundaryPoints; ++i) {
    const std::int32_t idx = boundaryIndices[i];
    const int nbr = nbrs[idx];
    const int mi = material[i];
    const T cf = T(0.5) * l * T(6 - nbr) * beta[mi];
    next[idx] = (next[idx] + cf * prev[idx]) / (T(1.0) + cf);
  }
}

template <typename T>
void refFdMmBoundary(const std::int32_t* boundaryIndices,
                     const std::int32_t* nbrs, const std::int32_t* material,
                     const T* beta, const T* BI, const T* D, const T* DI,
                     const T* F, int numBranches, const T* prev, T* next,
                     T* g1, T* v1, const T* v2,
                     std::int64_t numBoundaryPoints, T l) {
  // Listing 4, kept structurally identical (private copies, two branch
  // loops, in-place writes to next / g1 / v1).
  LIFTA_CHECK(numBranches <= kMaxBranches, "too many ODE branches");
  for (std::int64_t i = 0; i < numBoundaryPoints; ++i) {
    T _g1[kMaxBranches];
    T _v2[kMaxBranches];
    const std::int32_t idx = boundaryIndices[i];
    const int nbr = nbrs[idx];
    const int mi = material[i];
    const T cf1 = l * T(6 - nbr);
    const T cf = T(0.5) * cf1 * beta[mi];
    T _next = next[idx];
    const T _prev = prev[idx];
    for (int b = 0; b < numBranches; ++b) {  // for each ODE branch
      const std::int64_t ci = static_cast<std::int64_t>(b) *
                              numBoundaryPoints + i;
      const std::int64_t mb = static_cast<std::int64_t>(mi) * numBranches + b;
      _g1[b] = g1[ci];
      _v2[b] = v2[ci];
      _next -= cf1 * BI[mb] * (T(2.0) * D[mb] * _v2[b] - F[mb] * _g1[b]);
    }
    _next = (_next + cf * _prev) / (T(1.0) + cf);
    next[idx] = _next;
    for (int b = 0; b < numBranches; ++b) {  // for each ODE branch
      const std::int64_t ci = static_cast<std::int64_t>(b) *
                              numBoundaryPoints + i;
      const std::int64_t mb = static_cast<std::int64_t>(mi) * numBranches + b;
      const T _v1 = BI[mb] * (_next - _prev + DI[mb] * _v2[b] -
                              T(2.0) * F[mb] * _g1[b]);
      g1[ci] = _g1[b] + T(0.5) * (_v1 + _v2[b]);
      v1[ci] = _v1;
    }
  }
}

template <typename T>
void refFiClassRange(const std::int32_t* cellSorted, int nbr, const T* prev,
                     T* next, std::int64_t j0, std::int64_t j1, T l, T beta) {
  // Listing 2, kernel 2, with the class-uniform nbr: the whole coefficient
  // hoists (same left-to-right association as refFiBoundary).
  const T cf = T(0.5) * l * T(6 - nbr) * beta;
  const T cfp1 = T(1.0) + cf;
  for (std::int64_t j = j0; j < j1; ++j) {
    const std::int32_t idx = cellSorted[j];
    next[idx] = (next[idx] + cf * prev[idx]) / cfp1;
  }
}

template <typename T>
void refFiMixedRange(const std::int32_t* cellSorted,
                     const std::int32_t* nbrSorted, const T* prev, T* next,
                     std::int64_t j0, std::int64_t j1, T l, T beta) {
  for (std::int64_t j = j0; j < j1; ++j) {
    const std::int32_t idx = cellSorted[j];
    const int nbr = nbrSorted[j];
    const T cf = T(0.5) * l * T(6 - nbr) * beta;
    next[idx] = (next[idx] + cf * prev[idx]) / (T(1.0) + cf);
  }
}

template <typename T>
void refFiMmClassRange(const std::int32_t* cellSorted,
                       const std::int32_t* matSorted, int nbr, const T* beta,
                       const T* prev, T* next, std::int64_t j0,
                       std::int64_t j1, T l) {
  // Listing 3 with the nbr-dependent prefix hoisted; cf = cfBase * beta[mi]
  // keeps the association of T(0.5) * l * T(6-nbr) * beta[mi].
  const T cfBase = T(0.5) * l * T(6 - nbr);
  for (std::int64_t j = j0; j < j1; ++j) {
    const std::int32_t idx = cellSorted[j];
    const int mi = matSorted[j];
    const T cf = cfBase * beta[mi];
    next[idx] = (next[idx] + cf * prev[idx]) / (T(1.0) + cf);
  }
}

template <typename T>
void refFiMmMixedRange(const std::int32_t* cellSorted,
                       const std::int32_t* nbrSorted,
                       const std::int32_t* matSorted, const T* beta,
                       const T* prev, T* next, std::int64_t j0,
                       std::int64_t j1, T l) {
  for (std::int64_t j = j0; j < j1; ++j) {
    const std::int32_t idx = cellSorted[j];
    const int nbr = nbrSorted[j];
    const int mi = matSorted[j];
    const T cf = T(0.5) * l * T(6 - nbr) * beta[mi];
    next[idx] = (next[idx] + cf * prev[idx]) / (T(1.0) + cf);
  }
}

namespace {

// Shared FD-MM point body with a compile-time branch count: the two branch
// loops fully unroll and the private state lands in registers. `cf1` and
// `cf` arrive precomputed with the original association (see callers).
template <typename T, int NB>
inline void fdMmPoint(std::int32_t idx, std::int64_t i, int mi, T cf1, T cf,
                      const T* BI, const T* D, const T* DI, const T* F,
                      const T* prev, T* next, T* g1, T* v1, const T* v2,
                      std::int64_t numBoundaryPoints) {
  T _g1[NB];
  T _v2[NB];
  T _next = next[idx];
  const T _prev = prev[idx];
  for (int b = 0; b < NB; ++b) {
    const std::int64_t ci =
        static_cast<std::int64_t>(b) * numBoundaryPoints + i;
    const std::int64_t mb = static_cast<std::int64_t>(mi) * NB + b;
    _g1[b] = g1[ci];
    _v2[b] = v2[ci];
    _next -= cf1 * BI[mb] * (T(2.0) * D[mb] * _v2[b] - F[mb] * _g1[b]);
  }
  _next = (_next + cf * _prev) / (T(1.0) + cf);
  next[idx] = _next;
  for (int b = 0; b < NB; ++b) {
    const std::int64_t ci =
        static_cast<std::int64_t>(b) * numBoundaryPoints + i;
    const std::int64_t mb = static_cast<std::int64_t>(mi) * NB + b;
    const T _v1 =
        BI[mb] * (_next - _prev + DI[mb] * _v2[b] - T(2.0) * F[mb] * _g1[b]);
    g1[ci] = _g1[b] + T(0.5) * (_v1 + _v2[b]);
    v1[ci] = _v1;
  }
}

template <typename T, int NB>
void fdMmClassRangeNB(const std::int32_t* cellSorted,
                      const std::int32_t* matSorted,
                      const std::int32_t* origPos, const T* beta, const T* BI,
                      const T* D, const T* DI, const T* F, const T* prev,
                      T* next, T* g1, T* v1, const T* v2,
                      std::int64_t numBoundaryPoints, std::int64_t j0,
                      std::int64_t j1, T cf1) {
  // cf = T(0.5) * cf1 * beta[mi]; the nbr-only prefix hoists.
  const T cfHalf = T(0.5) * cf1;
  for (std::int64_t j = j0; j < j1; ++j) {
    const int mi = matSorted[j];
    fdMmPoint<T, NB>(cellSorted[j], origPos[j], mi, cf1, cfHalf * beta[mi],
                     BI, D, DI, F, prev, next, g1, v1, v2, numBoundaryPoints);
  }
}

template <typename T, int NB>
void fdMmMixedRangeNB(const std::int32_t* cellSorted,
                      const std::int32_t* nbrSorted,
                      const std::int32_t* matSorted,
                      const std::int32_t* origPos, const T* beta, const T* BI,
                      const T* D, const T* DI, const T* F, const T* prev,
                      T* next, T* g1, T* v1, const T* v2,
                      std::int64_t numBoundaryPoints, std::int64_t j0,
                      std::int64_t j1, T l) {
  for (std::int64_t j = j0; j < j1; ++j) {
    const int mi = matSorted[j];
    const T cf1 = l * T(6 - nbrSorted[j]);
    const T cf = T(0.5) * cf1 * beta[mi];
    fdMmPoint<T, NB>(cellSorted[j], origPos[j], mi, cf1, cf, BI, D, DI, F,
                     prev, next, g1, v1, v2, numBoundaryPoints);
  }
}

}  // namespace

template <typename T>
void refFdMmClassRange(const std::int32_t* cellSorted,
                       const std::int32_t* matSorted,
                       const std::int32_t* origPos, int nbr, const T* beta,
                       const T* BI, const T* D, const T* DI, const T* F,
                       int numBranches, const T* prev, T* next, T* g1, T* v1,
                       const T* v2, std::int64_t numBoundaryPoints,
                       std::int64_t j0, std::int64_t j1, T l) {
  LIFTA_CHECK(numBranches >= 1 && numBranches <= kMaxBranches,
              "FD-MM needs 1..kMaxBranches ODE branches");
  const T cf1 = l * T(6 - nbr);
  switch (numBranches) {
#define LIFTA_FDMM_CASE(NB)                                                  \
  case NB:                                                                   \
    fdMmClassRangeNB<T, NB>(cellSorted, matSorted, origPos, beta, BI, D, DI, \
                            F, prev, next, g1, v1, v2, numBoundaryPoints,    \
                            j0, j1, cf1);                                    \
    break
    LIFTA_FDMM_CASE(1);
    LIFTA_FDMM_CASE(2);
    LIFTA_FDMM_CASE(3);
    LIFTA_FDMM_CASE(4);
    LIFTA_FDMM_CASE(5);
    LIFTA_FDMM_CASE(6);
    LIFTA_FDMM_CASE(7);
    LIFTA_FDMM_CASE(8);
#undef LIFTA_FDMM_CASE
  }
}

template <typename T>
void refFdMmMixedRange(const std::int32_t* cellSorted,
                       const std::int32_t* nbrSorted,
                       const std::int32_t* matSorted,
                       const std::int32_t* origPos, const T* beta, const T* BI,
                       const T* D, const T* DI, const T* F, int numBranches,
                       const T* prev, T* next, T* g1, T* v1, const T* v2,
                       std::int64_t numBoundaryPoints, std::int64_t j0,
                       std::int64_t j1, T l) {
  LIFTA_CHECK(numBranches >= 1 && numBranches <= kMaxBranches,
              "FD-MM needs 1..kMaxBranches ODE branches");
  switch (numBranches) {
#define LIFTA_FDMM_CASE(NB)                                                  \
  case NB:                                                                   \
    fdMmMixedRangeNB<T, NB>(cellSorted, nbrSorted, matSorted, origPos, beta, \
                            BI, D, DI, F, prev, next, g1, v1, v2,            \
                            numBoundaryPoints, j0, j1, l);                   \
    break
    LIFTA_FDMM_CASE(1);
    LIFTA_FDMM_CASE(2);
    LIFTA_FDMM_CASE(3);
    LIFTA_FDMM_CASE(4);
    LIFTA_FDMM_CASE(5);
    LIFTA_FDMM_CASE(6);
    LIFTA_FDMM_CASE(7);
    LIFTA_FDMM_CASE(8);
#undef LIFTA_FDMM_CASE
  }
}

// Explicit instantiations for both paper precisions.
#define LIFTA_INSTANTIATE(T)                                                  \
  template void refFusedFiBox<T>(const T*, const T*, T*, int, int, int, T, T, \
                                 T);                                          \
  template void refFusedFiBoxSlab<T>(const T*, const T*, T*, int, int, int,   \
                                     int, int, T, T, T);                      \
  template void refFusedFiLookup<T>(const std::int32_t*, const T*, const T*,  \
                                    T*, int, int, int, T, T, T);              \
  template void refVolume<T>(const std::int32_t*, const T*, const T*, T*,     \
                             int, int, int, T);                               \
  template void refVolumeRunsRange<T>(const std::int64_t*,                    \
                                      const std::int32_t*, std::size_t,       \
                                      std::size_t, const T*, const T*, T*,    \
                                      int, int, T);                           \
  template void refVolumeResidualRange<T>(const std::int32_t*,                \
                                          const std::int32_t*, std::int64_t,  \
                                          std::int64_t, const T*, const T*,   \
                                          T*, int, int, T);                   \
  template void refFusedFiResidualRange<T>(                                   \
      const std::int32_t*, const std::int32_t*, std::int64_t, std::int64_t,   \
      const T*, const T*, T*, int, int, T, T, T);                             \
  template void refVolumeRuns<T>(const std::int64_t*, const std::int32_t*,    \
                                 std::size_t, const std::int32_t*,            \
                                 const std::int32_t*, std::int64_t, const T*, \
                                 const T*, T*, int, int, T);                  \
  template void refFusedFiRuns<T>(const std::int64_t*, const std::int32_t*,   \
                                  std::size_t, const std::int32_t*,           \
                                  const std::int32_t*, std::int64_t,          \
                                  const T*, const T*, T*, int, int, T, T,     \
                                  T);                                         \
  template void refFiBoundary<T>(const std::int32_t*, const std::int32_t*,    \
                                 const T*, T*, std::int64_t, T, T);           \
  template void refFiMmBoundary<T>(const std::int32_t*, const std::int32_t*,  \
                                   const std::int32_t*, const T*, const T*,   \
                                   T*, std::int64_t, T);                      \
  template void refFdMmBoundary<T>(const std::int32_t*, const std::int32_t*,  \
                                   const std::int32_t*, const T*, const T*,   \
                                   const T*, const T*, const T*, int,         \
                                   const T*, T*, T*, T*, const T*,            \
                                   std::int64_t, T);                          \
  template void refFiClassRange<T>(const std::int32_t*, int, const T*, T*,    \
                                   std::int64_t, std::int64_t, T, T);         \
  template void refFiMixedRange<T>(const std::int32_t*, const std::int32_t*,  \
                                   const T*, T*, std::int64_t, std::int64_t,  \
                                   T, T);                                     \
  template void refFiMmClassRange<T>(const std::int32_t*,                     \
                                     const std::int32_t*, int, const T*,      \
                                     const T*, T*, std::int64_t,              \
                                     std::int64_t, T);                        \
  template void refFiMmMixedRange<T>(const std::int32_t*,                     \
                                     const std::int32_t*,                     \
                                     const std::int32_t*, const T*, const T*, \
                                     T*, std::int64_t, std::int64_t, T);      \
  template void refFdMmClassRange<T>(                                         \
      const std::int32_t*, const std::int32_t*, const std::int32_t*, int,     \
      const T*, const T*, const T*, const T*, const T*, int, const T*, T*,    \
      T*, T*, const T*, std::int64_t, std::int64_t, std::int64_t, T);         \
  template void refFdMmMixedRange<T>(                                         \
      const std::int32_t*, const std::int32_t*, const std::int32_t*,          \
      const std::int32_t*, const T*, const T*, const T*, const T*, const T*,  \
      int, const T*, T*, T*, T*, const T*, std::int64_t, std::int64_t,        \
      std::int64_t, T)

LIFTA_INSTANTIATE(float);
LIFTA_INSTANTIATE(double);
#undef LIFTA_INSTANTIATE

}  // namespace lifta::acoustics
