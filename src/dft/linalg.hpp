#pragma once
// Dense linear algebra kernels: blocked GEMM and symmetric/Hermitian
// eigensolvers (the paper's SYEVD), implemented from scratch.
//
// Every symmetric eigensolve, full (`syevd`) or partial (`syevd_partial`),
// runs one pipeline at every size:
//
//  1. full -> band reduction via blocked QR panels whose two-sided
//     trailing updates are pure level-3 GEMM;
//  2. band -> tridiagonal via Givens bulge chasing (the rotations are
//     logged);
//  3. the tridiagonal eigensolve: Cuppen divide-and-conquer for the full
//     spectrum (secular-equation roots with dlaed2-style deflation,
//     merges back-multiplied as GEMMs), or bisection + inverse iteration
//     for the lowest m pairs;
//  4. the back-transform: the reversed rotation log, then the band
//     reduction's reflectors as compact-WY GEMMs, over the n x n or
//     n x m eigenvector block.
//
// The serial EISPACK-lineage tred2/tql2 pair is kept as `syevd_naive`,
// the oracle the pipeline is tested and benchmarked against.
// Complex Hermitian problems are solved through the standard real
// embedding [[A, -B], [B, A]], so they ride the blocked real path too;
// large complex GEMMs are computed with a 3M split (three real products
// on the real microkernel).

#include <vector>

#include "dft/matrix.hpp"

namespace ndft::dft {

/// Running tally of arithmetic and traffic, used to validate the analytic
/// kernel descriptors against the real numerics.
struct OpCount {
  Flops flops = 0;
  Bytes bytes = 0;

  void add(Flops f, Bytes b) noexcept {
    flops += f;
    bytes += b;
  }
};

/// C = alpha * op(A) * op(B) + beta * C for real matrices.
/// op is controlled by `transpose_a` / `transpose_b`. Cache-blocked with
/// panel packing (transposition happens inside the packing, so no operand
/// copies) and parallelised over row blocks on the thread pool; results
/// are bitwise identical for any thread count. `count`, when non-null,
/// accumulates flop/byte tallies.
void gemm(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
          double alpha = 1.0, double beta = 0.0, bool transpose_a = false,
          bool transpose_b = false, OpCount* count = nullptr);

/// Complex version; `transpose_a` applies the conjugate transpose.
void gemm(const ComplexMatrix& a, const ComplexMatrix& b, ComplexMatrix& c,
          Complex alpha = Complex{1.0, 0.0}, Complex beta = Complex{0.0, 0.0},
          bool conj_transpose_a = false, bool transpose_b = false,
          OpCount* count = nullptr);

/// Textbook triple-loop GEMM, kept as the reference implementation the
/// blocked kernels are tested and benchmarked against. Same semantics and
/// OpCount accounting as gemm().
void gemm_naive(const RealMatrix& a, const RealMatrix& b, RealMatrix& c,
                double alpha = 1.0, double beta = 0.0,
                bool transpose_a = false, bool transpose_b = false,
                OpCount* count = nullptr);

/// Complex reference; `conj_transpose_a` applies the conjugate transpose.
void gemm_naive(const ComplexMatrix& a, const ComplexMatrix& b,
                ComplexMatrix& c, Complex alpha = Complex{1.0, 0.0},
                Complex beta = Complex{0.0, 0.0},
                bool conj_transpose_a = false, bool transpose_b = false,
                OpCount* count = nullptr);

/// Analytic cost tally of a full-spectrum n x n symmetric eigensolve,
/// modelling the production two-stage path: ~2n^3 level-3 flops for the
/// full->band reduction, ~(8/3)n^3 for the divide-and-conquer merges,
/// ~3n^3 for the reversed bulge-chase rotations and ~2n^3 for the
/// compact-WY back-transform, plus the O(n^2 b) chase itself; bytes are
/// dominated by the per-panel trailing-square copies (O(n^3 / b)). The
/// one formula shared by the solvers' OpCount/trace accounting, the
/// analytic workload descriptors and the Engine's queue estimator.
struct SyevdCost {
  Flops flops = 0;
  Bytes bytes = 0;
};
SyevdCost syevd_cost(std::size_t n) noexcept;

/// Result of a symmetric eigensolve.
struct EigenResult {
  std::vector<double> eigenvalues;  ///< ascending
  RealMatrix eigenvectors;          ///< column j pairs with eigenvalue j
};

/// Solves the full eigenproblem of a real symmetric matrix (SYEVD). This
/// is the production entry point every physics consumer goes through:
/// band reduction + bulge chase + divide-and-conquer + back-transform
/// (the overview above), whose trailing updates and merge
/// back-multiplications are level-3 GEMM. Results are bitwise identical
/// for any thread count. Throws NdftError if the matrix is not square or
/// an iteration fails to converge (pathological input).
EigenResult syevd(const RealMatrix& symmetric, OpCount* count = nullptr);

/// Serial reference solver (EISPACK tred2/tql2 lineage), kept as the
/// ground truth `syevd` is validated and benchmarked against. Same
/// semantics and OpCount accounting as syevd().
EigenResult syevd_naive(const RealMatrix& symmetric,
                        OpCount* count = nullptr);

/// Analytic cost tally of a partial eigensolve returning the lowest `m`
/// pairs: the full reduction survives (approximated as ~(4/3)n^3), but
/// the tridiagonal stage and the back-transformation shrink to O(n^2 m).
/// Collapses to syevd_cost(n) in the regime where syevd_partial()
/// delegates to the full solver.
SyevdCost syevd_partial_cost(std::size_t n, std::size_t m) noexcept;

/// Solves for the lowest `m` eigenpairs of a real symmetric matrix
/// (1 <= m <= n). Runs syevd()'s band reduction and bulge chase, then
/// replaces divide-and-conquer with bisection (Sturm counts on the
/// tridiagonal matrix) plus inverse iteration for just those `m` vectors,
/// which go back through the reversed chase rotations and the compact-WY
/// GEMMs restricted to m columns — O(n^2 m) after the reduction instead
/// of O(n^3). When 2m > n the savings vanish and the call delegates to
/// syevd(), truncated to m pairs, so callers can request any window; an
/// injected `solver.syevd_partial` fault or a problem the inverse
/// iteration rejects takes the same route, noted as the degradation
/// `syevd_partial:full_fallback`. Eigenvalues match the full solver to
/// ~n*eps*||A||; eigenvectors match to sign within nondegenerate
/// multiplets (clustered eigenvalues are re-orthogonalised, spanning the
/// same invariant subspace). Results are bitwise identical for any
/// thread count.
EigenResult syevd_partial(const RealMatrix& symmetric, std::size_t m,
                          OpCount* count = nullptr);

/// Result of a Hermitian eigensolve.
struct HermitianEigenResult {
  std::vector<double> eigenvalues;  ///< ascending
  ComplexMatrix eigenvectors;       ///< column j pairs with eigenvalue j
};

/// Solves the full eigenproblem of a complex Hermitian matrix via the real
/// 2n x 2n embedding (each eigenvalue appears twice; duplicates are
/// folded), so the solve runs on the blocked real syevd() path.
HermitianEigenResult heev(const ComplexMatrix& hermitian,
                          OpCount* count = nullptr);

/// Zeroes the calling thread's accumulated linalg wall time, including
/// the per-stage tallies below. The engine resets before executing a job
/// and reads the tallies after, giving every JobResult its `linalg_ms` /
/// stage timing buckets.
void linalg_timer_reset() noexcept;

/// Wall-clock milliseconds the calling thread has spent inside top-level
/// linalg entry points (gemm/syevd/heev) since the last reset. Nested
/// calls (GEMM inside syevd) are counted once, under the outermost entry.
double linalg_timer_ms() noexcept;

/// Per-stage wall-clock split of the eigensolver time: the reduction to
/// tridiagonal form (band reduction + bulge chase), the tridiagonal
/// eigensolve (divide-and-conquer, or bisection + inverse iteration for
/// partial solves), and the eigenvector back-transformation (reversed
/// rotation log + compact-WY GEMMs). The three buckets are disjoint
/// sub-spans of `linalg_timer_ms`, so they add up to at most the total.
struct LinalgStageTimes {
  double reduce_ms = 0.0;
  double tridiag_ms = 0.0;
  double backtransform_ms = 0.0;
};

/// The calling thread's accumulated stage split since the last
/// linalg_timer_reset().
LinalgStageTimes linalg_stage_times() noexcept;

/// Frobenius norm of (A*x - lambda*x) for result verification in tests.
double eigen_residual(const RealMatrix& symmetric, const EigenResult& result);

/// Copies the upper triangle into the lower one. Used by the symmetric
/// Hamiltonian assemblies, whose upper triangles are filled row-wise on
/// the thread pool; the mirror runs on the pool too (each task writes
/// only its own rows, so the result is deterministic).
void mirror_upper(RealMatrix& symmetric);

}  // namespace ndft::dft
