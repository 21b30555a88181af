/**
 * @file
 * Blocked, packed single-precision GEMM — the BLIS/GotoBLAS recipe
 * applied under this repo's determinism contract.
 *
 * C(m,n) = op(A)·op(B) is computed as fixed MC/KC/NC cache blocks:
 * B panels are packed into NR-wide, KC-deep slabs (L1-resident while
 * a block of C is computed), A blocks into MR-tall slabs (L2), and a
 * register-tiled MR×NR microkernel walks KC with every accumulator
 * live in registers. Packing absorbs the transpose variants, so one
 * microkernel serves `matmul`, `matmul_ta` and `matmul_tb`.
 *
 * Determinism contract (see docs/performance.md, "The blocked GEMM"):
 *
 *  - Block sizes are compile-time constants, independent of
 *    `INSITU_THREADS`. The decomposition never changes with width.
 *  - Each element of C accumulates its k-products in ascending-k
 *    order: KC panels are applied serially in ascending order, and
 *    the microkernel walks k ascending within a panel.
 *  - `parallel_for` splits only on MC row-block boundaries; a C tile
 *    is written by exactly one chunk per KC panel.
 *
 * Together these make the output bit-identical at any thread width.
 * (It may differ in low-order bits from the retired naive ikj loop
 * when k exceeds KC — per-panel partial sums round differently — and
 * from other hosts when the microkernel dispatches to FMA.)
 *
 * The naive loops survive as a selectable reference backend for A/B
 * testing and as the baseline of the `check_perf` speedup floor
 * (tests/test_perf_floors.cc): set `INSITU_GEMM=naive`
 * (process-wide) or call `set_gemm_backend()` (tests/benches).
 */
#pragma once

#include <cstdint>

namespace insitu {

/** Which GEMM implementation executes `matmul*` and the conv/linear
 * lowerings. */
enum class GemmBackend {
    kBlocked, ///< packed cache-blocked kernels (default)
    kNaive,   ///< reference loop nests (INSITU_GEMM=naive)
};

/** Active backend: `set_gemm_backend()` override, else the
 * `INSITU_GEMM` environment variable (read once), else blocked. */
GemmBackend gemm_backend();

/** Name of the active backend ("blocked" / "naive"). */
const char* gemm_backend_name();

/** Programmatic override; `kBlocked`/`kNaive` wins over the
 * environment. Like `set_num_threads()`, a serial-context knob for
 * mains, tests and benches — not thread-safe against running
 * kernels. */
void set_gemm_backend(GemmBackend backend);

/**
 * C(m,n), row-major and fully overwritten, = op(A)·op(B).
 *
 * A and B are given logically — a[i*a_rs + kk*a_cs] is op(A)(i,kk)
 * and b[kk*b_rs + j*b_cs] is op(B)(kk,j) — so the three transpose
 * variants are stride choices, not separate kernels:
 *
 *   matmul    A(m,k):  a_rs=k, a_cs=1   B(k,n):  b_rs=n, b_cs=1
 *   matmul_ta A^T(k,m): a_rs=1, a_cs=m  B(k,n):  b_rs=n, b_cs=1
 *   matmul_tb A(m,k):  a_rs=k, a_cs=1   B^T(n,k): b_rs=1, b_cs=k
 *
 * op(B) must have contiguous rows (b_cs == 1) or columns (b_rs == 1);
 * any other stride is a fatal error. C must not alias A or B.
 * Dispatches on @p backend; callers that
 * don't care pass `gemm_backend()`. `k == 0` zero-fills C.
 *
 * FLOP accounting is the caller's job (the Tensor-level wrappers and
 * the conv/linear layers bump `tensor.matmul.*`), so the counters
 * stay exactly 2·m·k·n per logical product.
 */
void gemm(int64_t m, int64_t n, int64_t k, const float* a,
          int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
          int64_t b_cs, float* c, GemmBackend backend);

/**
 * C(m,n) += Σ_{t < count} op(A_t)·op(B_t), t ascending, where A_t is
 * a + t·a_step and B_t is b + t·b_step (each given as for gemm()),
 * and C(i,j) lives at c[i·ldc + j]. Each product is rounded exactly
 * as gemm() rounds it and added to C once, in t order: the same bits
 * as adding `count` gemm() results to C one after another, without
 * holding any of them. The conv backward folds its per-image weight
 * gradients this way. Parallel over fixed blocks of C's columns, so
 * bit-identical at any width. FLOPs are the caller's to tally.
 *
 * With @p b_group = G > 1 the B operands come in groups of G products
 * stored interleaved, the way `im2col_group` lowers a group of images:
 * product t = q·G + i reads op(B_t)(kk, j) at
 * b[q·G·b_step + (kk·n_q + i)·b_rs + j·b_cs], where n_q is the size of
 * group q (G, or fewer for the last). So a conv batch lowered group by
 * group folds its per-image weight gradients in one call. G = 1 is
 * B_t = b + t·b_step.
 */
void gemm_acc(int64_t count, int64_t m, int64_t n, int64_t k,
              const float* a, int64_t a_rs, int64_t a_cs, int64_t a_step,
              const float* b, int64_t b_rs, int64_t b_cs, int64_t b_step,
              float* c, int64_t ldc, GemmBackend backend,
              int64_t b_group);

/**
 * Target GEMM width, in columns, for lowered convolutions: the conv
 * lowers G = ⌈kGroupCols / (OH·OW)⌉ images at once into one
 * (C·K², OH·OW·G) column matrix, positions major and images minor
 * (`im2col_group`), so a small feature map still fills whole NR-wide
 * register tiles and the filter matrix is packed once per group
 * instead of once per image. A compile-time constant like the
 * blocking sizes in gemm.cc (256 columns = 16 NR tiles, a quarter of
 * an NC panel, and equal to KC), so the grouping depends only on
 * shape, and a group of two or more images (OH·OW < KC) gives each
 * image a single-panel weight-gradient product in `gemm_acc`.
 */
constexpr int64_t kGroupCols = 256;

/**
 * Rows per parallel chunk for a row-parallel loop whose rows cost
 * @p flops_per_row. Depends only on the problem shape (never the
 * thread count), so the decomposition — and with it the result — is
 * deterministic. Used by the naive backend and the linear/conv bias
 * loops.
 */
int64_t flops_grain(int64_t flops_per_row);

} // namespace insitu
