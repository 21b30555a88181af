#include "tensor/gemm.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "tensor/workspace.h"
#include "util/logging.h"
#include "util/parallel.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define INSITU_GEMM_X86 1
#include <immintrin.h>
#endif

namespace insitu {

namespace {

/*
 * Blocking constants. Compile-time and INSITU_THREADS-independent by
 * contract (see gemm.h). Sized for a ~48 KiB L1d / ~1 MiB+ L2 class
 * core:
 *
 *   MR x NR   register tile; MR*NR accumulators stay live across KC.
 *   KC        panel depth: one B slab (NR*KC*4 = 16 KiB) is L1-hot
 *             while the microkernel sweeps a block of C rows.
 *   MC        A block (MC*KC*4 = 64 KiB) sits in L2; also the only
 *             granularity parallel_for may split on.
 *   NC        B panel width (KC*NC*4 = 1 MiB ceiling per packed
 *             panel); loops of C columns beyond it are serial.
 */
constexpr int64_t MR = 4;
constexpr int64_t NR = 16;
constexpr int64_t MC = 64;
constexpr int64_t KC = 256;
constexpr int64_t NC = 1024;

/// gemm_acc's decomposition, from the shape alone: parallel items of
/// NR columns of C (one register tile, so a narrow C still spreads),
/// and packed B panels per span of products.
constexpr int64_t kAccPackFloats = int64_t{1} << 16;

static_assert(MC % MR == 0 && NC % NR == 0,
              "cache blocks must tile evenly into register tiles");
static_assert(NR * sizeof(float) % 64 == 0,
              "packed B rows must preserve 64-byte alignment");

/**
 * Microkernel: tile(MR,NR) = sum_{kk<kc} apan(kk,:) x bpan(kk,:).
 * `apan` is MR-major per k step (apan[kk*MR + i]), `bpan` NR-major
 * (bpan[kk*NR + j]); both are packed, unit-stride, zero-padded.
 * Every tile element accumulates in ascending-k order.
 */
void
micro_portable(int64_t kc, const float* apan, const float* bpan,
               float* tile)
{
    for (int64_t x = 0; x < MR * NR; ++x) tile[x] = 0.0f;
    for (int64_t kk = 0; kk < kc; ++kk) {
        const float* arow = apan + kk * MR;
        const float* brow = bpan + kk * NR;
        for (int64_t i = 0; i < MR; ++i) {
            const float av = arow[i];
            float* trow = tile + i * NR;
            // Independent accumulators across j: vectorizable without
            // reassociation, so the FP order is the scalar order.
            for (int64_t j = 0; j < NR; ++j) trow[j] += av * brow[j];
        }
    }
}

/**
 * The microkernel as dispatched: it writes the MR×NR tile into c at
 * row stride ldc — c(i,j) = tile(i,j), or with accumulation
 * c(i,j) += tile(i,j). Edge tiles go to a stack tile (ldc = NR).
 */
using MicroCFn = void (*)(int64_t kc, const float* apan,
                          const float* bpan, float* c, int64_t ldc);

template <bool kAccumulate>
void
micro_c_portable(int64_t kc, const float* apan, const float* bpan,
                 float* c, int64_t ldc)
{
    alignas(64) float tile[MR * NR];
    micro_portable(kc, apan, bpan, tile);
    for (int64_t i = 0; i < MR; ++i)
        for (int64_t j = 0; j < NR; ++j) {
            if constexpr (kAccumulate)
                c[i * ldc + j] += tile[i * NR + j];
            else
                c[i * ldc + j] = tile[i * NR + j];
        }
}

#ifdef INSITU_GEMM_X86
/** Store (or add) 8 lanes of a tile row at @p dst. */
template <bool kAccumulate>
__attribute__((target("avx2,fma"), always_inline)) inline void
put8(float* dst, __m256 v)
{
    if constexpr (kAccumulate) v = _mm256_add_ps(_mm256_loadu_ps(dst), v);
    _mm256_storeu_ps(dst, v);
}

/**
 * Same tile, same ascending-k accumulation order, 8-wide FMA. Built
 * for AVX2+FMA via the target attribute so the translation unit
 * itself stays portable; picked at runtime iff the CPU has both.
 * (FMA rounds once per multiply-add, so tiles differ in low-order
 * bits from micro_portable — a per-host constant, never a per-width
 * one: the dispatch decision depends only on the CPU.) The tile is
 * stored to, or with @p kAccumulate added into, c at row stride ldc.
 */
template <bool kAccumulate>
__attribute__((target("avx2,fma"))) void
micro_c_avx2(int64_t kc, const float* apan, const float* bpan, float* c,
             int64_t ldc)
{
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_load_ps(bpan + kk * NR);
        const __m256 b1 = _mm256_load_ps(bpan + kk * NR + 8);
        const float* a = apan + kk * MR;
        __m256 av = _mm256_broadcast_ss(a + 0);
        c00 = _mm256_fmadd_ps(av, b0, c00);
        c01 = _mm256_fmadd_ps(av, b1, c01);
        av = _mm256_broadcast_ss(a + 1);
        c10 = _mm256_fmadd_ps(av, b0, c10);
        c11 = _mm256_fmadd_ps(av, b1, c11);
        av = _mm256_broadcast_ss(a + 2);
        c20 = _mm256_fmadd_ps(av, b0, c20);
        c21 = _mm256_fmadd_ps(av, b1, c21);
        av = _mm256_broadcast_ss(a + 3);
        c30 = _mm256_fmadd_ps(av, b0, c30);
        c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    put8<kAccumulate>(c + 0 * ldc, c00);
    put8<kAccumulate>(c + 0 * ldc + 8, c01);
    put8<kAccumulate>(c + 1 * ldc, c10);
    put8<kAccumulate>(c + 1 * ldc + 8, c11);
    put8<kAccumulate>(c + 2 * ldc, c20);
    put8<kAccumulate>(c + 2 * ldc + 8, c21);
    put8<kAccumulate>(c + 3 * ldc, c30);
    put8<kAccumulate>(c + 3 * ldc + 8, c31);
}
#endif

/** The MicroCFn of this CPU that stores (false) or adds (true): the
 *  AVX2+FMA kernel iff the CPU has both. */
template <bool kAccumulate>
MicroCFn
micro_c_kernel()
{
#ifdef INSITU_GEMM_X86
    static const bool avx2 = __builtin_cpu_supports("avx2") &&
                             __builtin_cpu_supports("fma");
    if (avx2) return micro_c_avx2<kAccumulate>;
#endif
    return micro_c_portable<kAccumulate>;
}

/** Pack the A block rows [i0, i0+mc) x cols [p0, p0+kc) into MR-tall
 * slabs, zero-padded to a multiple of MR rows. */
void
pack_a(const float* a, int64_t a_rs, int64_t a_cs, int64_t i0,
       int64_t p0, int64_t mc, int64_t kc, float* ap)
{
    static_assert(MR == 4, "the full-slab path copies four rows");
    for (int64_t ir = 0; ir < mc; ir += MR) {
        float* panel = ap + (ir / MR) * kc * MR;
        const int64_t mr = std::min(MR, mc - ir);
        if (mr == MR) {
            const float* src = a + (i0 + ir) * a_rs + p0 * a_cs;
            for (int64_t kk = 0; kk < kc; ++kk) {
                const float* s = src + kk * a_cs;
                float* dst = panel + kk * MR;
                dst[0] = s[0];
                dst[1] = s[a_rs];
                dst[2] = s[2 * a_rs];
                dst[3] = s[3 * a_rs];
            }
            continue;
        }
        for (int64_t kk = 0; kk < kc; ++kk) {
            const float* src = a + (i0 + ir) * a_rs + (p0 + kk) * a_cs;
            float* dst = panel + kk * MR;
            for (int64_t i = 0; i < mr; ++i) dst[i] = src[i * a_rs];
            for (int64_t i = mr; i < MR; ++i) dst[i] = 0.0f;
        }
    }
}

/** Pack the B panel rows [p0, p0+kc) x cols [j0, j0+nc) into NR-wide
 * slabs, zero-padded to a multiple of NR columns. op(B)'s rows are
 * contiguous (b_cs == 1), or its columns are read down at k-stride
 * b_rs (contiguous when b_rs == 1). */
void
pack_b(const float* b, int64_t b_rs, int64_t b_cs, int64_t p0,
       int64_t j0, int64_t kc, int64_t nc, float* bp)
{
    for (int64_t jr = 0; jr < nc; jr += NR) {
        float* panel = bp + (jr / NR) * kc * NR;
        const int64_t nr = std::min(NR, nc - jr);
        if (b_cs != 1) {
            // Transposed B: read each column of op(B) down k and
            // scatter it down the panel, which stays in L1, instead of
            // gathering NR strided rows per k.
            for (int64_t j = 0; j < nr; ++j) {
                const float* src = b + p0 * b_rs + (j0 + jr + j) * b_cs;
                for (int64_t kk = 0; kk < kc; ++kk)
                    panel[kk * NR + j] = src[kk * b_rs];
            }
            for (int64_t kk = 0; kk < kc; ++kk)
                for (int64_t j = nr; j < NR; ++j) panel[kk * NR + j] = 0.0f;
            continue;
        }
        for (int64_t kk = 0; kk < kc; ++kk) {
            const float* src = b + (p0 + kk) * b_rs + (j0 + jr) * b_cs;
            float* dst = panel + kk * NR;
            if (nr == NR) {
                std::memcpy(dst, src, NR * sizeof(float));
                continue;
            }
            for (int64_t j = 0; j < nr; ++j) dst[j] = src[j];
            for (int64_t j = nr; j < NR; ++j) dst[j] = 0.0f;
        }
    }
}

/**
 * Pack the NR-wide column block [j0, j0+nr) of op(B_i) for products
 * i in [i0, i1) of one B group of nq interleaved products, where
 * op(B_i)(kk, j) = b[(kk*nq + i)*b_rs + j*b_cs], into consecutive
 * panels bp + (i - i0)*k*NR, each as pack_b packs it. When the
 * products are adjacent (b_rs == 1), four at a time go through 4x4
 * transposes, so each load reads four products' values and each
 * store writes four panel columns; the rest go through pack_b.
 */
void
pack_b_group(const float* b, int64_t b_rs, int64_t b_cs, int64_t nq,
             int64_t i0, int64_t i1, int64_t j0, int64_t k, int64_t nr,
             float* bp)
{
    int64_t i = i0;
#ifdef INSITU_GEMM_X86
    static_assert(NR % 4 == 0, "panels transpose four columns at once");
    if (b_rs == 1 && nr == NR)
        for (; i + 4 <= i1; i += 4) {
            float* panel = bp + (i - i0) * k * NR;
            for (int64_t kk = 0; kk < k; ++kk) {
                const float* src = b + kk * nq + i + j0 * b_cs;
                float* dst = panel + kk * NR;
                for (int64_t jr = 0; jr < NR; jr += 4) {
                    const float* s = src + jr * b_cs;
                    __m128 r0 = _mm_loadu_ps(s);
                    __m128 r1 = _mm_loadu_ps(s + b_cs);
                    __m128 r2 = _mm_loadu_ps(s + 2 * b_cs);
                    __m128 r3 = _mm_loadu_ps(s + 3 * b_cs);
                    _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
                    _mm_storeu_ps(dst + jr, r0);
                    _mm_storeu_ps(dst + k * NR + jr, r1);
                    _mm_storeu_ps(dst + 2 * k * NR + jr, r2);
                    _mm_storeu_ps(dst + 3 * k * NR + jr, r3);
                }
            }
        }
#endif
    for (; i < i1; ++i)
        pack_b(b + i * b_rs, nq * b_rs, b_cs, 0, j0, k, nr,
               bp + (i - i0) * k * NR);
}

void
gemm_blocked(int64_t m, int64_t n, int64_t k, const float* a,
             int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
             int64_t b_cs, float* c)
{
    const MicroCFn store_c = micro_c_kernel<false>();
    const MicroCFn add_c = micro_c_kernel<true>();
    for (int64_t jc = 0; jc < n; jc += NC) {
        const int64_t nc = std::min(NC, n - jc);
        const int64_t bpanels = (nc + NR - 1) / NR;
        for (int64_t pc = 0; pc < k; pc += KC) {
            const int64_t kc = std::min(KC, k - pc);
            const bool first_panel = pc == 0;
            // One packed B panel per (jc, pc), shared read-only by
            // every chunk below (parallel_for provides the
            // happens-before edge for its workers).
            Workspace::Scope bscope;
            float* bp = Workspace::local().alloc(bpanels * NR * kc);
            pack_b(b, b_rs, b_cs, pc, jc, kc, nc, bp);
            // Width-independent split on MC row-block boundaries
            // only; each C tile has exactly one writer per KC panel,
            // and the panels apply serially in ascending-k order.
            const int64_t mblocks = (m + MC - 1) / MC;
            parallel_for(0, mblocks, 1, [&](int64_t blk0,
                                            int64_t blk1) {
                for (int64_t blk = blk0; blk < blk1; ++blk) {
                    const int64_t ic = blk * MC;
                    const int64_t mc = std::min(MC, m - ic);
                    const int64_t apanels = (mc + MR - 1) / MR;
                    Workspace::Scope ascope;
                    float* ap =
                        Workspace::local().alloc(apanels * MR * kc);
                    pack_a(a, a_rs, a_cs, ic, pc, mc, kc, ap);
                    alignas(64) float tile[MR * NR];
                    for (int64_t jr = 0; jr < nc; jr += NR) {
                        const float* bpan = bp + (jr / NR) * kc * NR;
                        const int64_t nr = std::min(NR, nc - jr);
                        for (int64_t ir = 0; ir < mc; ir += MR) {
                            const float* apan =
                                ap + (ir / MR) * kc * MR;
                            const int64_t mr = std::min(MR, mc - ir);
                            float* cdst =
                                c + (ic + ir) * n + jc + jr;
                            if (mr == MR && nr == NR) {
                                (first_panel ? store_c : add_c)(
                                    kc, apan, bpan, cdst, n);
                                continue;
                            }
                            store_c(kc, apan, bpan, tile, NR);
                            if (first_panel) {
                                for (int64_t i = 0; i < mr; ++i)
                                    for (int64_t j = 0; j < nr; ++j)
                                        cdst[i * n + j] =
                                            tile[i * NR + j];
                            } else {
                                for (int64_t i = 0; i < mr; ++i)
                                    for (int64_t j = 0; j < nr; ++j)
                                        cdst[i * n + j] +=
                                            tile[i * NR + j];
                            }
                        }
                    }
                }
            });
        }
    }
}

void
gemm_naive(int64_t m, int64_t n, int64_t k, const float* a,
           int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
           int64_t b_cs, float* c)
{
    // The retired production loops, kept as the reference backend:
    // row-parallel, every element accumulating in ascending-k order
    // (minus the data-dependent `av == 0` skip, which made latency
    // input-dependent and blocked vectorization).
    parallel_for(0, m, flops_grain(2 * k * n), [&](int64_t i0,
                                                   int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
            float* crow = c + i * n;
            if (b_cs == 1) {
                for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float av = a[i * a_rs + kk * a_cs];
                    const float* brow = b + kk * b_rs;
                    for (int64_t j = 0; j < n; ++j)
                        crow[j] += av * brow[j];
                }
            } else {
                // Column-strided B (matmul_tb): dot-product order —
                // the same ascending-k sum per element, unit-stride
                // loads from both operands.
                for (int64_t j = 0; j < n; ++j) {
                    float acc = 0.0f;
                    for (int64_t kk = 0; kk < k; ++kk)
                        acc += a[i * a_rs + kk * a_cs] *
                               b[kk * b_rs + j * b_cs];
                    crow[j] = acc;
                }
            }
        }
    });
}

/// -1 = no override; otherwise a GemmBackend value.
int g_backend_override = -1;

GemmBackend
env_backend()
{
    static const GemmBackend be = [] {
        const char* e = std::getenv("INSITU_GEMM");
        if (e == nullptr || *e == '\0') return GemmBackend::kBlocked;
        const std::string_view v(e);
        if (v == "blocked") return GemmBackend::kBlocked;
        if (v == "naive") return GemmBackend::kNaive;
        panic("INSITU_GEMM must be 'blocked' or 'naive', got '" +
              std::string(e) + "'");
    }();
    return be;
}

} // namespace

GemmBackend
gemm_backend()
{
    if (g_backend_override >= 0)
        return static_cast<GemmBackend>(g_backend_override);
    return env_backend();
}

const char*
gemm_backend_name()
{
    return gemm_backend() == GemmBackend::kBlocked ? "blocked"
                                                   : "naive";
}

void
set_gemm_backend(GemmBackend backend)
{
    g_backend_override = static_cast<int>(backend);
}

int64_t
flops_grain(int64_t flops_per_row)
{
    constexpr int64_t kFlopsPerChunk = 1 << 16;
    return std::max<int64_t>(
        1, kFlopsPerChunk / std::max<int64_t>(1, flops_per_row));
}

namespace {

/** gemm() without its stride check: gemm_acc also passes columns of
 * op(B) at a k-stride. */
void
gemm_any(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
         int64_t a_cs, const float* b, int64_t b_rs, int64_t b_cs,
         float* c, GemmBackend backend)
{
    if (m <= 0 || n <= 0) return;
    if (k <= 0) {
        std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
        return;
    }
    if (backend == GemmBackend::kBlocked)
        gemm_blocked(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c);
    else
        gemm_naive(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c);
}

} // namespace

void
gemm(int64_t m, int64_t n, int64_t k, const float* a, int64_t a_rs,
     int64_t a_cs, const float* b, int64_t b_rs, int64_t b_cs,
     float* c, GemmBackend backend)
{
    INSITU_CHECK(b_rs == 1 || b_cs == 1,
                 "gemm: op(B) needs contiguous rows or columns");
    gemm_any(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c, backend);
}

void
gemm_acc(int64_t count, int64_t m, int64_t n, int64_t k, const float* a,
         int64_t a_rs, int64_t a_cs, int64_t a_step, const float* b,
         int64_t b_rs, int64_t b_cs, int64_t b_step, float* c,
         int64_t ldc, GemmBackend backend, int64_t b_group)
{
    INSITU_CHECK(b_rs == 1 || b_cs == 1,
                 "gemm_acc: op(B) needs contiguous rows or columns");
    INSITU_CHECK(b_group >= 1, "gemm_acc: B groups need >= 1 product");
    if (count <= 0 || m <= 0 || n <= 0 || k <= 0) return;
    // Product t is product i of B group q: its op(B) starts i·b_rs
    // past the group's start and steps k over the group's n_q
    // interleaved products.
    struct Operand {
        const float* p;
        int64_t rs;
    };
    auto b_of = [&](int64_t t) {
        const int64_t q = t / b_group, i = t % b_group;
        const int64_t nq = std::min(b_group, count - q * b_group);
        return Operand{b + q * b_group * b_step + i * b_rs, nq * b_rs};
    };
    if (backend != GemmBackend::kBlocked || k > KC) {
        // Several KC panels (or the naive loops) round the product
        // through C itself, so it is formed in scratch and added once.
        // Blocks of C's columns are the parallel items; each adds every
        // product into its block in ascending t.
        const int64_t nblocks = (n + NR - 1) / NR;
        parallel_for(0, nblocks, 1, [&](int64_t q0, int64_t q1) {
            for (int64_t q = q0; q < q1; ++q) {
                const int64_t j0 = q * NR;
                const int64_t nj = std::min(NR, n - j0);
                Workspace::Scope scope;
                float* prod = Workspace::local().alloc(m * nj);
                for (int64_t t = 0; t < count; ++t) {
                    const Operand bt = b_of(t);
                    gemm_any(m, nj, k, a + t * a_step, a_rs, a_cs,
                             bt.p + j0 * b_cs, bt.rs, b_cs, prod,
                             backend);
                    for (int64_t i = 0; i < m; ++i)
                        for (int64_t j = 0; j < nj; ++j)
                            c[i * ldc + j0 + j] += prod[i * nj + j];
                }
            }
        });
        return;
    }
    // One KC panel: a tile is its elements' whole rounded product, as
    // in gemm_blocked, and is added to C once. Every A_t is packed
    // once, up front, and shared by all parallel items. An item is one
    // NR-wide panel of C's columns that adds every product in
    // ascending t. Within it the products run innermost, `span` at a
    // time with their B panels packed side by side, so each C tile
    // stays in L1 while a span of products is added to it.
    const int64_t mp = (m + MR - 1) / MR * MR;
    Workspace::Scope scope;
    float* ap = Workspace::local().alloc(count * mp * k);
    for (int64_t t = 0; t < count; ++t)
        pack_a(a + t * a_step, a_rs, a_cs, 0, 0, m, k, ap + t * mp * k);
    const int64_t nblocks = (n + NR - 1) / NR;
    const int64_t span = std::max<int64_t>(1, kAccPackFloats / (NR * k));
    const MicroCFn store_c = micro_c_kernel<false>();
    const MicroCFn add_c = micro_c_kernel<true>();
    parallel_for(0, nblocks, 1, [&](int64_t q0, int64_t q1) {
        for (int64_t q = q0; q < q1; ++q) {
            const int64_t j0 = q * NR;
            const int64_t nr = std::min(NR, n - j0);
            Workspace::Scope block_scope;
            float* bp = Workspace::local().alloc(span * NR * k);
            alignas(64) float tile[MR * NR];
            for (int64_t t0 = 0; t0 < count; t0 += span) {
                const int64_t nt = std::min(span, count - t0);
                // The span's products of each B group, packed together.
                for (int64_t t = t0; t < t0 + nt;) {
                    const int64_t q = t / b_group, i = t % b_group;
                    const int64_t nq = std::min(b_group, count - q * b_group);
                    const int64_t i1 = std::min(nq, i + t0 + nt - t);
                    pack_b_group(b + q * b_group * b_step, b_rs, b_cs, nq,
                                 i, i1, j0, k, nr, bp + (t - t0) * NR * k);
                    t += i1 - i;
                }
                for (int64_t ir = 0; ir < m; ir += MR) {
                    const int64_t mr = std::min(MR, m - ir);
                    float* cdst = c + ir * ldc + j0;
                    for (int64_t t = 0; t < nt; ++t) {
                        const float* apan = ap + (t0 + t) * mp * k + ir * k;
                        const float* bpan = bp + t * NR * k;
                        if (mr == MR && nr == NR) {
                            add_c(k, apan, bpan, cdst, ldc);
                            continue;
                        }
                        store_c(k, apan, bpan, tile, NR);
                        for (int64_t i = 0; i < mr; ++i)
                            for (int64_t j = 0; j < nr; ++j)
                                cdst[i * ldc + j] += tile[i * NR + j];
                    }
                }
            }
        }
    });
}

} // namespace insitu
