/**
 * @file
 * The blocked GEMM against the naive reference, the workspace arena,
 * and the exact FLOP accounting contract.
 *
 * The shape sweep runs every m,k,n in {1,2,3,5,8,13,32,64} — prime,
 * power-of-two, and sub-microkernel sizes — through all three
 * transpose variants, so every ragged-edge path of the packing and
 * microkernel (partial MR rows, partial NR columns, short K) is
 * exercised. Blocked vs naive must agree to float tolerance;
 * byte-identity across thread widths is asserted separately on shapes
 * that cross the MC/KC/NC block boundaries.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

std::vector<float>
random_vec(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(n));
    for (auto& x : v) x = rng.uniform_f(-1.0f, 1.0f);
    return v;
}

/// |a - b| <= tol * max(1, |a|, |b|) elementwise.
void
expect_close(const std::vector<float>& a, const std::vector<float>& b,
             float tol, const char* what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        const float scale = std::max(
            1.0f, std::max(std::fabs(a[i]), std::fabs(b[i])));
        ASSERT_NEAR(a[i], b[i], tol * scale)
            << what << " at flat index " << i;
    }
}

constexpr int64_t kSizes[] = {1, 2, 3, 5, 8, 13, 32, 64};

/// Run one (m,k,n) through both backends with the given logical
/// strides and compare.
void
check_variant(int64_t m, int64_t n, int64_t k, const float* a,
              int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
              int64_t b_cs, const char* what)
{
    std::vector<float> blocked(static_cast<size_t>(m * n), -7.0f);
    std::vector<float> naive(static_cast<size_t>(m * n), 7.0f);
    gemm(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, blocked.data(),
         GemmBackend::kBlocked);
    gemm(m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, naive.data(),
         GemmBackend::kNaive);
    expect_close(blocked, naive, 1e-4f, what);
}

TEST(GemmSweep, BlockedMatchesNaiveAllVariants)
{
    for (int64_t m : kSizes) {
        for (int64_t k : kSizes) {
            for (int64_t n : kSizes) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " k=" << k << " n=" << n);
                const auto va = random_vec(m * k, 17 * m + 3 * k + n);
                const auto vb = random_vec(k * n, 29 * k + 5 * n + m);
                // matmul: A stored (m,k), B stored (k,n).
                check_variant(m, n, k, va.data(), k, 1, vb.data(), n, 1,
                              "matmul");
                // matmul_ta: A stored (k,m) — reuse va as the (k,m)
                // buffer; logical A(i,kk) = va[kk*m + i].
                check_variant(m, n, k, va.data(), 1, m, vb.data(), n, 1,
                              "matmul_ta");
                // matmul_tb: B stored (n,k) — reuse vb as the (n,k)
                // buffer; logical B(kk,j) = vb[j*k + kk].
                check_variant(m, n, k, va.data(), k, 1, vb.data(), 1, k,
                              "matmul_tb");
            }
        }
    }
}

/**
 * One edge-tile operand: uniform(-1, 1) with an eighth of the entries
 * denormal or signed zero, so products underflow, every fifth row (A)
 * or column (B) all zero, as a ReLU leaves it, and one NaN or signed
 * infinity planted in every third row (A) or fourth column (B), so
 * NaN and Inf reach some elements of C and not others, and a zero
 * line meets them (0 * Inf is NaN).
 */
std::vector<float>
hostile_operand(int64_t rows, int64_t cols, bool plant_in_rows,
                uint64_t seed)
{
    static const float kTiny[] = {
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 3e-39f, -3e-39f, 0.0f,
        -0.0f};
    static const float kSpecial[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity()};
    Rng rng(seed);
    std::vector<float> v(static_cast<size_t>(rows * cols));
    for (auto& x : v)
        x = rng.next_below(8) == 0 ? kTiny[rng.next_below(6)]
                                   : rng.uniform_f(-1.0f, 1.0f);
    const int64_t lines = plant_in_rows ? rows : cols;
    const int64_t along = plant_in_rows ? cols : rows;
    auto at = [&](int64_t line, int64_t pos) -> float& {
        return v[static_cast<size_t>(plant_in_rows ? line * cols + pos
                                                   : pos * cols + line)];
    };
    for (int64_t l = 2; l < lines; l += 5)
        for (int64_t p = 0; p < along; ++p) at(l, p) = 0.0f;
    for (int64_t l = 1; l < lines; l += plant_in_rows ? 3 : 4) {
        const int64_t pos = static_cast<int64_t>(
            rng.next_below(static_cast<uint64_t>(along)));
        at(l, pos) = kSpecial[rng.next_below(3)];
    }
    return v;
}

TEST(GemmEdge, HostileEdgeTilesMatchNaiveWithinBound)
{
    // m, n and k off the MR = 4, NR = 16 and KC = 256 multiples, and
    // across one MC = 64 row block.
    constexpr double kU = 0x1p-24;
    int64_t specials = 0, finite = 0;
    for (const int64_t m : {1, 3, 5, 7, 67}) {
        for (const int64_t n : {1, 15, 17, 33}) {
            for (const int64_t k : {1, 7, 255, 257, 300}) {
                SCOPED_TRACE(testing::Message()
                             << "m=" << m << " k=" << k << " n=" << n);
                const auto a = hostile_operand(m, k, true, 7 * m + k);
                const auto b = hostile_operand(k, n, false, 11 * n + k);
                std::vector<float> blocked(static_cast<size_t>(m * n));
                std::vector<float> naive(blocked.size());
                gemm(m, n, k, a.data(), k, 1, b.data(), n, 1,
                     blocked.data(), GemmBackend::kBlocked);
                gemm(m, n, k, a.data(), k, 1, b.data(), n, 1,
                     naive.data(), GemmBackend::kNaive);
                const double kgamma = k * kU / (1.0 - k * kU);
                for (int64_t i = 0; i < m; ++i) {
                    for (int64_t j = 0; j < n; ++j) {
                        const float got = blocked[i * n + j];
                        const float want = naive[i * n + j];
                        if (!std::isfinite(want)) {
                            ++specials;
                            EXPECT_EQ(std::isnan(got), std::isnan(want))
                                << "C(" << i << "," << j << ")";
                            if (std::isinf(want))
                                EXPECT_EQ(got, want)
                                    << "C(" << i << "," << j << ")";
                            continue;
                        }
                        ++finite;
                        double mass = 0.0;
                        for (int64_t kk = 0; kk < k; ++kk)
                            mass += std::fabs(double(a[i * k + kk]) *
                                              double(b[kk * n + j]));
                        const double bound =
                            2.0 * (kgamma * mass + k * 0x1p-149);
                        ASSERT_TRUE(std::isfinite(got))
                            << "C(" << i << "," << j << ")";
                        EXPECT_LE(std::fabs(double(got) - double(want)),
                                  bound)
                            << "C(" << i << "," << j << ")";
                    }
                }
            }
        }
    }
    // Both kinds of element occur, so neither check is vacuous.
    EXPECT_GT(specials, 1000);
    EXPECT_GT(finite, 1000);
}

TEST(GemmSweep, KZeroZeroFillsC)
{
    std::vector<float> c(6, 123.0f);
    gemm(2, 3, 0, nullptr, 1, 1, nullptr, 1, 1, c.data(),
         GemmBackend::kBlocked);
    for (float v : c) EXPECT_EQ(v, 0.0f);
}

/// Packing reads op(B) along contiguous rows or columns; an operand
/// with neither is refused rather than packed wrongly.
TEST(GemmDeathTest, StridedOperandDies)
{
    std::vector<float> a(4, 1.0f), b(16, 1.0f), c(4, 0.0f);
    EXPECT_DEATH(gemm(2, 2, 2, a.data(), 2, 1, b.data(), 4, 2, c.data(),
                      GemmBackend::kBlocked),
                 "contiguous rows or columns");
    EXPECT_DEATH(gemm_acc(1, 2, 2, 2, a.data(), 2, 1, 0, b.data(), 4, 2,
                          0, c.data(), 2, GemmBackend::kBlocked, 1),
                 "contiguous rows or columns");
}

/// gemm_acc over B groups — products stored interleaved the way
/// `im2col_group` lowers a group of images, so each op(B_t) column
/// steps k over its group — must equal adding each product, formed by
/// gemm() from a contiguous copy of its columns, to C in order: bit for
/// bit, on both backends, at widths 1 and 4, with k inside one KC panel
/// and across two, and with a short last group.
TEST(GemmAcc, GroupedOperandsMatchSerialGemmSum)
{
    const GemmBackend prev = gemm_backend();
    const int64_t count = 5, m = 6, n = 37;
    for (const int64_t k : {4, 300}) {
        // Column j of product t = q*G + i holds its k entries at
        // b[j*ldb + q*G*k + kk*n_q + i].
        const int64_t ldb = k * count + 3;
        const auto va = random_vec(count * m * k, 41 + k);
        const auto vb = random_vec(n * ldb, 43 + k);
        const auto c0 = random_vec(m * n, 47 + k);
        for (const int64_t group : {1, 2, 5}) {
            for (const GemmBackend be :
                 {GemmBackend::kBlocked, GemmBackend::kNaive}) {
                set_gemm_backend(be);
                std::vector<float> want = c0;
                std::vector<float> bt(static_cast<size_t>(n * k));
                std::vector<float> prod(static_cast<size_t>(m * n));
                for (int64_t t = 0; t < count; ++t) {
                    const int64_t q = t / group, i = t % group;
                    const int64_t nq = std::min(group, count - q * group);
                    for (int64_t j = 0; j < n; ++j)
                        for (int64_t kk = 0; kk < k; ++kk)
                            bt[static_cast<size_t>(j * k + kk)] =
                                vb[static_cast<size_t>(
                                    j * ldb + q * group * k + kk * nq + i)];
                    gemm(m, n, k, va.data() + t * m * k, k, 1, bt.data(),
                         1, k, prod.data(), be);
                    for (size_t e = 0; e < want.size(); ++e)
                        want[e] += prod[e];
                }
                for (const int width : {1, 4}) {
                    set_num_threads(width);
                    std::vector<float> got = c0;
                    gemm_acc(count, m, n, k, va.data(), k, 1, m * k,
                             vb.data(), 1, ldb, k, got.data(), n, be,
                             group);
                    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                          got.size() * sizeof(float)),
                              0)
                        << "k=" << k << " group " << group << " "
                        << gemm_backend_name() << " width " << width;
                }
            }
        }
    }
    set_num_threads(0);
    set_gemm_backend(prev);
}

/// Shapes that cross every block boundary (m > MC=64, k > KC=256,
/// n > NC=1024 in the widest case) must be byte-identical at widths
/// 1 and 4 — the determinism contract of docs/performance.md.
TEST(GemmDeterminism, BitIdenticalAcrossThreadWidths)
{
    struct Shape {
        int64_t m, k, n;
    };
    const Shape shapes[] = {
        {70, 300, 90},   // crosses MC and KC
        {130, 40, 1100}, // crosses MC and NC
        {64, 256, 64},   // exact block multiples
        {3, 5, 2},       // sub-microkernel
    };
    for (const auto& s : shapes) {
        SCOPED_TRACE(testing::Message() << "m=" << s.m << " k=" << s.k
                                        << " n=" << s.n);
        const auto va = random_vec(s.m * s.k, 101);
        const auto vb = random_vec(s.k * s.n, 202);
        std::vector<float> c1(static_cast<size_t>(s.m * s.n));
        std::vector<float> c4(static_cast<size_t>(s.m * s.n));
        set_num_threads(1);
        gemm(s.m, s.n, s.k, va.data(), s.k, 1, vb.data(), s.n, 1,
             c1.data(), GemmBackend::kBlocked);
        set_num_threads(4);
        gemm(s.m, s.n, s.k, va.data(), s.k, 1, vb.data(), s.n, 1,
             c4.data(), GemmBackend::kBlocked);
        set_num_threads(0);
        EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                                 c1.size() * sizeof(float)));
    }
}

TEST(GemmDeterminism, TensorWrappersBitIdenticalAcrossWidths)
{
    Rng rng(7);
    Tensor a({67, 129}), b({129, 71});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    set_num_threads(1);
    const Tensor c1 = matmul(a, b);
    set_num_threads(4);
    const Tensor c4 = matmul(a, b);
    set_num_threads(0);
    ASSERT_TRUE(c1.same_shape(c4));
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                             static_cast<size_t>(c1.numel()) *
                                 sizeof(float)));
}

TEST(GemmBackendSwitch, ProgrammaticOverride)
{
    const GemmBackend prev = gemm_backend();
    set_gemm_backend(GemmBackend::kNaive);
    EXPECT_EQ(gemm_backend(), GemmBackend::kNaive);
    EXPECT_STREQ(gemm_backend_name(), "naive");
    set_gemm_backend(GemmBackend::kBlocked);
    EXPECT_EQ(gemm_backend(), GemmBackend::kBlocked);
    EXPECT_STREQ(gemm_backend_name(), "blocked");
    set_gemm_backend(prev);
}

// --- FLOP accounting ----------------------------------------------

int64_t
counter_value(const char* name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

TEST(GemmFlops, MatmulCountsExactly2MKN)
{
    const int64_t m = 13, k = 37, n = 21;
    Rng rng(11);
    Tensor a({m, k}), b({k, n});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    const int64_t calls0 = counter_value("tensor.matmul.calls");
    const int64_t flops0 = counter_value("tensor.matmul.flops");
    (void)matmul(a, b);
    EXPECT_EQ(counter_value("tensor.matmul.calls") - calls0, 1);
    EXPECT_EQ(counter_value("tensor.matmul.flops") - flops0,
              2 * m * k * n);
}

TEST(GemmFlops, TransposedWrappersCountExactly2MKN)
{
    const int64_t m = 9, k = 14, n = 6;
    Rng rng(12);
    Tensor at({k, m}), b({k, n}), a({m, k}), bt({n, k});
    at.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    a.fill_uniform(rng, -1.0f, 1.0f);
    bt.fill_uniform(rng, -1.0f, 1.0f);
    const int64_t ta0 = counter_value("tensor.matmul_ta.flops");
    const int64_t tb0 = counter_value("tensor.matmul_tb.flops");
    (void)matmul_ta(at, b);
    (void)matmul_tb(a, bt);
    EXPECT_EQ(counter_value("tensor.matmul_ta.flops") - ta0,
              2 * m * k * n);
    EXPECT_EQ(counter_value("tensor.matmul_tb.flops") - tb0,
              2 * m * k * n);
}

// --- workspace arena ----------------------------------------------

TEST(WorkspaceArena, AllocIsAligned)
{
    Workspace::Scope scope;
    float* p = Workspace::local().alloc(3); // deliberately unround
    float* q = Workspace::local().alloc(5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % 64, 0u);
}

TEST(WorkspaceArena, RegrowsToHighWaterAndStopsOverflowing)
{
    auto& ws = Workspace::local();
    {
        Workspace::Scope scope;
        float* p = ws.alloc(1 << 12);
        p[0] = 1.0f; // touch it
    }
    // The outermost-scope close regrows the backing block to the
    // high-water mark, so the same workload no longer overflows.
    ASSERT_GE(ws.capacity(), static_cast<size_t>(1 << 12));
    const int64_t overflow0 = ws.overflow_allocs();
    for (int pass = 0; pass < 3; ++pass) {
        Workspace::Scope scope;
        float* p = ws.alloc(1 << 12);
        p[0] = static_cast<float>(pass);
    }
    EXPECT_EQ(ws.overflow_allocs(), overflow0);
}

TEST(WorkspaceArena, ScopesReleaseLifo)
{
    auto& ws = Workspace::local();
    // Warm the arena so both allocs come from the backing block.
    {
        Workspace::Scope warm;
        (void)ws.alloc(1 << 10);
    }
    Workspace::Scope outer;
    float* a = ws.alloc(64);
    float* inner_first = nullptr;
    {
        Workspace::Scope inner;
        inner_first = ws.alloc(64);
    }
    // After the inner scope closed, its space is reused.
    float* b = ws.alloc(64);
    EXPECT_EQ(b, inner_first);
    EXPECT_NE(a, b);
}

// Repeated conv-style work through the real kernels: after the first
// image the arena is warm and nothing further overflows.
TEST(WorkspaceArena, ConvPathReusesArena)
{
    Rng rng(3);
    Tensor x({4, 3, 12, 12});
    x.fill_uniform(rng, -1.0f, 1.0f);
    ConvGeometry g;
    g.in_channels = 3;
    g.in_h = g.in_w = 12;
    g.kernel = 3;
    g.pad = 1;
    Tensor w({8, 3, 3, 3}), bias({8});
    w.fill_uniform(rng, -0.5f, 0.5f);
    // Warm pass, then measure.
    (void)conv2d_direct(x, w, bias, g);
    std::vector<float> cols(static_cast<size_t>(3 * 3 * 3 * 12 * 12));
    auto& ws = Workspace::local();
    {
        Workspace::Scope scope;
        float* buf = ws.alloc(static_cast<int64_t>(cols.size()));
        im2col_group(x, 0, 1, g, buf, 12 * 12);
    }
    const int64_t overflow0 = ws.overflow_allocs();
    for (int64_t b = 0; b < 4; ++b) {
        Workspace::Scope scope;
        float* buf = ws.alloc(static_cast<int64_t>(cols.size()));
        im2col_group(x, b, 1, g, buf, 12 * 12);
    }
    EXPECT_EQ(ws.overflow_allocs(), overflow0);
}

// --- uninitialized tensors ----------------------------------------

TEST(TensorUninitialized, ShapeAndWritability)
{
    Tensor t = Tensor::uninitialized({3, 5});
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.numel(), 15);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = static_cast<float>(i);
    EXPECT_EQ(t.at(2, 4), 14.0f);
}

TEST(TensorUninitialized, ValueConstructorsStillZeroOrCopy)
{
    Tensor z({2, 2});
    for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(z.data()[i], 0.0f);
    Tensor c({2, 2}, std::vector<float>{1, 2, 3, 4});
    EXPECT_EQ(c.at(1, 1), 4.0f);
}

} // namespace
} // namespace insitu
