/**
 * @file
 * Unit tests for the tensor substrate: shapes, arithmetic, GEMM
 * variants, and the im2col/col2im lowering of the paper's Fig. 8.
 */
#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(Tensor, FillValueConstructor)
{
    Tensor t({4}, 2.5f);
    EXPECT_EQ(t.sum(), 10.0);
}

TEST(Tensor, DataConstructorChecksSize)
{
    EXPECT_DEATH(Tensor({2, 2}, std::vector<float>{1.0f}), "numel");
}

TEST(Tensor, At2dRowMajor)
{
    Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
    EXPECT_EQ(t.at(0, 2), 2.0f);
    EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, At4dNchw)
{
    Tensor t({1, 2, 2, 2});
    t.at(0, 1, 1, 0) = 9.0f;
    EXPECT_EQ(t.at(6), 9.0f); // ((0*2+1)*2+1)*2+0 = 6
}

TEST(Tensor, BoundsChecked)
{
    Tensor t({2, 2});
    EXPECT_DEATH(t.at(4), "out of range");
    EXPECT_DEATH(t.at(2, 0), "out of range");
}

TEST(Tensor, ReshapeInference)
{
    Tensor t({2, 6});
    const Tensor r = t.reshape({4, -1});
    EXPECT_EQ(r.dim(1), 3);
    EXPECT_DEATH(t.reshape({5, -1}), "infer");
}

TEST(Tensor, Slice0)
{
    Tensor t({3, 2}, {0, 1, 2, 3, 4, 5});
    const Tensor s = t.slice0(1, 3);
    EXPECT_EQ(s.dim(0), 2);
    EXPECT_EQ(s.at(0, 0), 2.0f);
    EXPECT_EQ(s.at(1, 1), 5.0f);
}

TEST(Tensor, ElementwiseArithmetic)
{
    Tensor a({2}, {1, 2});
    Tensor b({2}, {3, 4});
    const Tensor c = a + b;
    EXPECT_EQ(c.at(0), 4.0f);
    const Tensor d = b - a;
    EXPECT_EQ(d.at(1), 2.0f);
    const Tensor e = a * 2.0f;
    EXPECT_EQ(e.at(1), 4.0f);
}

TEST(Tensor, ShapeMismatchDies)
{
    Tensor a({2});
    Tensor b({3});
    EXPECT_DEATH(a += b, "shape mismatch");
}

TEST(Tensor, Reductions)
{
    Tensor t({4}, {-1, 5, 2, 0});
    EXPECT_EQ(t.min(), -1.0f);
    EXPECT_EQ(t.max(), 5.0f);
    EXPECT_EQ(t.mean(), 1.5);
    EXPECT_EQ(t.argmax(), 1);
    EXPECT_EQ(t.squared_norm(), 30.0);
}

TEST(Tensor, ArgmaxRows)
{
    Tensor t({2, 3}, {0, 9, 1, 7, 2, 3});
    const auto rows = t.argmax_rows();
    EXPECT_EQ(rows[0], 1);
    EXPECT_EQ(rows[1], 0);
}

TEST(Tensor, ShapeStr)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.shape_str(), "f32[2, 3, 4]");
}

TEST(Matmul, SmallKnownProduct)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, InnerDimMismatchDies)
{
    Tensor a({2, 3});
    Tensor b({2, 2});
    EXPECT_DEATH(matmul(a, b), "inner dims");
}

TEST(Matmul, TransposedVariantsAgree)
{
    Rng rng(5);
    Tensor a({4, 3});
    Tensor b({3, 5});
    a.fill_uniform(rng, -1.0f, 1.0f);
    b.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor ref = matmul(a, b);

    // a stored transposed: at(k, m) = a(m, k).
    Tensor at({3, 4});
    for (int64_t m = 0; m < 4; ++m)
        for (int64_t k = 0; k < 3; ++k) at.at(k, m) = a.at(m, k);
    const Tensor via_ta = matmul_ta(at, b);

    // b stored transposed: bt(n, k) = b(k, n).
    Tensor bt({5, 3});
    for (int64_t k = 0; k < 3; ++k)
        for (int64_t n = 0; n < 5; ++n) bt.at(n, k) = b.at(k, n);
    const Tensor via_tb = matmul_tb(a, bt);

    for (int64_t i = 0; i < ref.numel(); ++i) {
        EXPECT_NEAR(via_ta.at(i), ref.at(i), 1e-5f);
        EXPECT_NEAR(via_tb.at(i), ref.at(i), 1e-5f);
    }
}

TEST(ConvGeometry, OutputDims)
{
    ConvGeometry g;
    g.in_channels = 3;
    g.in_h = g.in_w = 32;
    g.kernel = 5;
    g.stride = 2;
    g.pad = 2;
    EXPECT_EQ(g.out_h(), 16);
    EXPECT_EQ(g.out_w(), 16);
}

TEST(Im2col, IdentityKernelIsFlatten)
{
    // K=1, stride=1, pad=0: im2col is just the (C, H*W) view.
    Tensor x({1, 2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
    ConvGeometry g;
    g.in_channels = 2;
    g.in_h = g.in_w = 2;
    const Tensor cols = im2col(x, 0, g);
    EXPECT_EQ(cols.dim(0), 2);
    EXPECT_EQ(cols.dim(1), 4);
    for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(cols.at(i), x.at(i));
}

TEST(Im2col, ExtractsWindowsWithPadding)
{
    // 1x1x2x2 input, K=3, pad=1: the center of each window walks the
    // image; corners see zero padding.
    Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
    ConvGeometry g;
    g.in_channels = 1;
    g.in_h = g.in_w = 2;
    g.kernel = 3;
    g.pad = 1;
    const Tensor cols = im2col(x, 0, g);
    EXPECT_EQ(cols.dim(0), 9);
    EXPECT_EQ(cols.dim(1), 4);
    // Center tap (row 4 of the 3x3 kernel) reproduces the image.
    EXPECT_EQ(cols.at(4, 0), 1.0f);
    EXPECT_EQ(cols.at(4, 1), 2.0f);
    EXPECT_EQ(cols.at(4, 2), 3.0f);
    EXPECT_EQ(cols.at(4, 3), 4.0f);
    // Top-left tap of the first window is padding.
    EXPECT_EQ(cols.at(0, 0), 0.0f);
    // Top-left tap of the last window sees pixel (0,0)=1.
    EXPECT_EQ(cols.at(0, 3), 1.0f);
}

TEST(Col2im, IsAdjointOfIm2col)
{
    // <im2col(x), y> == <x, col2im(y)> for random x, y: the scatter
    // must be the exact adjoint of the gather or conv gradients are
    // wrong.
    Rng rng(9);
    ConvGeometry g;
    g.in_channels = 2;
    g.in_h = 5;
    g.in_w = 4;
    g.kernel = 3;
    g.stride = 2;
    g.pad = 1;
    Tensor x({1, 2, 5, 4});
    x.fill_uniform(rng, -1.0f, 1.0f);
    const Tensor cols = im2col(x, 0, g);
    Tensor y(cols.shape());
    y.fill_uniform(rng, -1.0f, 1.0f);

    double lhs = 0.0;
    for (int64_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols.at(i)) * y.at(i);

    Tensor back({1, 2, 5, 4});
    col2im_accumulate(y, back, 0, g);
    double rhs = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x.at(i)) * back.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

/// A 2-channel 4x4 map, K=3, pad 1: 18 column rows of 16.
ConvGeometry
col2im_geometry()
{
    ConvGeometry g;
    g.in_channels = 2;
    g.in_h = g.in_w = 4;
    g.kernel = 3;
    g.pad = 1;
    return g;
}

TEST(Col2imDeathTest, BatchIndexOutOfRangeDies)
{
    const ConvGeometry g = col2im_geometry();
    const Tensor cols({18, 16}, 1.0f);
    Tensor grad({1, 2, 4, 4});
    EXPECT_DEATH(col2im_accumulate(cols, grad, 1, g), "col2im batch index");
    EXPECT_DEATH(col2im_accumulate(cols.data(), grad, -1, 1, g, 16),
                 "col2im batch index");
}

TEST(Col2imDeathTest, ChannelMismatchDies)
{
    const ConvGeometry g = col2im_geometry();
    const Tensor cols({18, 16}, 1.0f);
    Tensor grad({2, 1, 4, 4});
    EXPECT_DEATH(col2im_accumulate(cols.data(), grad, 1, 1, g, 16),
                 "col2im geometry mismatch");
}

TEST(Tensor, FillUniformRespectsRange)
{
    Rng rng(3);
    Tensor t({1000});
    t.fill_uniform(rng, -0.5f, 0.5f);
    EXPECT_GE(t.min(), -0.5f);
    EXPECT_LT(t.max(), 0.5f);
    EXPECT_NEAR(t.mean(), 0.0, 0.05);
}

} // namespace
} // namespace insitu
