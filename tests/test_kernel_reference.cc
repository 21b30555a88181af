/**
 * @file
 * Bitwise oracles for the layer kernels around every conv GEMM: ReLU,
 * max-pool, im2col_group and col2im_accumulate. The kernels use
 * selects and a zero-padded staging buffer instead of per-element
 * branches; the naive loops here branch on every element, as the
 * kernels once did, and live nowhere else. Each kernel must match its
 * loop bit for bit (memcmp) on NaN, ±0, ±Inf and denormal inputs,
 * all-NaN windows, tied windows, and planes that are wholly negative
 * or wholly positive.
 *
 * The conv backward, which lowers dX per image group and folds each
 * image's weight gradient straight into the grad, is checked the same
 * way against the per-image loop it replaced: one pair of GEMMs and
 * one dW partial per image, the partials added in batch order.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();

/// Values each select must treat exactly as the naive branch does.
const std::vector<float> kSpecials = {
    kNaN,     -kNaN,    0.0f,  -0.0f, kInf,  -kInf,
    kDenorm,  -kDenorm, 3e-39f, -3e-39f, 1.0f, -1.0f,
    std::numeric_limits<float>::max(),
    -std::numeric_limits<float>::max()};

/// How one plane (or one flat tensor) is filled.
enum class Fill {
    kMixed,       ///< uniform(-1, 1), a quarter replaced by specials
    kTies,        ///< few levels, ±0 among them: every window ties
    kAllNegative, ///< strictly negative, -0 and -Inf included
    kAllPositive, ///< strictly positive, denormals and +Inf included
    kAllNaN,
};
constexpr Fill kFills[] = {Fill::kMixed, Fill::kTies, Fill::kAllNegative,
                           Fill::kAllPositive, Fill::kAllNaN};

float
draw(Fill fill, Rng& rng)
{
    switch (fill) {
    case Fill::kMixed:
        return rng.next_below(4) == 0
                   ? kSpecials[rng.next_below(kSpecials.size())]
                   : rng.uniform_f(-1.0f, 1.0f);
    case Fill::kTies: {
        static const float levels[] = {-1.0f, -0.0f, 0.0f, 0.5f, 0.5f};
        return levels[rng.next_below(5)];
    }
    case Fill::kAllNegative: {
        static const float tail[] = {-0.0f, -kInf, -kDenorm};
        return rng.next_below(8) == 0 ? tail[rng.next_below(3)]
                                      : rng.uniform_f(-2.0f, -1e-3f);
    }
    case Fill::kAllPositive: {
        static const float tail[] = {kInf, kDenorm, 3e-39f};
        return rng.next_below(8) == 0 ? tail[rng.next_below(3)]
                                      : rng.uniform_f(1e-3f, 2.0f);
    }
    case Fill::kAllNaN:
        return rng.next_below(2) == 0 ? kNaN : -kNaN;
    }
    return 0.0f;
}

/// Fills each plane of `plane_size` elements with the next Fill.
Tensor
make_input(std::vector<int64_t> shape, int64_t plane_size, Rng& rng)
{
    Tensor t = Tensor::uninitialized(std::move(shape));
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = draw(kFills[(i / plane_size) % 5], rng);
    return t;
}

void
expect_same_bits(const Tensor& got, const Tensor& want,
                 const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (int64_t i = 0; i < got.numel(); ++i) {
        if (std::memcmp(got.data() + i, want.data() + i,
                        sizeof(float)) != 0) {
            ADD_FAILURE() << what << ": element " << i << " is "
                          << got.data()[i] << ", naive loop gives "
                          << want.data()[i];
            return;
        }
    }
}

// --- ReLU ----------------------------------------------------------

TEST(KernelReference, ReluForwardAndBackward)
{
    Rng rng(25);
    for (int64_t n : {1, 3, 4, 5, 16, 17, 63, 1027}) {
        for (Fill fill : kFills) {
            Tensor x = Tensor::uninitialized({n});
            for (int64_t i = 0; i < n; ++i) x.data()[i] = draw(fill, rng);
            Tensor want(x.shape()), mask(x.shape());
            for (int64_t i = 0; i < n; ++i) {
                const float v = x.data()[i];
                if (v > 0.0f) {
                    want.data()[i] = v;
                    mask.data()[i] = 1.0f;
                } else {
                    want.data()[i] = 0.0f;
                    mask.data()[i] = 0.0f;
                }
            }
            const std::string what =
                "n=" + std::to_string(n) + " fill=" +
                std::to_string(static_cast<int>(fill));
            ReLU relu;
            expect_same_bits(relu.forward(x, false), want, "eval " + what);
            expect_same_bits(relu.forward(x, true), want, "train " + what);

            // Negative, NaN and Inf gradients: a masked one must become
            // g * 0 (-0, NaN), not a stored +0.
            Tensor g = make_input({n}, n, rng);
            for (int64_t i = 0; i < n; i += 3)
                g.data()[i] = kSpecials[rng.next_below(kSpecials.size())];
            Tensor want_g = g;
            for (int64_t i = 0; i < n; ++i)
                want_g.data()[i] *= mask.data()[i];
            expect_same_bits(relu.backward(g), want_g, "backward " + what);
        }
    }
}

// --- max-pool ------------------------------------------------------

/// The naive scan: first strict maximum wins, the window's first
/// element if none.
Tensor
pool_reference(const Tensor& x, int64_t k, int64_t s,
               std::vector<int64_t>& argmax)
{
    const int64_t planes = x.dim(0) * x.dim(1);
    const int64_t ih = x.dim(2), iw = x.dim(3);
    const int64_t oh = (ih - k) / s + 1, ow = (iw - k) / s + 1;
    Tensor out({x.dim(0), x.dim(1), oh, ow});
    argmax.assign(static_cast<size_t>(out.numel()), 0);
    int64_t oi = 0;
    for (int64_t p = 0; p < planes; ++p) {
        const float* plane = x.data() + p * ih * iw;
        for (int64_t y = 0; y < oh; ++y) {
            for (int64_t xx = 0; xx < ow; ++xx, ++oi) {
                float best = -kInf;
                int64_t best_idx = (y * s) * iw + xx * s;
                for (int64_t ky = 0; ky < k; ++ky) {
                    for (int64_t kx = 0; kx < k; ++kx) {
                        const int64_t idx =
                            (y * s + ky) * iw + xx * s + kx;
                        if (plane[idx] > best) {
                            best = plane[idx];
                            best_idx = idx;
                        }
                    }
                }
                out.data()[oi] = best;
                argmax[static_cast<size_t>(oi)] = best_idx;
            }
        }
    }
    return out;
}

TEST(KernelReference, MaxPoolForwardArgmaxAndBackward)
{
    Rng rng(7);
    const int64_t shapes[][2] = {{9, 13}, {15, 7}};
    for (int64_t k : {1, 2, 3, 5, 7}) {
        for (int64_t s : {1, 2, 3}) {
            for (const auto& hw : shapes) {
                const int64_t ih = hw[0], iw = hw[1];
                // Two images of five planes: one plane of each Fill.
                const Tensor x = make_input({2, 5, ih, iw}, ih * iw, rng);
                std::vector<int64_t> argmax;
                const Tensor want = pool_reference(x, k, s, argmax);
                const std::string what =
                    "k=" + std::to_string(k) + " s=" + std::to_string(s) +
                    " map=" + std::to_string(ih) + "x" + std::to_string(iw);
                MaxPool2d pool("p", k, s);
                expect_same_bits(pool.forward(x, false), want,
                                 "eval " + what);
                expect_same_bits(pool.forward(x, true), want,
                                 "train " + what);

                // Distinct gradients route through the argmax; where
                // windows overlap, terms add in ascending output order.
                Tensor g(want.shape());
                g.fill_uniform(rng, -1.0f, 1.0f);
                Tensor want_g(x.shape());
                const int64_t per_plane = want.dim(2) * want.dim(3);
                for (int64_t oi = 0; oi < g.numel(); ++oi)
                    want_g.data()[(oi / per_plane) * ih * iw +
                                  argmax[static_cast<size_t>(oi)]] +=
                        g.data()[oi];
                expect_same_bits(pool.backward(g), want_g,
                                 "backward " + what);
            }
        }
    }
}

// --- im2col / col2im -----------------------------------------------

/// The naive gather of images [b0, b0 + nimg): one bounds test per
/// element, tap row r, position p and image i at out[r*ld + p*nimg + i].
void
im2col_reference(const Tensor& input, int64_t b0, int64_t nimg,
                 const ConvGeometry& g, float* out, int64_t ld)
{
    const int64_t oh = g.out_h(), ow = g.out_w();
    for (int64_t i = 0; i < nimg; ++i) {
        const float* in =
            input.data() + (b0 + i) * g.in_channels * g.in_h * g.in_w;
        for (int64_t c = 0; c < g.in_channels; ++c)
            for (int64_t ky = 0; ky < g.kernel; ++ky)
                for (int64_t kx = 0; kx < g.kernel; ++kx) {
                    const int64_t row =
                        (c * g.kernel + ky) * g.kernel + kx;
                    for (int64_t y = 0; y < oh; ++y)
                        for (int64_t x = 0; x < ow; ++x) {
                            const int64_t iy = y * g.stride + ky - g.pad;
                            const int64_t ix = x * g.stride + kx - g.pad;
                            float v = 0.0f;
                            if (iy >= 0 && iy < g.in_h && ix >= 0 &&
                                ix < g.in_w)
                                v = in[(c * g.in_h + iy) * g.in_w + ix];
                            out[row * ld + (y * ow + x) * nimg + i] = v;
                        }
                }
    }
}

/// The naive scatter-add into images [b0, b0 + nimg), in ascending
/// (c, ky, kx, y, x) order per image; columns laid out as
/// im2col_reference writes them.
void
col2im_reference(const float* cols, Tensor& grad, int64_t b0,
                 int64_t nimg, const ConvGeometry& g, int64_t ld)
{
    const int64_t oh = g.out_h(), ow = g.out_w();
    for (int64_t i = 0; i < nimg; ++i) {
        float* out =
            grad.data() + (b0 + i) * g.in_channels * g.in_h * g.in_w;
        for (int64_t c = 0; c < g.in_channels; ++c)
            for (int64_t ky = 0; ky < g.kernel; ++ky)
                for (int64_t kx = 0; kx < g.kernel; ++kx) {
                    const int64_t row =
                        (c * g.kernel + ky) * g.kernel + kx;
                    for (int64_t y = 0; y < oh; ++y)
                        for (int64_t x = 0; x < ow; ++x) {
                            const int64_t iy = y * g.stride + ky - g.pad;
                            const int64_t ix = x * g.stride + kx - g.pad;
                            if (iy < 0 || iy >= g.in_h || ix < 0 ||
                                ix >= g.in_w)
                                continue;
                            out[(c * g.in_h + iy) * g.in_w + ix] +=
                                cols[row * ld + (y * ow + x) * nimg + i];
                        }
                }
    }
}

/// Every K x stride x pad on non-square, odd-sized maps, three
/// channels, whose window fits the padded map.
std::vector<ConvGeometry>
geometry_sweep()
{
    std::vector<ConvGeometry> out;
    const int64_t maps[][2] = {{7, 9}, {11, 5}};
    for (int64_t k : {1, 2, 3, 5, 7})
        for (int64_t s : {1, 2, 3})
            for (int64_t p : {0, 1, 2})
                for (const auto& hw : maps) {
                    ConvGeometry g;
                    g.in_channels = 3;
                    g.in_h = hw[0];
                    g.in_w = hw[1];
                    g.kernel = k;
                    g.stride = s;
                    g.pad = p;
                    if (g.in_h + 2 * p >= k && g.in_w + 2 * p >= k)
                        out.push_back(g);
                }
    return out;
}

std::string
describe(const ConvGeometry& g)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "k=%lld s=%lld p=%lld map=%lldx%lld",
                  static_cast<long long>(g.kernel),
                  static_cast<long long>(g.stride),
                  static_cast<long long>(g.pad),
                  static_cast<long long>(g.in_h),
                  static_cast<long long>(g.in_w));
    return buf;
}

TEST(KernelReference, Im2colIntoMatchesNaiveGather)
{
    Rng rng(11);
    const std::vector<ConvGeometry> sweep = geometry_sweep();
    // 90 combinations less K=7 at pad 0 on the 5-wide map (strides 1,
    // 2 and 3), whose window is wider than the map.
    ASSERT_EQ(sweep.size(), 87u);
    for (const ConvGeometry& g : sweep) {
        const Tensor x =
            make_input({3, g.in_channels, g.in_h, g.in_w},
                       g.in_h * g.in_w, rng);
        // Image 2 lands at column 5 of rows wider than its window; the
        // sentinel around it must survive.
        const int64_t ohw = g.out_h() * g.out_w();
        const int64_t col0 = 5, ld = col0 + ohw + 3;
        const int64_t rows = g.in_channels * g.kernel * g.kernel;
        Tensor got({rows, ld}, -7.25f), want({rows, ld}, -7.25f);
        im2col_group(x, 2, 1, g, got.data() + col0, ld);
        im2col_reference(x, 2, 1, g, want.data() + col0, ld);
        expect_same_bits(got, want, describe(g));
    }
}

/// Random column values with a few specials: one NaN payload and no
/// -Inf, so no sum depends on which NaN an add propagates.
void
fill_columns(Tensor& cols, Rng& rng)
{
    static const float specials[] = {kNaN, kInf, 0.0f, -0.0f, kDenorm,
                                     -kDenorm};
    for (int64_t i = 0; i < cols.numel(); ++i)
        cols.data()[i] = rng.next_below(16) == 0
                             ? specials[rng.next_below(6)]
                             : rng.uniform_f(-1.0f, 1.0f);
}

TEST(KernelReference, Col2imAccumulateMatchesNaiveScatter)
{
    Rng rng(13);
    for (const ConvGeometry& g : geometry_sweep()) {
        const int64_t rows = g.in_channels * g.kernel * g.kernel;
        // Random terms make the order visible. Image 1's columns
        // start at column 5 of wider rows, as in a group's
        // column-gradient matrix.
        const int64_t ohw = g.out_h() * g.out_w();
        const int64_t col0 = 5, ld = col0 + ohw + 3;
        Tensor cols({rows, ld});
        fill_columns(cols, rng);
        Tensor got({3, g.in_channels, g.in_h, g.in_w});
        got.fill_uniform(rng, -1.0f, 1.0f);
        Tensor want = got;
        col2im_accumulate(cols.data() + col0, got, 1, 1, g, ld);
        col2im_reference(cols.data() + col0, want, 1, 1, g, ld);
        expect_same_bits(got, want, describe(g));
    }
}

TEST(KernelReference, Im2colGroupMatchesNaiveGather)
{
    // Every (tap, position, image) entry of a group's columns, and the
    // adjoint scatter of random column gradients, against the naive
    // loops: K x stride x pad on a tile-sized 2x2 map, an odd 9x7 map
    // and a 20x20 map whose 400 positions exceed one k panel; groups
    // of one image, two, a full kGroupCols group and a tail group.
    Rng rng(19);
    const int64_t maps[][2] = {{2, 2}, {9, 7}, {20, 20}};
    int checked = 0;
    for (const auto& hw : maps)
        for (int64_t k : {1, 3, 5})
            for (int64_t st : {1, 2, 3})
                for (int64_t p : {0, 1, 2}) {
                    ConvGeometry g;
                    g.in_channels = 3;
                    g.in_h = hw[0];
                    g.in_w = hw[1];
                    g.kernel = k;
                    g.stride = st;
                    g.pad = p;
                    if (g.in_h + 2 * p < k || g.in_w + 2 * p < k) continue;
                    const int64_t ohw = g.out_h() * g.out_w();
                    const int64_t full = (kGroupCols + ohw - 1) / ohw;
                    const int64_t batch = full + 3;
                    const Tensor x = make_input(
                        {batch, g.in_channels, g.in_h, g.in_w},
                        g.in_h * g.in_w, rng);
                    const int64_t rows = g.in_channels * k * k;
                    const int64_t groups[][2] = {
                        {1, 1}, {1, 2}, {0, full}, {full, 3}};
                    for (const auto& grp : groups) {
                        const int64_t b0 = grp[0], nimg = grp[1];
                        const std::string what =
                            describe(g) + " b0=" + std::to_string(b0) +
                            " nimg=" + std::to_string(nimg);
                        // The group's columns start at column 5 of wider
                        // rows; the sentinel around them must survive.
                        const int64_t col0 = 5;
                        const int64_t ld = col0 + ohw * nimg + 3;
                        Tensor got({rows, ld}, -7.25f);
                        Tensor want({rows, ld}, -7.25f);
                        im2col_group(x, b0, nimg, g, got.data() + col0,
                                     ld);
                        im2col_reference(x, b0, nimg, g,
                                         want.data() + col0, ld);
                        expect_same_bits(got, want, "im2col " + what);

                        Tensor cols({rows, ld});
                        fill_columns(cols, rng);
                        Tensor gx({batch, g.in_channels, g.in_h, g.in_w});
                        gx.fill_uniform(rng, -1.0f, 1.0f);
                        Tensor gx_want = gx;
                        col2im_accumulate(cols.data() + col0, gx, b0,
                                          nimg, g, ld);
                        col2im_reference(cols.data() + col0, gx_want, b0,
                                         nimg, g, ld);
                        expect_same_bits(gx, gx_want, "col2im " + what);
                        ++checked;
                    }
                }
    // 27 geometries per map, less those whose window is wider than
    // the padded 2x2 map: K=3 at pad 0 and K=5 at pad 0 and 1.
    EXPECT_EQ(checked, 4 * (27 * 3 - 9));
}

TEST(KernelReferenceDeathTest, WindowWiderThanPaddedMapDies)
{
    // K = 7 on a 5-wide map at pad 0: (5 - 7) / 3 + 1 truncates to one
    // output column, which would read only padding.
    ConvGeometry g;
    g.in_channels = 1;
    g.in_h = 11;
    g.in_w = 5;
    g.kernel = 7;
    g.stride = 3;
    EXPECT_EQ(g.out_h(), 2);
    EXPECT_DEATH((void)g.out_w(), "conv window wider than the padded map");
    g.in_h = 5;
    g.in_w = 11;
    EXPECT_DEATH((void)g.out_h(), "conv window wider than the padded map");
    g.pad = 1; // 5 + 2 = 7: the window just fits
    EXPECT_EQ(g.out_h(), 1);
}

// --- conv backward --------------------------------------------------

/// Gradients of one conv backward: dX, dW, db.
struct ConvGrads {
    Tensor dx, dw, db;
};

/// The per-image loop: for each image its own im2col, the dW partial
/// gOm * Dm^T and the dX column gradient Fm^T * gOm as two GEMMs, the
/// bias partial as spatial sums; the partials then fold into the
/// starting grads serially in batch order.
ConvGrads
conv_backward_reference(const Conv2d& conv, const Tensor& x,
                        const Tensor& gy, const ConvGrads& start)
{
    ConvGeometry g;
    g.in_channels = conv.in_channels();
    g.in_h = x.dim(2);
    g.in_w = x.dim(3);
    g.kernel = conv.kernel();
    g.stride = conv.stride();
    g.pad = conv.pad();
    const int64_t m = conv.out_channels();
    const int64_t ckk = g.in_channels * g.kernel * g.kernel;
    const int64_t ohw = g.out_h() * g.out_w();
    const float* fm = conv.weight()->value().data();
    const GemmBackend be = gemm_backend();
    ConvGrads out{Tensor(x.shape()), start.dw, start.db};
    std::vector<Tensor> parts;
    Tensor bias_parts({x.dim(0), m});
    for (int64_t b = 0; b < x.dim(0); ++b) {
        const float* gom = gy.data() + b * m * ohw;
        const Tensor cols = im2col(x, b, g);
        Tensor part({m, ckk});
        gemm(m, ckk, ohw, gom, ohw, 1, cols.data(), 1, ohw, part.data(),
             be);
        parts.push_back(part);
        Tensor gcols({ckk, ohw});
        gemm(ckk, ohw, m, fm, 1, ckk, gom, ohw, 1, gcols.data(), be);
        col2im_accumulate(gcols, out.dx, b, g);
        for (int64_t f = 0; f < m; ++f) {
            float acc = 0.0f;
            for (int64_t i = 0; i < ohw; ++i) acc += gom[f * ohw + i];
            bias_parts.data()[b * m + f] = acc;
        }
    }
    for (int64_t b = 0; b < x.dim(0); ++b) {
        const Tensor& part = parts[static_cast<size_t>(b)];
        for (int64_t i = 0; i < part.numel(); ++i)
            out.dw.data()[i] += part.data()[i];
        for (int64_t f = 0; f < m; ++f)
            out.db.data()[f] += bias_parts.data()[b * m + f];
    }
    return out;
}

TEST(ConvBackwardReference, MatchesPerImagePartialLoop)
{
    Rng rng(17);
    const GemmBackend prev = gemm_backend();
    // Every K x stride x pad on a 9x7 map; then 3x3/s1/p1 on a 20x20
    // map, whose 400 output positions are a dW GEMM deeper than one
    // 256-deep k panel.
    struct Shape {
        int64_t k, s, p, h, w;
    };
    std::vector<Shape> shapes;
    for (int64_t k : {1, 3, 5})
        for (int64_t st : {1, 2, 3})
            for (int64_t p : {0, 1, 2}) shapes.push_back({k, st, p, 9, 7});
    shapes.push_back({3, 1, 1, 20, 20});
    for (const Shape& sh : shapes) {
        // 3 input channels x K^2 spans one to three 32-column dW
        // chunks; 5 filters leave a partial register tile.
        Conv2d conv("c", 3, 5, sh.k, sh.s, sh.p, rng);
        ConvGeometry g;
        g.in_channels = 3;
        g.in_h = sh.h;
        g.in_w = sh.w;
        g.kernel = sh.k;
        g.stride = sh.s;
        g.pad = sh.p;
        const int64_t ohw = g.out_h() * g.out_w();
        // One full image group plus one image: two GEMM groups.
        const int64_t batch = (kGroupCols + ohw - 1) / ohw + 1;
        Tensor x({batch, 3, sh.h, sh.w});
        x.fill_uniform(rng, -1.0f, 1.0f);
        Tensor gy({batch, 5, g.out_h(), g.out_w()});
        gy.fill_uniform(rng, -1.0f, 1.0f);
        ConvGrads start{Tensor(), conv.weight()->value(),
                        conv.bias()->value()};
        start.dw.fill_uniform(rng, -1.0f, 1.0f);
        start.db.fill_uniform(rng, -1.0f, 1.0f);
        for (const GemmBackend be :
             {GemmBackend::kBlocked, GemmBackend::kNaive}) {
            set_gemm_backend(be);
            const ConvGrads want =
                conv_backward_reference(conv, x, gy, start);
            for (const int width : {1, 4}) {
                set_num_threads(width);
                const std::string what =
                    "k=" + std::to_string(sh.k) +
                    " s=" + std::to_string(sh.s) +
                    " p=" + std::to_string(sh.p) + " map=" +
                    std::to_string(sh.h) + "x" + std::to_string(sh.w) +
                    " " + gemm_backend_name() + " width " +
                    std::to_string(width);
                conv.weight()->grad() = start.dw;
                conv.bias()->grad() = start.db;
                (void)conv.forward(x, true);
                const Tensor dx = conv.backward(gy);
                expect_same_bits(dx, want.dx, "dX " + what);
                expect_same_bits(conv.weight()->grad(), want.dw,
                                 "dW " + what);
                expect_same_bits(conv.bias()->grad(), want.db,
                                 "db " + what);
                // Without dX the parameter grads are the same bits.
                conv.weight()->grad() = start.dw;
                conv.bias()->grad() = start.db;
                conv.backward_params(gy);
                expect_same_bits(conv.weight()->grad(), want.dw,
                                 "params-only dW " + what);
                expect_same_bits(conv.bias()->grad(), want.db,
                                 "params-only db " + what);
            }
        }
    }
    set_num_threads(0);
    set_gemm_backend(prev);
}

} // namespace
} // namespace insitu
