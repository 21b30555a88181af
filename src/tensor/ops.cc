#include "tensor/ops.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"
#include "util/logging.h"

namespace insitu {

namespace {

/**
 * Bump `tensor.<kernel>.calls` / `tensor.<kernel>.flops`. Handles are
 * looked up once (magic statics at the call sites) and the counters
 * are shard-based, so this is safe and cheap from any context.
 */
void
tally_kernel(obs::Counter& calls, obs::Counter& flops, int64_t f)
{
    calls.add(1);
    flops.add(f);
}

obs::Counter&
kernel_counter(const char* name)
{
    return obs::MetricsRegistry::global().counter(name);
}

/**
 * The staging layout of one image group: a zero-padded
 * (C, H+2p, W+2p, nimg) buffer, images innermost, so image i's pixel
 * (c, y, x) sits at ((c * hp + y + pad) * wp + x + pad) * nimg + i.
 */
struct Staging {
    Staging(const ConvGeometry& g, int64_t n)
        : hp(g.in_h + 2 * g.pad), wp(g.in_w + 2 * g.pad), nimg(n),
          floats(g.in_channels * hp * wp * n)
    {
    }
    int64_t hp, wp, nimg, floats;
};

/**
 * dst[j] = src[j] for j < n in fixed-size moves: 64 bytes while 16 or
 * more floats remain, then 16 bytes, the last move ending at n, so a
 * run has no scalar tail and no library call. Each move compiles to
 * inline vector loads and stores (and is checked once in an
 * instrumented build).
 */
inline void
copy_floats(float* dst, const float* src, int64_t n)
{
    if (n < 4) {
        for (int64_t j = 0; j < n; ++j) dst[j] = src[j];
        return;
    }
    int64_t j = 0;
    for (; j + 16 <= n; j += 16)
        std::memcpy(dst + j, src + j, 16 * sizeof(float));
    for (; j + 4 < n; j += 4)
        std::memcpy(dst + j, src + j, 4 * sizeof(float));
    std::memcpy(dst + n - 4, src + n - 4, 4 * sizeof(float));
}

/** dst[j] += src[j] for j < n. GCC's -O2 cost model leaves a plain
 *  loop of unknown length scalar, so the body is four lanes wide. */
inline void
add_floats(float* dst, const float* src, int64_t n)
{
    int64_t j = 0;
#if defined(__SSE2__)
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(dst + j, _mm_add_ps(_mm_loadu_ps(dst + j),
                                          _mm_loadu_ps(src + j)));
#endif
    for (; j < n; ++j) dst[j] += src[j];
}

/**
 * Copy the group whose first image starts at @p src (NCHW) into the
 * interior of the staging buffer @p st; its border is left as is.
 */
void
stage_group(const float* src, const ConvGeometry& g, const Staging& s,
            float* st)
{
    const int64_t plane = g.in_h * g.in_w;
    const int64_t chw = g.in_channels * plane;
    const int64_t row = s.wp * s.nimg; // floats per padded row
    for (int64_t c = 0; c < g.in_channels; ++c)
        for (int64_t y = 0; y < g.in_h; ++y) {
            float* d = st + (c * s.hp + g.pad + y) * row + g.pad * s.nimg;
            const float* sy = src + c * plane + y * g.in_w;
            if (s.nimg == 1) {
                copy_floats(d, sy, g.in_w);
                continue;
            }
            for (int64_t x = 0; x < g.in_w; ++x)
                for (int64_t i = 0; i < s.nimg; ++i)
                    d[x * s.nimg + i] = sy[i * chw + x];
        }
}

/** Copy the staging buffer's interior back to the group at @p dst. */
void
unstage_group(const float* st, const ConvGeometry& g, const Staging& s,
              float* dst)
{
    const int64_t plane = g.in_h * g.in_w;
    const int64_t chw = g.in_channels * plane;
    const int64_t row = s.wp * s.nimg;
    for (int64_t c = 0; c < g.in_channels; ++c)
        for (int64_t y = 0; y < g.in_h; ++y) {
            const float* sy =
                st + (c * s.hp + g.pad + y) * row + g.pad * s.nimg;
            float* dy = dst + c * plane + y * g.in_w;
            if (s.nimg == 1) {
                copy_floats(dy, sy, g.in_w);
                continue;
            }
            for (int64_t x = 0; x < g.in_w; ++x)
                for (int64_t i = 0; i < s.nimg; ++i)
                    dy[i * chw + x] = sy[x * s.nimg + i];
        }
}

/** The output positions [lo, hi) along one axis whose tap k reads
 *  inside a map of `in` pixels. */
struct Span {
    int64_t lo, hi;
};

Span
tap_span(int64_t k, int64_t in, int64_t outs, const ConvGeometry& g)
{
    const int64_t off = k - g.pad;
    const int64_t lo = off >= 0 ? 0 : (g.stride - 1 - off) / g.stride;
    const int64_t hi =
        in - off <= 0 ? 0 : (in - off + g.stride - 1) / g.stride;
    const int64_t end = std::min(hi, outs);
    return {std::min(lo, end), end};
}

/**
 * Call fn(row, stage_offset, col_offset, len) for every contiguous run
 * that tap row `row` = (c * K + ky) * K + kx shares with the staging
 * buffer, in ascending (c, ky, kx, y, x) order: one run of OW * nimg
 * floats per output row at stride 1, one of nimg floats per output
 * position otherwise. With @p inside, the runs keep only the output
 * positions whose tap reads inside the map (the spans are computed
 * once per call), so nothing lands on the border.
 */
template <typename Fn>
void
for_each_tap_run(const ConvGeometry& g, const Staging& s, bool inside,
                 Fn&& fn)
{
    const int64_t oh = g.out_h(), ow = g.out_w();
    const int64_t ystep = g.stride * s.wp * s.nimg;
    const int64_t xstep = g.stride * s.nimg;
    Workspace::Scope scope;
    Span* ys_of = Workspace::local().alloc_as<Span>(2 * g.kernel);
    Span* xs_of = ys_of + g.kernel;
    for (int64_t k = 0; k < g.kernel; ++k) {
        ys_of[k] = inside ? tap_span(k, g.in_h, oh, g) : Span{0, oh};
        xs_of[k] = inside ? tap_span(k, g.in_w, ow, g) : Span{0, ow};
    }
    int64_t r = 0;
    for (int64_t c = 0; c < g.in_channels; ++c)
        for (int64_t ky = 0; ky < g.kernel; ++ky)
            for (int64_t kx = 0; kx < g.kernel; ++kx, ++r) {
                const Span xs = xs_of[kx];
                const int64_t tap =
                    ((c * s.hp + ky) * s.wp + kx) * s.nimg;
                for (int64_t y = ys_of[ky].lo; y < ys_of[ky].hi; ++y) {
                    const int64_t at = tap + y * ystep;
                    const int64_t col = y * ow * s.nimg;
                    if (g.stride == 1) {
                        fn(r, at + xs.lo * s.nimg,
                           col + xs.lo * s.nimg,
                           (xs.hi - xs.lo) * s.nimg);
                        continue;
                    }
                    for (int64_t x = xs.lo; x < xs.hi; ++x)
                        fn(r, at + x * xstep, col + x * s.nimg, s.nimg);
                }
            }
}

/** The checks both group kernels share. */
void
check_group(const Tensor& t, int64_t b0, int64_t nimg,
            const ConvGeometry& g, int64_t ld, const char* what)
{
    INSITU_CHECK(t.rank() == 4, what, " expects NCHW");
    INSITU_CHECK(t.dim(1) == g.in_channels && t.dim(2) == g.in_h &&
                     t.dim(3) == g.in_w,
                 what, " geometry mismatch");
    INSITU_CHECK(b0 >= 0 && nimg >= 1 && b0 + nimg <= t.dim(0), what,
                 " batch index");
    INSITU_CHECK(ld >= g.out_h() * g.out_w() * nimg, what,
                 " column window outside the row stride");
}

} // namespace

Tensor
matmul(const Tensor& a, const Tensor& b)
{
    INSITU_CHECK(a.rank() == 2 && b.rank() == 2, "matmul needs rank 2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    INSITU_CHECK(b.dim(0) == k, "matmul inner dims: ", k, " vs ",
                 b.dim(0));
    static auto& calls = kernel_counter("tensor.matmul.calls");
    static auto& flops = kernel_counter("tensor.matmul.flops");
    tally_kernel(calls, flops, 2 * m * k * n);
    Tensor c = Tensor::uninitialized({m, n});
    gemm(m, n, k, a.data(), k, 1, b.data(), n, 1, c.data(),
         gemm_backend());
    return c;
}

Tensor
matmul_ta(const Tensor& a, const Tensor& b)
{
    INSITU_CHECK(a.rank() == 2 && b.rank() == 2,
                 "matmul_ta needs rank 2");
    const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    INSITU_CHECK(b.dim(0) == k, "matmul_ta inner dims");
    static auto& calls = kernel_counter("tensor.matmul_ta.calls");
    static auto& flops = kernel_counter("tensor.matmul_ta.flops");
    tally_kernel(calls, flops, 2 * m * k * n);
    Tensor c = Tensor::uninitialized({m, n});
    // A is stored (k, m): logical A(i, kk) lives at pa[kk * m + i].
    gemm(m, n, k, a.data(), 1, m, b.data(), n, 1, c.data(),
         gemm_backend());
    return c;
}

Tensor
matmul_tb(const Tensor& a, const Tensor& b)
{
    INSITU_CHECK(a.rank() == 2 && b.rank() == 2,
                 "matmul_tb needs rank 2");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    INSITU_CHECK(b.dim(1) == k, "matmul_tb inner dims");
    static auto& calls = kernel_counter("tensor.matmul_tb.calls");
    static auto& flops = kernel_counter("tensor.matmul_tb.flops");
    tally_kernel(calls, flops, 2 * m * k * n);
    Tensor c = Tensor::uninitialized({m, n});
    // B is stored (n, k): logical B(kk, j) lives at pb[j * k + kk].
    gemm(m, n, k, a.data(), k, 1, b.data(), 1, k, c.data(),
         gemm_backend());
    return c;
}

Tensor
im2col(const Tensor& input, int64_t batch_index, const ConvGeometry& g)
{
    Tensor cols = Tensor::uninitialized(
        {g.in_channels * g.kernel * g.kernel, g.out_h() * g.out_w()});
    im2col_group(input, batch_index, 1, g, cols.data(), cols.dim(1));
    return cols;
}

void
im2col_group(const Tensor& input, int64_t b0, int64_t nimg,
             const ConvGeometry& g, float* cols, int64_t ld)
{
    check_group(input, b0, nimg, g, ld, "im2col");
    const Staging s(g, nimg);
    Workspace::Scope scope;
    float* st = Workspace::local().alloc(s.floats);
    std::memset(st, 0, static_cast<size_t>(s.floats) * sizeof(float));
    stage_group(input.data() + b0 * g.in_channels * g.in_h * g.in_w, g,
                s, st);
    for_each_tap_run(g, s, false, [&](int64_t r, int64_t at, int64_t col,
                                      int64_t len) {
        copy_floats(cols + r * ld + col, st + at, len);
    });
}

Tensor
conv2d_direct(const Tensor& input, const Tensor& weight,
              const Tensor& bias, const ConvGeometry& g)
{
    INSITU_CHECK(input.rank() == 4 && weight.rank() == 4 &&
                     bias.rank() == 1,
                 "conv2d_direct shape ranks");
    const int64_t batch = input.dim(0);
    const int64_t m = weight.dim(0);
    INSITU_CHECK(input.dim(1) == g.in_channels &&
                     weight.dim(1) == g.in_channels &&
                     weight.dim(2) == g.kernel &&
                     weight.dim(3) == g.kernel && bias.dim(0) == m,
                 "conv2d_direct geometry mismatch");
    const int64_t oh = g.out_h(), ow = g.out_w();
    Tensor out = Tensor::uninitialized({batch, m, oh, ow});
    const float* in = input.data();
    const float* w = weight.data();
    const float* pb = bias.data();
    float* po = out.data();
    // The Fig. 9 loop nest: output maps, input maps, spatial, kernel.
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t f = 0; f < m; ++f) {
            float* plane = po + (b * m + f) * oh * ow;
            for (int64_t i = 0; i < oh * ow; ++i) plane[i] = pb[f];
            for (int64_t c = 0; c < g.in_channels; ++c) {
                const float* src =
                    in + (b * g.in_channels + c) * g.in_h * g.in_w;
                const float* kern =
                    w + (f * g.in_channels + c) * g.kernel * g.kernel;
                for (int64_t y = 0; y < oh; ++y) {
                    for (int64_t x = 0; x < ow; ++x) {
                        float acc = 0.0f;
                        for (int64_t ky = 0; ky < g.kernel; ++ky) {
                            const int64_t iy =
                                y * g.stride + ky - g.pad;
                            if (iy < 0 || iy >= g.in_h) continue;
                            for (int64_t kx = 0; kx < g.kernel;
                                 ++kx) {
                                const int64_t ix =
                                    x * g.stride + kx - g.pad;
                                if (ix < 0 || ix >= g.in_w) continue;
                                acc += src[iy * g.in_w + ix] *
                                       kern[ky * g.kernel + kx];
                            }
                        }
                        plane[y * ow + x] += acc;
                    }
                }
            }
        }
    }
    return out;
}

void
col2im_accumulate(const Tensor& cols, Tensor& grad_input,
                  int64_t batch_index, const ConvGeometry& g)
{
    const int64_t oh = g.out_h(), ow = g.out_w();
    INSITU_CHECK(cols.rank() == 2 &&
                     cols.dim(0) == g.in_channels * g.kernel * g.kernel &&
                     cols.dim(1) == oh * ow,
                 "col2im cols shape mismatch");
    col2im_accumulate(cols.data(), grad_input, batch_index, 1, g,
                      oh * ow);
}

void
col2im_accumulate(const float* cols, Tensor& grad_input, int64_t b0,
                  int64_t nimg, const ConvGeometry& g, int64_t ld)
{
    check_group(grad_input, b0, nimg, g, ld, "col2im");
    // The staging buffer starts as the group's gradient, so each
    // element adds its terms onto its own value in ascending
    // (c, ky, kx, y, x) order; the terms that would land on the border
    // are skipped.
    const Staging s(g, nimg);
    Workspace::Scope scope;
    float* st = Workspace::local().alloc(s.floats);
    float* grad =
        grad_input.data() + b0 * g.in_channels * g.in_h * g.in_w;
    stage_group(grad, g, s, st);
    for_each_tap_run(g, s, true, [&](int64_t r, int64_t at, int64_t col,
                                     int64_t len) {
        add_floats(st + at, cols + r * ld + col, len);
    });
    unstage_group(st, g, s, grad);
}

} // namespace insitu
