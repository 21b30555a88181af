#include "tensor/ops.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "tensor/gemm.h"
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

/** Output positions [lo, hi) along one axis that read inside the map. */
struct InBounds {
    int64_t lo, hi;
};

/**
 * Per kernel tap k, the outputs o in [0, out) whose input coordinate
 * o * stride + k - pad lies in [0, in). Computed once per call, so the
 * lowering loops never test a coordinate.
 */
std::vector<InBounds>
in_bounds(int64_t in, int64_t out, const ConvGeometry& g)
{
    std::vector<InBounds> spans(static_cast<size_t>(g.kernel));
    for (int64_t k = 0; k < g.kernel; ++k) {
        const int64_t off = k - g.pad;
        const int64_t lo =
            off >= 0 ? 0 : (g.stride - 1 - off) / g.stride;
        const int64_t hi =
            in - off <= 0 ? 0 : (in - off + g.stride - 1) / g.stride;
        const int64_t end = std::min(hi, out);
        spans[static_cast<size_t>(k)] = {std::min(lo, end), end};
    }
    return spans;
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
    im2col_into(input, batch_index, g, cols.data(), cols.dim(1), 0);
    return cols;
}

void
im2col_into(const Tensor& input, int64_t batch_index,
            const ConvGeometry& g, float* out, int64_t ld,
            int64_t col0)
{
    INSITU_CHECK(input.rank() == 4, "im2col expects NCHW input");
    INSITU_CHECK(input.dim(1) == g.in_channels &&
                     input.dim(2) == g.in_h && input.dim(3) == g.in_w,
                 "im2col geometry mismatch");
    INSITU_CHECK(batch_index >= 0 && batch_index < input.dim(0),
                 "im2col batch index");
    const int64_t oh = g.out_h(), ow = g.out_w();
    const float* in = input.data() +
                      batch_index * g.in_channels * g.in_h * g.in_w;
    INSITU_CHECK(col0 >= 0 && ld >= col0 + oh * ow,
                 "im2col column window outside the row stride");
    // Per tap (c, ky, kx), outputs outside the in-bounds rectangle
    // read padding: a tap that has any gets its block zeroed first,
    // then the rectangle is copied row by row.
    const std::vector<InBounds> yspans = in_bounds(g.in_h, oh, g);
    const std::vector<InBounds> xspans = in_bounds(g.in_w, ow, g);
    for (int64_t c = 0; c < g.in_channels; ++c) {
        const float* plane = in + c * g.in_h * g.in_w;
        for (int64_t ky = 0; ky < g.kernel; ++ky) {
            const InBounds ys = yspans[static_cast<size_t>(ky)];
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                const InBounds xs = xspans[static_cast<size_t>(kx)];
                const int64_t xoff = kx - g.pad;
                const int64_t row =
                    (c * g.kernel + ky) * g.kernel + kx;
                float* dst = out + row * ld + col0;
                if (ys.hi - ys.lo < oh || xs.hi - xs.lo < ow)
                    for (int64_t i = 0; i < oh * ow; ++i) dst[i] = 0.0f;
                for (int64_t y = ys.lo; y < ys.hi; ++y) {
                    const float* src =
                        plane + (y * g.stride + ky - g.pad) * g.in_w;
                    float* d = dst + y * ow;
                    if (g.stride == 1) {
                        for (int64_t x = xs.lo; x < xs.hi; ++x)
                            d[x] = src[x + xoff];
                    } else {
                        for (int64_t x = xs.lo; x < xs.hi; ++x)
                            d[x] = src[x * g.stride + xoff];
                    }
                }
            }
        }
    }
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
    col2im_accumulate(cols.data(), grad_input, batch_index, g,
                      oh * ow, 0);
}

void
col2im_accumulate(const float* cols, Tensor& grad_input,
                  int64_t batch_index, const ConvGeometry& g, int64_t ld,
                  int64_t col0)
{
    INSITU_CHECK(grad_input.rank() == 4, "col2im expects NCHW grad");
    INSITU_CHECK(grad_input.dim(1) == g.in_channels &&
                     grad_input.dim(2) == g.in_h &&
                     grad_input.dim(3) == g.in_w,
                 "col2im geometry mismatch");
    INSITU_CHECK(batch_index >= 0 && batch_index < grad_input.dim(0),
                 "col2im batch index");
    const int64_t oh = g.out_h(), ow = g.out_w();
    INSITU_CHECK(col0 >= 0 && ld >= col0 + oh * ow,
                 "col2im column window outside the row stride");
    float* out = grad_input.data() +
                 batch_index * g.in_channels * g.in_h * g.in_w;
    // The in-bounds rectangles of im2col_into; padding is skipped.
    // The (c, ky, kx, y, x) order is ascending, so every grad_input
    // element sums its terms in one fixed order.
    const std::vector<InBounds> yspans = in_bounds(g.in_h, oh, g);
    const std::vector<InBounds> xspans = in_bounds(g.in_w, ow, g);
    for (int64_t c = 0; c < g.in_channels; ++c) {
        float* plane = out + c * g.in_h * g.in_w;
        for (int64_t ky = 0; ky < g.kernel; ++ky) {
            const InBounds ys = yspans[static_cast<size_t>(ky)];
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                const InBounds xs = xspans[static_cast<size_t>(kx)];
                const int64_t xoff = kx - g.pad;
                const int64_t row =
                    (c * g.kernel + ky) * g.kernel + kx;
                const float* src = cols + row * ld + col0;
                for (int64_t y = ys.lo; y < ys.hi; ++y) {
                    float* d =
                        plane + (y * g.stride + ky - g.pad) * g.in_w;
                    const float* s = src + y * ow;
                    if (g.stride == 1) {
                        for (int64_t x = xs.lo; x < xs.hi; ++x)
                            d[x + xoff] += s[x];
                    } else {
                        for (int64_t x = xs.lo; x < xs.hi; ++x)
                            d[x * g.stride + xoff] += s[x];
                    }
                }
            }
        }
    }
}

} // namespace insitu
