#include "tensor/ops.h"

#include <algorithm>

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
    INSITU_CHECK(oh > 0 && ow > 0, "conv output would be empty");
    const float* in = input.data() +
                      batch_index * g.in_channels * g.in_h * g.in_w;
    INSITU_CHECK(col0 >= 0 && ld >= col0 + oh * ow,
                 "im2col column window outside the row stride");
    for (int64_t c = 0; c < g.in_channels; ++c) {
        for (int64_t ky = 0; ky < g.kernel; ++ky) {
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                const int64_t row =
                    (c * g.kernel + ky) * g.kernel + kx;
                float* dst = out + row * ld + col0;
                for (int64_t y = 0; y < oh; ++y) {
                    const int64_t iy = y * g.stride + ky - g.pad;
                    for (int64_t x = 0; x < ow; ++x) {
                        const int64_t ix = x * g.stride + kx - g.pad;
                        float v = 0.0f;
                        if (iy >= 0 && iy < g.in_h && ix >= 0 &&
                            ix < g.in_w) {
                            v = in[(c * g.in_h + iy) * g.in_w + ix];
                        }
                        dst[y * ow + x] = v;
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
    col2im_accumulate(cols.data(), grad_input, batch_index, g);
}

void
col2im_accumulate(const float* cols, Tensor& grad_input,
                  int64_t batch_index, const ConvGeometry& g)
{
    INSITU_CHECK(grad_input.rank() == 4, "col2im expects NCHW grad");
    const int64_t oh = g.out_h(), ow = g.out_w();
    float* out = grad_input.data() +
                 batch_index * g.in_channels * g.in_h * g.in_w;
    const float* in = cols;
    const int64_t ncols = oh * ow;
    for (int64_t c = 0; c < g.in_channels; ++c) {
        for (int64_t ky = 0; ky < g.kernel; ++ky) {
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
                const int64_t row =
                    (c * g.kernel + ky) * g.kernel + kx;
                const float* src = in + row * ncols;
                for (int64_t y = 0; y < oh; ++y) {
                    const int64_t iy = y * g.stride + ky - g.pad;
                    if (iy < 0 || iy >= g.in_h) continue;
                    for (int64_t x = 0; x < ow; ++x) {
                        const int64_t ix = x * g.stride + kx - g.pad;
                        if (ix < 0 || ix >= g.in_w) continue;
                        out[(c * g.in_h + iy) * g.in_w + ix] +=
                            src[y * ow + x];
                    }
                }
            }
        }
    }
}

} // namespace insitu
