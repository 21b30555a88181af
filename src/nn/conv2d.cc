#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {

// The forward and backward below call the raw `gemm()`/`gemm_acc()`
// entry points (outputs go straight into layer tensors / workspace
// scratch, skipping the Tensor-level wrappers), so they tally the
// `tensor.matmul*` counters themselves — the totals stay exactly what
// the wrappers would have recorded, and `tensor.matmul.flops` remains
// the analytic 2·m·k·n per product.

Conv2d::Conv2d(std::string name, int64_t in_channels,
               int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t pad, Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels),
      kernel_(kernel), stride_(stride), pad_(pad)
{
    INSITU_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                     stride > 0 && pad >= 0,
                 "invalid conv config");
    set_name(std::move(name));
    weight_ = std::make_shared<Parameter>(
        name_ + ".weight",
        std::vector<int64_t>{out_channels, in_channels, kernel, kernel});
    bias_ = std::make_shared<Parameter>(name_ + ".bias",
                                        std::vector<int64_t>{out_channels});
    const float bound = std::sqrt(
        6.0f / static_cast<float>(in_channels * kernel * kernel));
    weight_->value().fill_uniform(rng, -bound, bound);
}

ConvGeometry
Conv2d::geometry(const Tensor& input) const
{
    INSITU_CHECK(input.rank() == 4, "conv expects NCHW input");
    INSITU_CHECK(input.dim(1) == in_channels_, "conv ", name_,
                 ": input channels ", input.dim(1), " != ",
                 in_channels_);
    ConvGeometry g;
    g.in_channels = in_channels_;
    g.in_h = input.dim(2);
    g.in_w = input.dim(3);
    g.kernel = kernel_;
    g.stride = stride_;
    g.pad = pad_;
    return g;
}

Tensor
Conv2d::forward(const Tensor& input, bool training)
{
    Tensor output = forward_fused(input, ConvEpilogue::kBias);
    // Only backward reads the cached input; an eval forward keeps
    // none, so a backward after it fails the before-forward check.
    if (training) cached_input_ = input;
    return output;
}

namespace {

/**
 * Where a group's scatter reads and writes: the conv's output map
 * (oh, ow), the epilogue's output plane (ph, pw), and for each plane
 * position q the map position of its value or of its pool window's
 * top-left corner. The pool keeps each 2x2 window at stride 2 and
 * drops an odd last row and column, as `MaxPool2d(2, 2)` does.
 */
struct ScatterPlan {
    int64_t oh, ow, ph, pw;
    std::vector<int64_t> origin;
};

ScatterPlan
scatter_plan(int64_t oh, int64_t ow, bool pool)
{
    const int64_t step = pool ? 2 : 1;
    ScatterPlan plan{oh, ow, oh / step, ow / step, {}};
    plan.origin.reserve(static_cast<size_t>(plan.ph * plan.pw));
    for (int64_t y = 0; y < plan.ph; ++y)
        for (int64_t x = 0; x < plan.pw; ++x)
            plan.origin.push_back(y * step * ow + x * step);
    return plan;
}

/** One value's bias add, then E's ReLU: x > 0 ? x : +0, as
 *  `ReLU::forward` computes it (NaN and -0 give +0). */
template <ConvEpilogue E>
float
act(float v, float bias)
{
    v += bias;
    return E == ConvEpilogue::kBias || v > 0.0f ? v : 0.0f;
}

float
max_of(float a, float b)
{
    return std::max(a, b);
}

#if defined(__SSE2__)
/** The same on four lanes: maxps returns its second operand unless
 *  the first is greater. */
template <ConvEpilogue E>
__m128
act(const float* p, __m128 bias)
{
    const __m128 v = _mm_add_ps(_mm_loadu_ps(p), bias);
    return E == ConvEpilogue::kBias ? v : _mm_max_ps(v, _mm_setzero_ps());
}

__m128
max_of(__m128 a, __m128 b)
{
    return _mm_max_ps(a, b);
}
#endif

/**
 * Scatter one group's GEMM output om[m][p*nimg + i] (positions major,
 * images minor) to the NCHW slices at @p dst, one image every
 * @p img_stride floats, adding each filter's bias after the full
 * k-sum and applying epilogue E. A pool's inputs are ReLU outputs,
 * non-NaN and >= +0, so their max is the same bits in any order.
 * A lone image's positions are contiguous and go four at a time
 * through SSE lanes; without the pool it may be scattered in place
 * (om == dst). In a larger group four images at a time share the
 * lanes, and a 4x4 transpose turns four positions of four images
 * into four contiguous stores; the rest go one by one.
 */
template <ConvEpilogue E>
void
scatter_group(const float* om, int64_t nimg, int64_t filters,
              const ScatterPlan& plan, const float* bias, float* dst,
              int64_t img_stride)
{
    constexpr bool pool = E == ConvEpilogue::kReluPool2x2;
    const int64_t ow = plan.ow, pw = plan.pw, plane = plan.ph * pw;
    const int64_t ncols = nimg * plan.oh * ow;
    const int64_t* origin = plan.origin.data();
    // v, or for a pool the max of v and the other three values of
    // its window; at(d) is the value d columns of om past v's.
    auto window = [&](auto v, auto at) {
        if constexpr (pool)
            return max_of(max_of(v, at(nimg)),
                          max_of(at(ow * nimg), at((ow + 1) * nimg)));
        else
            return v;
    };
    int64_t i = 0;
#if defined(__SSE2__)
    if (nimg == 1) {
        for (int64_t m = 0; m < filters; ++m) {
            const __m128 b = _mm_set1_ps(bias[m]);
            const float* src = om + m * ncols;
            float* out = dst + m * plane;
            if constexpr (!pool) {
                int64_t p = 0;
                for (; p + 4 <= plane; p += 4)
                    _mm_storeu_ps(out + p, act<E>(src + p, b));
                for (; p < plane; ++p) out[p] = act<E>(src[p], bias[m]);
            } else {
                for (int64_t y = 0; y < plan.ph; ++y) {
                    const float* r0 = src + 2 * y * ow;
                    const float* r1 = r0 + ow;
                    float* o = out + y * pw;
                    int64_t x = 0;
                    // Eight map columns of two rows make four windows:
                    // max the rows, then even lanes with odd ones.
                    for (; x + 4 <= pw; x += 4) {
                        const __m128 lo = max_of(act<E>(r0 + 2 * x, b),
                                                 act<E>(r1 + 2 * x, b));
                        const __m128 hi =
                            max_of(act<E>(r0 + 2 * x + 4, b),
                                   act<E>(r1 + 2 * x + 4, b));
                        _mm_storeu_ps(
                            o + x,
                            max_of(_mm_shuffle_ps(lo, hi,
                                                  _MM_SHUFFLE(2, 0, 2, 0)),
                                   _mm_shuffle_ps(lo, hi,
                                                  _MM_SHUFFLE(3, 1, 3, 1))));
                    }
                    for (; x < pw; ++x) {
                        const float* s = r0 + 2 * x;
                        o[x] = window(act<E>(s[0], bias[m]),
                                      [&](int64_t d) {
                                          return act<E>(s[d], bias[m]);
                                      });
                    }
                }
            }
        }
        return;
    }
    for (; i + 4 <= nimg; i += 4) {
        for (int64_t m = 0; m < filters; ++m) {
            const __m128 b = _mm_set1_ps(bias[m]);
            const float* src = om + m * ncols + i;
            float* out = dst + i * img_stride + m * plane;
            auto lanes = [&](int64_t q) {
                const float* s = src + origin[q] * nimg;
                return window(act<E>(s, b),
                              [&](int64_t d) { return act<E>(s + d, b); });
            };
            int64_t q = 0;
            for (; q + 4 <= plane; q += 4) {
                __m128 v0 = lanes(q), v1 = lanes(q + 1);
                __m128 v2 = lanes(q + 2), v3 = lanes(q + 3);
                _MM_TRANSPOSE4_PS(v0, v1, v2, v3);
                _mm_storeu_ps(out + q, v0);
                _mm_storeu_ps(out + img_stride + q, v1);
                _mm_storeu_ps(out + 2 * img_stride + q, v2);
                _mm_storeu_ps(out + 3 * img_stride + q, v3);
            }
            for (; q < plane; ++q) {
                alignas(16) float lane[4];
                _mm_store_ps(lane, lanes(q));
                for (int64_t l = 0; l < 4; ++l)
                    out[l * img_stride + q] = lane[l];
            }
        }
    }
#endif
    for (; i < nimg; ++i) {
        for (int64_t m = 0; m < filters; ++m) {
            const float* src = om + m * ncols + i;
            float* out = dst + i * img_stride + m * plane;
            for (int64_t q = 0; q < plane; ++q) {
                const float* s = src + origin[q] * nimg;
                out[q] = window(act<E>(s[0], bias[m]), [&](int64_t d) {
                    return act<E>(s[d], bias[m]);
                });
            }
        }
    }
}

} // namespace

Tensor
Conv2d::forward_fused(const Tensor& input, ConvEpilogue epilogue)
{
    cached_input_ = Tensor();
    const ConvGeometry g = geometry(input);
    const int64_t batch = input.dim(0);
    const int64_t oh = g.out_h(), ow = g.out_w();
    const bool pool = epilogue == ConvEpilogue::kReluPool2x2;
    INSITU_CHECK(!pool || (oh >= 2 && ow >= 2),
                 "pool window larger than input");

    const int64_t ckk = in_channels_ * kernel_ * kernel_;
    const int64_t ohw = oh * ow;
    const ScatterPlan plan = scatter_plan(oh, ow, pool);
    // The filter matrix Fm (M, N*K*K) is the weight tensor's own
    // storage viewed flat — no reshape copy.
    const float* fm = weight_->value().data();
    const float* pb = bias_->value().data();
    Tensor output =
        Tensor::uninitialized({batch, out_channels_, plan.ph, plan.pw});
    float* po = output.data();
    const GemmBackend be = gemm_backend();
    static auto& mm_calls = obs::MetricsRegistry::global().counter(
        "tensor.matmul.calls");
    static auto& mm_flops = obs::MetricsRegistry::global().counter(
        "tensor.matmul.flops");
    auto scatter = [&](const float* om, int64_t nimg, float* dst) {
        const int64_t stride = out_channels_ * plan.ph * plan.pw;
        switch (epilogue) {
        case ConvEpilogue::kBias:
            return scatter_group<ConvEpilogue::kBias>(
                om, nimg, out_channels_, plan, pb, dst, stride);
        case ConvEpilogue::kRelu:
            return scatter_group<ConvEpilogue::kRelu>(
                om, nimg, out_channels_, plan, pb, dst, stride);
        case ConvEpilogue::kReluPool2x2:
            return scatter_group<ConvEpilogue::kReluPool2x2>(
                om, nimg, out_channels_, plan, pb, dst, stride);
        }
    };
    // One GEMM per group of images lowered together, so small feature
    // maps fill whole register tiles and Fm is packed once per group.
    // The group size depends only on shape. Each C element still sums
    // its k-products in ascending k with the same KC split whatever
    // the GEMM's width, so the output is bit-identical to one GEMM per
    // image. Groups are parallel: each owns its output slices (the
    // nested GEMM runs inline inside a pool worker), and its scratch
    // lives in the executing thread's workspace arena.
    const int64_t group = std::max<int64_t>(
        1, std::min(batch, (kGroupCols + ohw - 1) / ohw));
    const int64_t ngroups = (batch + group - 1) / group;
    parallel_for(0, ngroups, 1, [&](int64_t g0, int64_t g1) {
        for (int64_t gi = g0; gi < g1; ++gi) {
            const int64_t b0 = gi * group;
            const int64_t nimg = std::min(group, batch - b0);
            const int64_t ncols = nimg * ohw;
            Workspace::Scope scope;
            // Dm: (NK^2, R*C*G), column p*G + i for image i's
            // position p.
            float* cols = Workspace::local().alloc(ckk * ncols);
            im2col_group(input, b0, nimg, g, cols, ncols);
            mm_calls.add(1);
            mm_flops.add(2 * out_channels_ * ckk * ncols);
            // Om = Fm * Dm. A lone image's (M, R*C) product already
            // has the unpooled output slice's layout, so it is written
            // there and the scatter finishes it in place.
            float* dst = po + b0 * out_channels_ * plan.ph * plan.pw;
            float* om = nimg == 1 && !pool
                            ? dst
                            : Workspace::local().alloc(out_channels_ *
                                                       ncols);
            gemm(out_channels_, ncols, ckk, fm, ckk, 1, cols, ncols, 1,
                 om, be);
            scatter(om, nimg, dst);
        }
    });
    return output;
}

Tensor
Conv2d::backward(const Tensor& grad_output)
{
    Tensor grad_input;
    accumulate_grads(grad_output, &grad_input);
    return grad_input;
}

void
Conv2d::backward_params(const Tensor& grad_output)
{
    accumulate_grads(grad_output, nullptr);
}

void
Conv2d::accumulate_grads(const Tensor& grad_output, Tensor* grad_input)
{
    INSITU_CHECK(!cached_input_.empty(),
                 "conv backward before forward");
    const ConvGeometry g = geometry(cached_input_);
    const int64_t batch = cached_input_.dim(0);
    const int64_t oh = g.out_h(), ow = g.out_w();
    INSITU_CHECK(grad_output.rank() == 4 &&
                     grad_output.dim(0) == batch &&
                     grad_output.dim(1) == out_channels_ &&
                     grad_output.dim(2) == oh &&
                     grad_output.dim(3) == ow,
                 "conv grad_output shape mismatch");

    const int64_t ckk = in_channels_ * kernel_ * kernel_;
    const int64_t ohw = oh * ow;
    const int64_t ld = batch * ohw;
    const float* fm = weight_->value().data(); // Fm: (M, N*K*K) flat
    const float* go = grad_output.data();
    float* gw = weight_->grad().data(); // (M, N*K*K) flat, like Fm
    float* gb = bias_->grad().data();
    const GemmBackend be = gemm_backend();
    auto& reg = obs::MetricsRegistry::global();
    static auto& ta_calls = reg.counter("tensor.matmul_ta.calls");
    static auto& ta_flops = reg.counter("tensor.matmul_ta.flops");
    static auto& tb_calls = reg.counter("tensor.matmul_tb.calls");
    static auto& tb_flops = reg.counter("tensor.matmul_tb.flops");
    if (grad_input != nullptr)
        *grad_input = Tensor({batch, in_channels_, g.in_h, g.in_w});

    // Pass 1, parallel over the forward's image groups: lower each
    // group into its columns of one (N*K*K, B*R*C) matrix Dm, group
    // gi's block starting at column b0*R*C and laid out as the
    // forward's, and, when dX is wanted, form the group's column
    // gradients dL/dDm = Fm^T * dL/dOm with one GEMM over the group
    // (each column keeps its k-sum order, so this is the per-image
    // product) and scatter them back with col2im. Each group owns its
    // Dm columns and grad_input slices.
    Workspace::Scope scope;
    float* cols = Workspace::local().alloc(ckk * ld);
    const int64_t group = std::max<int64_t>(
        1, std::min(batch, (kGroupCols + ohw - 1) / ohw));
    const int64_t ngroups = (batch + group - 1) / group;
    parallel_for(0, ngroups, 1, [&](int64_t g0, int64_t g1) {
        for (int64_t gi = g0; gi < g1; ++gi) {
            const int64_t b0 = gi * group;
            const int64_t nimg = std::min(group, batch - b0);
            im2col_group(cached_input_, b0, nimg, g, cols + b0 * ohw,
                         ld);
            if (grad_input == nullptr) continue;
            const int64_t ncols = nimg * ohw;
            Workspace::Scope group_scope;
            // A lone image's (M, R*C) gradient is already its row
            // slice of grad_output; a group's is gathered into Dm's
            // column order.
            const float* gom = go + b0 * out_channels_ * ohw;
            if (nimg > 1) {
                float* gathered =
                    Workspace::local().alloc(out_channels_ * ncols);
                for (int64_t m = 0; m < out_channels_; ++m)
                    for (int64_t p = 0; p < ohw; ++p)
                        for (int64_t i = 0; i < nimg; ++i)
                            gathered[m * ncols + p * nimg + i] =
                                gom[(i * out_channels_ + m) * ohw + p];
                gom = gathered;
            }
            ta_calls.add(1);
            ta_flops.add(2 * ckk * out_channels_ * ncols);
            float* gcols = Workspace::local().alloc(ckk * ncols);
            gemm(ckk, ncols, out_channels_, fm, 1, ckk, gom, ncols, 1,
                 gcols, be);
            col2im_accumulate(gcols, *grad_input, b0, nimg, g, ncols);
        }
    });

    // Pass 2: each image's dL/dFm = dL/dOm * Dm^T product is added
    // straight into the weight grad, image by image in batch order —
    // the per-image partials folded in batch order, without holding
    // them. Within a group, image i's Dm^T column p sits at
    // b0*R*C + p*G + i, which gemm_acc reads as B groups of G. The
    // bias grads (each image's spatial sums) follow in the same order,
    // parallel over filters.
    tb_calls.add(batch);
    tb_flops.add(2 * out_channels_ * ohw * ckk * batch);
    gemm_acc(batch, out_channels_, ckk, ohw, go, ohw, 1,
             out_channels_ * ohw, cols, 1, ld, ohw, gw, ckk, be, group);
    parallel_for(0, out_channels_, flops_grain(batch * ohw),
                 [&](int64_t m0, int64_t m1) {
        for (int64_t m = m0; m < m1; ++m)
            for (int64_t b = 0; b < batch; ++b) {
                const float* row = go + (b * out_channels_ + m) * ohw;
                float acc = 0.0f;
                for (int64_t i = 0; i < ohw; ++i) acc += row[i];
                gb[m] += acc;
            }
    });
}

std::vector<ParameterPtr>
Conv2d::params()
{
    return {weight_, bias_};
}

void
Conv2d::set_param(size_t i, ParameterPtr p)
{
    INSITU_CHECK(p != nullptr, "null parameter");
    if (i == 0) {
        INSITU_CHECK(p->value().same_shape(weight_->value()),
                     "conv weight shape mismatch in set_param");
        weight_ = std::move(p);
    } else if (i == 1) {
        INSITU_CHECK(p->value().same_shape(bias_->value()),
                     "conv bias shape mismatch in set_param");
        bias_ = std::move(p);
    } else {
        panic("conv has two parameter slots");
    }
}

std::string
Conv2d::describe() const
{
    std::ostringstream oss;
    oss << "conv " << in_channels_ << "->" << out_channels_ << " k"
        << kernel_ << " s" << stride_ << " p" << pad_;
    return oss.str();
}

} // namespace insitu
