#include "nn/pooling.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <limits>
#include <sstream>
#include <type_traits>
#include <vector>

#include "tensor/gemm.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace insitu {

namespace {

void
check_pool_input(const Tensor& input, int64_t kernel, int64_t stride)
{
    INSITU_CHECK(input.rank() == 4, "pool expects NCHW input");
    INSITU_CHECK(input.dim(2) >= kernel && input.dim(3) >= kernel,
                 "pool window larger than input");
    INSITU_CHECK(stride > 0 && kernel > 0, "invalid pool config");
}

int64_t
pool_out(int64_t in, int64_t kernel, int64_t stride)
{
    return (in - kernel) / stride + 1;
}

} // namespace

MaxPool2d::MaxPool2d(std::string name, int64_t kernel, int64_t stride)
    : kernel_(kernel), stride_(stride)
{
    set_name(std::move(name));
}

Tensor
MaxPool2d::forward(const Tensor& input, bool training)
{
    check_pool_input(input, kernel_, stride_);
    const int64_t batch = input.dim(0), ch = input.dim(1);
    const int64_t ih = input.dim(2), iw = input.dim(3);
    const int64_t oh = pool_out(ih, kernel_, stride_);
    const int64_t ow = pool_out(iw, kernel_, stride_);
    Tensor out = Tensor::uninitialized({batch, ch, oh, ow});
    // The argmax is backward state: an eval forward neither computes
    // nor keeps it, so a backward after it fails the before-forward
    // check.
    if (training) {
        cached_in_shape_ = input.shape();
        argmax_.resize(static_cast<size_t>(out.numel()));
    } else {
        drop_state();
    }
    const float* in = input.data();
    float* po = out.data();
    int32_t* am = argmax_.data();
    // Plane offset of each output's window origin, shared by all planes.
    const int64_t per_plane = oh * ow;
    std::vector<int32_t> origin(static_cast<size_t>(per_plane));
    for (int64_t q = 0; q < per_plane; ++q)
        origin[static_cast<size_t>(q)] = static_cast<int32_t>(
            (q / ow) * stride_ * iw + (q % ow) * stride_);
    const int32_t* org = origin.data();
    // Plane-parallel: each (batch, channel) plane owns its output and
    // argmax slice. Chunks carry several planes when planes are small.
    // Every window is scanned with selects, not branches: the strict >
    // keeps the first maximum and never picks NaN, and a window with
    // nothing above -inf (all NaN or all -Inf) keeps its own first
    // element, so backward routes its gradient inside the window.
    // maxps and cmpgtps apply that
    // select to four windows at once; the last few go one by one.
    auto pool_planes = [&](auto with_argmax) {
        parallel_for(0, batch * ch,
                     flops_grain(kernel_ * kernel_ * per_plane),
                     [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; ++p) {
                const float* plane = in + p * ih * iw;
                float* pout = po + p * per_plane;
                [[maybe_unused]] int32_t* pam =
                    with_argmax ? am + p * per_plane : nullptr;
                int64_t q = 0;
#if defined(__SSE2__)
                for (; q + 4 <= per_plane; q += 4) {
                    const int32_t* o = org + q;
                    __m128 best = _mm_set1_ps(
                        -std::numeric_limits<float>::infinity());
                    [[maybe_unused]] __m128i best_idx =
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(o));
                    for (int64_t ky = 0; ky < kernel_; ++ky) {
                        for (int64_t kx = 0; kx < kernel_; ++kx) {
                            const int64_t off = ky * iw + kx;
                            const __m128 v = _mm_setr_ps(
                                plane[o[0] + off], plane[o[1] + off],
                                plane[o[2] + off], plane[o[3] + off]);
                            if constexpr (with_argmax) {
                                const __m128i gt = _mm_castps_si128(
                                    _mm_cmpgt_ps(v, best));
                                const __m128i idx = _mm_add_epi32(
                                    _mm_loadu_si128(
                                        reinterpret_cast<const __m128i*>(
                                            o)),
                                    _mm_set1_epi32(
                                        static_cast<int32_t>(off)));
                                best_idx = _mm_or_si128(
                                    _mm_and_si128(gt, idx),
                                    _mm_andnot_si128(gt, best_idx));
                            }
                            best = _mm_max_ps(v, best);
                        }
                    }
                    _mm_storeu_ps(pout + q, best);
                    if constexpr (with_argmax)
                        _mm_storeu_si128(
                            reinterpret_cast<__m128i*>(pam + q),
                            best_idx);
                }
#endif
                for (; q < per_plane; ++q) {
                    float best = -std::numeric_limits<float>::infinity();
                    [[maybe_unused]] int64_t best_idx = org[q];
                    for (int64_t ky = 0; ky < kernel_; ++ky) {
                        for (int64_t kx = 0; kx < kernel_; ++kx) {
                            const int64_t idx = org[q] + ky * iw + kx;
                            const float v = plane[idx];
                            if constexpr (with_argmax)
                                best_idx = v > best ? idx : best_idx;
                            best = v > best ? v : best;
                        }
                    }
                    pout[q] = best;
                    if constexpr (with_argmax)
                        pam[q] = static_cast<int32_t>(best_idx);
                }
            }
        });
    };
    if (training)
        pool_planes(std::true_type{});
    else
        pool_planes(std::false_type{});
    return out;
}

void
MaxPool2d::drop_state()
{
    cached_in_shape_.clear();
    argmax_.clear();
}

Tensor
MaxPool2d::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_in_shape_.empty(),
                 "maxpool backward before forward");
    Tensor grad_input(cached_in_shape_);
    const int64_t batch = cached_in_shape_[0], ch = cached_in_shape_[1];
    const int64_t ih = cached_in_shape_[2], iw = cached_in_shape_[3];
    const int64_t per_plane_out =
        grad_output.numel() / std::max<int64_t>(batch * ch, 1);
    INSITU_CHECK(static_cast<size_t>(grad_output.numel()) ==
                     argmax_.size(),
                 "maxpool grad_output shape mismatch");
    const float* go = grad_output.data();
    float* gi = grad_input.data();
    parallel_for(0, batch * ch,
                 flops_grain(kernel_ * kernel_ * per_plane_out),
                 [&](int64_t p0, int64_t p1) {
        for (int64_t p = p0; p < p1; ++p) {
            float* plane = gi + p * ih * iw;
            int64_t oi = p * per_plane_out;
            for (int64_t i = 0; i < per_plane_out; ++i, ++oi)
                plane[argmax_[static_cast<size_t>(oi)]] += go[oi];
        }
    });
    return grad_input;
}

std::string
MaxPool2d::describe() const
{
    std::ostringstream oss;
    oss << "maxpool k" << kernel_ << " s" << stride_;
    return oss.str();
}

} // namespace insitu
