#include "nn/activations.h"

#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/logging.h"

namespace insitu {

namespace {

/** Backward's per-element factor, indexed by the mask byte. */
constexpr float kPass[2] = {0.0f, 1.0f};

} // namespace

Tensor
ReLU::forward(const Tensor& input, bool training)
{
    Tensor out = Tensor::uninitialized(input.shape());
    const float* pi = input.data();
    float* po = out.data();
    const int64_t n = input.numel();
    // x > 0 ? x : +0 with no branch on x. maxps returns its second
    // operand unless the first is greater, so NaN and -0 give +0.
    int64_t i = 0;
#if defined(__SSE2__)
    const __m128 zero = _mm_setzero_ps();
    for (; i + 4 <= n; i += 4)
        _mm_storeu_ps(po + i, _mm_max_ps(_mm_loadu_ps(pi + i), zero));
    for (; i < n; ++i)
        _mm_store_ss(po + i, _mm_max_ss(_mm_load_ss(pi + i), zero));
#else
    for (; i < n; ++i) po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
#endif
    // The 0/1 byte mask is backward state: an eval forward keeps none,
    // so a backward after it fails the before-forward check.
    if (!training) {
        mask_shape_.clear();
        mask_ = std::vector<uint8_t>();
        return out;
    }
    mask_shape_ = input.shape();
    mask_.resize(static_cast<size_t>(n));
    uint8_t* pm = mask_.data();
    i = 0;
#if defined(__SSE2__)
    // Sixteen x > 0 lane masks (all ones or zero) narrowed to bytes.
    auto gt = [&](int64_t at) {
        return _mm_castps_si128(_mm_cmpgt_ps(_mm_loadu_ps(pi + at), zero));
    };
    const __m128i one = _mm_set1_epi8(1);
    for (; i + 16 <= n; i += 16) {
        const __m128i lo = _mm_packs_epi32(gt(i), gt(i + 4));
        const __m128i hi = _mm_packs_epi32(gt(i + 8), gt(i + 12));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(pm + i),
                         _mm_and_si128(_mm_packs_epi16(lo, hi), one));
    }
#endif
    for (; i < n; ++i) pm[i] = pi[i] > 0.0f;
    return out;
}

Tensor
ReLU::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!mask_.empty(), "relu backward before forward");
    INSITU_CHECK(grad_output.shape() == mask_shape_,
                 "relu backward shape mismatch");
    // Multiply by 0, not store +0: a masked negative gradient becomes
    // -0 and a masked NaN stays NaN, as every trained model's bits
    // assume.
    Tensor out = Tensor::uninitialized(grad_output.shape());
    const float* pg = grad_output.data();
    float* po = out.data();
    const uint8_t* pm = mask_.data();
    const int64_t n = out.numel();
    int64_t i = 0;
#if defined(__SSE2__)
    const __m128i zero = _mm_setzero_si128();
    for (; i + 4 <= n; i += 4) {
        int32_t bytes;
        std::memcpy(&bytes, pm + i, sizeof bytes);
        const __m128i m = _mm_unpacklo_epi16(
            _mm_unpacklo_epi8(_mm_cvtsi32_si128(bytes), zero), zero);
        _mm_storeu_ps(po + i, _mm_mul_ps(_mm_loadu_ps(pg + i),
                                         _mm_cvtepi32_ps(m)));
    }
#endif
    for (; i < n; ++i) po[i] = pg[i] * kPass[pm[i]];
    return out;
}

Tensor
Flatten::forward(const Tensor& input, bool /*training*/)
{
    INSITU_CHECK(input.rank() >= 2, "flatten needs rank >= 2");
    cached_shape_ = input.shape();
    return input.reshape({input.dim(0), -1});
}

Tensor
Flatten::backward(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_shape_.empty(),
                 "flatten backward before forward");
    return grad_output.reshape(cached_shape_);
}

} // namespace insitu
