#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {

namespace {

/// Elements per parallel chunk for elementwise loops. Small tensors
/// fall out as a single chunk and run inline.
constexpr int64_t kElemGrain = 1 << 15;

int64_t
shape_numel(const std::vector<int64_t>& shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        INSITU_CHECK(d >= 0, "negative dimension in shape");
        n *= d;
    }
    return n;
}

} // namespace

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_))
{
    data_.assign(static_cast<size_t>(numel_), 0.0f);
}

Tensor::Tensor(std::vector<int64_t> shape, float value)
    : shape_(std::move(shape)), numel_(shape_numel(shape_))
{
    data_.assign(static_cast<size_t>(numel_), value);
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), numel_(shape_numel(shape_))
{
    INSITU_CHECK(static_cast<int64_t>(data.size()) == numel_,
                 "data size ", data.size(), " != shape numel ", numel_);
    data_.resize(static_cast<size_t>(numel_)); // uninitialized
    if (numel_ > 0)
        std::memcpy(data_.data(), data.data(),
                    static_cast<size_t>(numel_) * sizeof(float));
}

Tensor::Tensor(UninitTag, std::vector<int64_t> shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_))
{
    // resize() default-inserts, which AlignedUninitAlloc leaves
    // uninitialized — allocation without the zero-fill.
    data_.resize(static_cast<size_t>(numel_));
}

Tensor
Tensor::uninitialized(std::vector<int64_t> shape)
{
    return Tensor(UninitTag{}, std::move(shape));
}

int64_t
Tensor::dim(int64_t d) const
{
    if (d < 0) d += rank();
    INSITU_CHECK(d >= 0 && d < rank(), "dim index out of range");
    return shape_[static_cast<size_t>(d)];
}

void
Tensor::check_rank(int64_t want) const
{
    INSITU_CHECK(rank() == want, "expected rank ", want, ", have ",
                 rank());
}

float&
Tensor::at(int64_t i)
{
    INSITU_CHECK(i >= 0 && i < numel_, "flat index out of range");
    return data_[static_cast<size_t>(i)];
}

float
Tensor::at(int64_t i) const
{
    INSITU_CHECK(i >= 0 && i < numel_, "flat index out of range");
    return data_[static_cast<size_t>(i)];
}

float&
Tensor::at(int64_t r, int64_t c)
{
    check_rank(2);
    INSITU_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
                 "2d index out of range");
    return data_[static_cast<size_t>(r * shape_[1] + c)];
}

float
Tensor::at(int64_t r, int64_t c) const
{
    return const_cast<Tensor*>(this)->at(r, c);
}

float&
Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w)
{
    check_rank(4);
    INSITU_CHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] &&
                     h >= 0 && h < shape_[2] && w >= 0 && w < shape_[3],
                 "4d index out of range");
    const int64_t idx =
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    return data_[static_cast<size_t>(idx)];
}

float
Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) const
{
    return const_cast<Tensor*>(this)->at(n, c, h, w);
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::fill_uniform(Rng& rng, float lo, float hi)
{
    for (auto& v : data_) v = rng.uniform_f(lo, hi);
}

Tensor
Tensor::reshape(std::vector<int64_t> new_shape) const
{
    int64_t known = 1;
    int64_t infer_at = -1;
    for (size_t i = 0; i < new_shape.size(); ++i) {
        if (new_shape[i] == -1) {
            INSITU_CHECK(infer_at == -1, "at most one -1 in reshape");
            infer_at = static_cast<int64_t>(i);
        } else {
            known *= new_shape[i];
        }
    }
    if (infer_at >= 0) {
        INSITU_CHECK(known > 0 && numel_ % known == 0,
                     "cannot infer reshape dimension");
        new_shape[static_cast<size_t>(infer_at)] = numel_ / known;
    }
    Tensor out(UninitTag{}, std::move(new_shape));
    INSITU_CHECK(out.numel() == numel_, "reshape changes element count");
    if (numel_ > 0)
        std::memcpy(out.data(), data_.data(),
                    static_cast<size_t>(numel_) * sizeof(float));
    return out;
}

Tensor
Tensor::slice0(int64_t begin, int64_t end) const
{
    INSITU_CHECK(rank() >= 1, "slice0 needs rank >= 1");
    INSITU_CHECK(0 <= begin && begin <= end && end <= shape_[0],
                 "slice0 range invalid");
    int64_t inner = numel_ / std::max<int64_t>(shape_[0], 1);
    std::vector<int64_t> out_shape = shape_;
    out_shape[0] = end - begin;
    Tensor out(UninitTag{}, std::move(out_shape));
    // memcpy's pointer arguments are declared nonnull; an empty
    // tensor's (or empty slice's) data() may be null, which is UB
    // even at size 0.
    if (out.numel() > 0)
        std::memcpy(out.data(),
                    data_.data() + static_cast<size_t>(begin * inner),
                    static_cast<size_t>((end - begin) * inner) *
                        sizeof(float));
    return out;
}

Tensor&
Tensor::operator+=(const Tensor& other)
{
    INSITU_CHECK(same_shape(other), "shape mismatch in +=");
    float* dst = data_.data();
    const float* src = other.data_.data();
    parallel_for(0, numel_, kElemGrain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) dst[i] += src[i];
    });
    return *this;
}

Tensor&
Tensor::operator-=(const Tensor& other)
{
    INSITU_CHECK(same_shape(other), "shape mismatch in -=");
    float* dst = data_.data();
    const float* src = other.data_.data();
    parallel_for(0, numel_, kElemGrain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) dst[i] -= src[i];
    });
    return *this;
}

Tensor&
Tensor::operator*=(float scalar)
{
    float* dst = data_.data();
    parallel_for(0, numel_, kElemGrain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) dst[i] *= scalar;
    });
    return *this;
}

double
Tensor::sum() const
{
    double acc = 0.0;
    for (float v : data_) acc += v;
    return acc;
}

double
Tensor::mean() const
{
    INSITU_CHECK(numel_ > 0, "mean of empty tensor");
    return sum() / static_cast<double>(numel_);
}

float
Tensor::min() const
{
    INSITU_CHECK(numel_ > 0, "min of empty tensor");
    return *std::min_element(data_.begin(), data_.end());
}

float
Tensor::max() const
{
    INSITU_CHECK(numel_ > 0, "max of empty tensor");
    return *std::max_element(data_.begin(), data_.end());
}

int64_t
Tensor::argmax() const
{
    INSITU_CHECK(numel_ > 0, "argmax of empty tensor");
    return static_cast<int64_t>(std::distance(
        data_.begin(), std::max_element(data_.begin(), data_.end())));
}

std::vector<int64_t>
Tensor::argmax_rows() const
{
    check_rank(2);
    std::vector<int64_t> out(static_cast<size_t>(shape_[0]));
    for (int64_t r = 0; r < shape_[0]; ++r) {
        const float* row = data_.data() + r * shape_[1];
        out[static_cast<size_t>(r)] = static_cast<int64_t>(
            std::distance(row, std::max_element(row, row + shape_[1])));
    }
    return out;
}

double
Tensor::squared_norm() const
{
    double acc = 0.0;
    for (float v : data_) acc += static_cast<double>(v) * v;
    return acc;
}

std::string
Tensor::shape_str() const
{
    std::ostringstream oss;
    oss << "f32[";
    for (size_t i = 0; i < shape_.size(); ++i) {
        if (i) oss << ", ";
        oss << shape_[i];
    }
    oss << "]";
    return oss.str();
}

Tensor
operator+(const Tensor& a, const Tensor& b)
{
    Tensor out = a;
    out += b;
    return out;
}

Tensor
operator-(const Tensor& a, const Tensor& b)
{
    Tensor out = a;
    out -= b;
    return out;
}

Tensor
operator*(const Tensor& a, float s)
{
    Tensor out = a;
    out *= s;
    return out;
}

} // namespace insitu
