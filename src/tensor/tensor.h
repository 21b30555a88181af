/**
 * @file
 * Dense row-major float tensor used throughout the NN substrate.
 *
 * Shapes follow the NCHW convention for image batches: activations are
 * (batch, channels, height, width); conv kernels are (out_channels,
 * in_channels, kh, kw); matrices are (rows, cols).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace insitu {

class Rng;

namespace detail {

/**
 * Allocator for tensor storage: 64-byte-aligned blocks (SIMD- and
 * cache-line-friendly for the GEMM kernels), and default-inserted
 * floats are left *uninitialized* — `resize()` on a fresh buffer
 * costs no memset. Value-initialization (`assign(n, 0.0f)` etc.)
 * still fills as usual, so only the explicit
 * `Tensor::uninitialized()` path skips the zero-fill.
 */
template <typename T> struct AlignedUninitAlloc {
    using value_type = T;

    AlignedUninitAlloc() noexcept = default;
    template <typename U>
    AlignedUninitAlloc(const AlignedUninitAlloc<U>&) noexcept
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(
            ::operator new(n * sizeof(T), std::align_val_t{64}));
    }

    void
    deallocate(T* p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{64});
    }

    /// Default-insert: leave trivially-destructible storage alone.
    template <typename U> void construct(U*) noexcept {}

    template <typename U, typename... Args>
    void
    construct(U* p, Args&&... args)
    {
        ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const AlignedUninitAlloc<U>&) const noexcept
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const AlignedUninitAlloc<U>&) const noexcept
    {
        return false;
    }
};

} // namespace detail

/**
 * A dense float tensor with value semantics.
 *
 * Copies are deep; move is cheap. All indexing is bounds-checked in
 * the at() accessors; data() gives unchecked raw access for kernels.
 */
class Tensor {
  public:
    /** Empty (rank-0, zero elements) tensor. */
    Tensor() = default;

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(std::vector<int64_t> shape);

    /** Tensor of the given shape filled with @p value. */
    Tensor(std::vector<int64_t> shape, float value);

    /** Tensor holding a copy of the given flat data (size must match
     * shape). */
    Tensor(std::vector<int64_t> shape, std::vector<float> data);

    /**
     * Tensor of the given shape with **uninitialized** contents.
     * Strictly for outputs every element of which is about to be
     * overwritten (GEMM results, im2col columns, layer outputs);
     * reading before writing is undefined. Everything else keeps the
     * zero-init default.
     */
    static Tensor uninitialized(std::vector<int64_t> shape);

    /** Shape vector; shape()[i] is the extent of dimension i. */
    const std::vector<int64_t>& shape() const { return shape_; }

    /** Number of dimensions. */
    int64_t rank() const { return static_cast<int64_t>(shape_.size()); }

    /** Extent of dimension @p dim (supports negative indexing). */
    int64_t dim(int64_t d) const;

    /** Total number of elements. */
    int64_t numel() const { return numel_; }

    /** True if the tensor holds no elements. */
    bool empty() const { return numel_ == 0; }

    /** Raw pointers for kernel code. */
    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    /** Flat element access, bounds-checked. */
    float& at(int64_t i);
    float at(int64_t i) const;

    /** 2-D element access (rank must be 2), bounds-checked. */
    float& at(int64_t r, int64_t c);
    float at(int64_t r, int64_t c) const;

    /** 4-D element access (rank must be 4), bounds-checked. */
    float& at(int64_t n, int64_t c, int64_t h, int64_t w);
    float at(int64_t n, int64_t c, int64_t h, int64_t w) const;

    /** Fill all elements with @p value. */
    void fill(float value);

    /** Fill i.i.d. uniform in [lo, hi). */
    void fill_uniform(Rng& rng, float lo, float hi);

    /**
     * Return a tensor with the same data and a new shape.
     * The element counts must agree; one dimension may be -1 (inferred).
     */
    Tensor reshape(std::vector<int64_t> new_shape) const;

    /** Extract row-range [begin, end) along dimension 0. */
    Tensor slice0(int64_t begin, int64_t end) const;

    /** In-place elementwise operations. */
    Tensor& operator+=(const Tensor& other);
    Tensor& operator-=(const Tensor& other);
    Tensor& operator*=(float scalar);

    /** Sum, mean, min, max over all elements. */
    double sum() const;
    double mean() const;
    float min() const;
    float max() const;

    /** Index of the maximum element (flat). Rank-agnostic. */
    int64_t argmax() const;

    /** Per-row argmax of a rank-2 tensor; used for classification. */
    std::vector<int64_t> argmax_rows() const;

    /** Squared L2 norm of all elements. */
    double squared_norm() const;

    /** Human-readable "f32[2, 3, 4]" style description. */
    std::string shape_str() const;

    /** True if shapes match exactly. */
    bool same_shape(const Tensor& other) const
    {
        return shape_ == other.shape_;
    }

  private:
    struct UninitTag {};
    Tensor(UninitTag, std::vector<int64_t> shape);

    void check_rank(int64_t want) const;

    std::vector<int64_t> shape_;
    std::vector<float, detail::AlignedUninitAlloc<float>> data_;
    int64_t numel_ = 0;
};

/** Elementwise sum; shapes must match. */
Tensor operator+(const Tensor& a, const Tensor& b);

/** Elementwise difference; shapes must match. */
Tensor operator-(const Tensor& a, const Tensor& b);

/** Scalar scale. */
Tensor operator*(const Tensor& a, float s);

} // namespace insitu
