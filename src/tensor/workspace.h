/**
 * @file
 * Thread-local workspace arena: reusable, 64-byte-aligned,
 * uninitialized scratch for kernel-internal buffers (GEMM pack
 * panels, per-image im2col columns).
 *
 * The hot paths used to allocate a fresh `std::vector<float>` — a
 * malloc plus a memset — for every pack buffer and every lowered
 * image. For the small shapes that dominate the paper's workloads
 * that churn costs as much as the arithmetic. The arena replaces it
 * with a bump allocator whose backing block is reused call after
 * call: steady-state allocation is a pointer add.
 *
 * Lifetime rules (also documented in docs/performance.md):
 *
 *  - Every borrow happens inside a `Workspace::Scope`. Destroying the
 *    scope releases everything allocated under it (LIFO, like a stack
 *    frame); pointers must not outlive their scope.
 *  - Arenas are strictly thread-local. A pointer obtained on one
 *    thread may be *read* by another only under an external
 *    happens-before edge (the GEMM macro-kernel shares its packed B
 *    panel with pool workers through `parallel_for`, which provides
 *    one); it must never be freed or reused concurrently.
 *  - Memory is uninitialized on purpose. Callers overwrite what they
 *    read; nothing may assume zeroes.
 *  - When the outermost scope closes, the arena grows its backing
 *    block to the high-water mark of the scope that just ended, so
 *    repeated workloads stop overflowing after the first iteration.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace insitu {

/** Bump arena of 64-byte-aligned float scratch. One per thread. */
class Workspace {
  public:
    /** The calling thread's arena (created on first use). */
    static Workspace& local();

    ~Workspace();
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

    /**
     * Borrow @p nfloats uninitialized floats, 64-byte aligned.
     * Valid until the innermost enclosing Scope is destroyed.
     * `nfloats == 0` returns a pointer that must not be dereferenced.
     */
    float* alloc(int64_t nfloats);

    /**
     * Borrow @p n uninitialized elements of trivially-copyable type
     * @p T (rounded up to whole floats underneath; same 64-byte
     * alignment and Scope lifetime as alloc()). This is how non-float
     * per-node scratch — index lists, event staging buffers — rides
     * the arena instead of a fresh heap vector per step.
     */
    template <typename T>
    T*
    alloc_as(int64_t n)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          std::is_trivially_destructible_v<T>,
                      "arena scratch must be trivial");
        static_assert(alignof(T) <= 64, "arena aligns to 64 bytes");
        const int64_t nfloats = static_cast<int64_t>(
            (static_cast<uint64_t>(n < 0 ? 0 : n) * sizeof(T) +
             sizeof(float) - 1) /
            sizeof(float));
        return reinterpret_cast<T*>(alloc(nfloats));
    }

    /**
     * RAII frame: releases every alloc() made while it was the
     * innermost live scope. Scopes nest (LIFO) per thread.
     */
    class Scope {
      public:
        Scope();
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Workspace& ws_;
        size_t saved_top_;
        size_t saved_overflow_;
        size_t saved_overflow_floats_;
    };

    /** Capacity of the reusable backing block, in floats (tests). */
    size_t capacity() const { return cap_; }

    /** Allocations that missed the backing block (tests; a steady
     * workload should stop accruing these after its first pass). */
    int64_t overflow_allocs() const { return overflow_allocs_; }

  private:
    Workspace() = default;

    float* base_ = nullptr;   ///< reusable backing block
    size_t cap_ = 0;          ///< capacity of base_, in floats
    size_t top_ = 0;          ///< bump offset into base_, in floats
    size_t high_ = 0;         ///< high-water of top_ + overflow sizes
    std::vector<float*> overflow_; ///< blocks taken when base_ was full
    size_t overflow_floats_ = 0;   ///< floats in the live overflow_ blocks
    int64_t overflow_allocs_ = 0;
};

} // namespace insitu
