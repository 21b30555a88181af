#include "tensor/workspace.h"

#include <algorithm>
#include <new>

#include "util/logging.h"

namespace insitu {

namespace {

/// Round a float count up so successive borrows stay 64-byte aligned.
constexpr size_t kAlignFloats = 64 / sizeof(float);

size_t
round_up(size_t n)
{
    return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

float*
aligned_new(size_t nfloats)
{
    return static_cast<float*>(::operator new(
        nfloats * sizeof(float), std::align_val_t{64}));
}

void
aligned_delete(float* p)
{
    ::operator delete(p, std::align_val_t{64});
}

} // namespace

Workspace&
Workspace::local()
{
    static thread_local Workspace ws;
    return ws;
}

Workspace::~Workspace()
{
    for (float* p : overflow_) aligned_delete(p);
    aligned_delete(base_);
}

float*
Workspace::alloc(int64_t nfloats)
{
    INSITU_CHECK(nfloats >= 0, "workspace alloc of negative size");
    const size_t n = round_up(static_cast<size_t>(nfloats));
    if (top_ + n <= cap_) {
        float* p = base_ + top_;
        top_ += n;
        high_ = std::max(high_, top_ + overflow_floats_);
        return p;
    }
    // Backing block exhausted: take a dedicated block and remember
    // how big the frame really was, so the close of the outermost
    // scope regrows base_ and the next pass stays on the fast path.
    float* p = aligned_new(std::max<size_t>(n, 1));
    overflow_.push_back(p);
    ++overflow_allocs_;
    overflow_floats_ += n;
    high_ = std::max(high_, top_ + overflow_floats_);
    return p;
}

Workspace::Scope::Scope()
    : ws_(Workspace::local()), saved_top_(ws_.top_),
      saved_overflow_(ws_.overflow_.size()),
      saved_overflow_floats_(ws_.overflow_floats_)
{
}

Workspace::Scope::~Scope()
{
    while (ws_.overflow_.size() > saved_overflow_) {
        aligned_delete(ws_.overflow_.back());
        ws_.overflow_.pop_back();
    }
    ws_.top_ = saved_top_;
    ws_.overflow_floats_ = saved_overflow_floats_;
    if (ws_.top_ == 0 && ws_.high_ > ws_.cap_) {
        aligned_delete(ws_.base_);
        ws_.cap_ = round_up(ws_.high_);
        ws_.base_ = aligned_new(ws_.cap_);
    }
}

} // namespace insitu
