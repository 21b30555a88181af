#include "nn/linear.h"

#include <cmath>
#include <sstream>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace insitu {

Linear::Linear(std::string name, int64_t in_features,
               int64_t out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features)
{
    INSITU_CHECK(in_features > 0 && out_features > 0,
                 "invalid linear config");
    set_name(std::move(name));
    weight_ = std::make_shared<Parameter>(
        name_ + ".weight",
        std::vector<int64_t>{out_features, in_features});
    bias_ = std::make_shared<Parameter>(
        name_ + ".bias", std::vector<int64_t>{out_features});
    const float bound =
        std::sqrt(6.0f / static_cast<float>(in_features));
    weight_->value().fill_uniform(rng, -bound, bound);
}

Tensor
Linear::forward(const Tensor& input, bool training)
{
    INSITU_CHECK(input.rank() == 2, "linear expects rank-2 input");
    INSITU_CHECK(input.dim(1) == in_features_, "linear ", name_,
                 ": input features ", input.dim(1), " != ",
                 in_features_);
    // Only backward reads the cached input; an eval forward keeps
    // none, so a backward after it fails the before-forward check.
    cached_input_ = training ? input : Tensor();
    Tensor out = matmul_tb(input, weight_->value()); // (B, out)
    const float* pb = bias_->value().data();
    const int64_t batch = out.dim(0);
    float* po = out.data();
    // Batch-parallel bias add: disjoint rows, chunked so each chunk
    // carries enough work to be worth handing to a worker.
    parallel_for(0, batch, flops_grain(out_features_),
                 [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b)
            for (int64_t j = 0; j < out_features_; ++j)
                po[b * out_features_ + j] += pb[j];
    });
    return out;
}

Tensor
Linear::backward(const Tensor& grad_output)
{
    backward_params(grad_output);
    // dX = gY * W.
    return matmul(grad_output, weight_->value());
}

void
Linear::backward_params(const Tensor& grad_output)
{
    INSITU_CHECK(!cached_input_.empty(),
                 "linear backward before forward");
    INSITU_CHECK(grad_output.rank() == 2 &&
                     grad_output.dim(0) == cached_input_.dim(0) &&
                     grad_output.dim(1) == out_features_,
                 "linear grad_output shape mismatch");
    // dW = gY^T * X, stored (out, in).
    weight_->grad() += matmul_ta(grad_output, cached_input_);
    // db = column sums of gY. Column-parallel: each chunk owns a block
    // of columns and sums them over the batch in ascending order — the
    // same per-element order as a serial loop.
    float* gb = bias_->grad().data();
    const int64_t batch = grad_output.dim(0);
    const float* gy = grad_output.data();
    parallel_for(0, out_features_, flops_grain(batch),
                 [&](int64_t j0, int64_t j1) {
        for (int64_t j = j0; j < j1; ++j)
            for (int64_t b = 0; b < batch; ++b)
                gb[j] += gy[b * out_features_ + j];
    });
}

std::vector<ParameterPtr>
Linear::params()
{
    return {weight_, bias_};
}

void
Linear::set_param(size_t i, ParameterPtr p)
{
    INSITU_CHECK(p != nullptr, "null parameter");
    if (i == 0) {
        INSITU_CHECK(p->value().same_shape(weight_->value()),
                     "linear weight shape mismatch");
        weight_ = std::move(p);
    } else if (i == 1) {
        INSITU_CHECK(p->value().same_shape(bias_->value()),
                     "linear bias shape mismatch");
        bias_ = std::move(p);
    } else {
        panic("linear has two parameter slots");
    }
}

std::string
Linear::describe() const
{
    std::ostringstream oss;
    oss << "linear " << in_features_ << "->" << out_features_;
    return oss.str();
}

} // namespace insitu
