/**
 * @file
 * Stochastic gradient descent with momentum and weight decay.
 *
 * Frozen parameters are skipped entirely, which is what makes the
 * paper's weight-shared incremental updates cheap: when the first
 * three conv layers are locked, their (large) tensors are neither
 * updated nor decayed.
 */
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/parameter.h"

namespace insitu {

/** SGD configuration. */
struct SgdConfig {
    double lr = 0.01;
    double momentum = 0.9;
    double weight_decay = 0.0;
};

/** SGD optimizer; velocity state is keyed by parameter identity. */
class Sgd {
  public:
    explicit Sgd(SgdConfig config) : config_(config) {}

    /** Apply one update to every non-frozen parameter. */
    void step(const std::vector<ParameterPtr>& params);

  private:
    SgdConfig config_;
    std::unordered_map<const Parameter*, Tensor> velocity_;
};

} // namespace insitu
