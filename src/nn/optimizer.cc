#include "nn/optimizer.h"

namespace insitu {

void
Sgd::step(const std::vector<ParameterPtr>& params)
{
    for (const auto& p : params) {
        if (p->frozen()) continue;
        Tensor& v = p->value();
        const Tensor& g = p->grad();
        float* pv = v.data();
        const float* pg = g.data();
        const auto n = v.numel();
        const float lr = static_cast<float>(config_.lr);
        const float wd = static_cast<float>(config_.weight_decay);
        if (config_.momentum > 0.0) {
            auto [it, inserted] =
                velocity_.try_emplace(p.get(), v.shape());
            Tensor& vel = it->second;
            float* pvel = vel.data();
            const float mu = static_cast<float>(config_.momentum);
            for (int64_t i = 0; i < n; ++i) {
                const float grad = pg[i] + wd * pv[i];
                pvel[i] = mu * pvel[i] + grad;
                pv[i] -= lr * pvel[i];
            }
        } else {
            for (int64_t i = 0; i < n; ++i)
                pv[i] -= lr * (pg[i] + wd * pv[i]);
        }
    }
}

} // namespace insitu
