#include "nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace insitu {

double
QuantizedModel::payload_bytes() const
{
    double bytes = 0.0;
    for (const auto& p : params) {
        bytes += static_cast<double>(p.codes.size()); // 1 B/code
        bytes += 4.0;                                 // scale
        bytes += 8.0 * static_cast<double>(p.shape.size());
        bytes += static_cast<double>(p.name.size()) + 4.0;
    }
    return bytes;
}

QuantizedModel
quantize_weights(const Network& net)
{
    QuantizedModel model;
    for (const auto& param : net.params()) {
        QuantizedParam q;
        q.name = param->name();
        q.shape = param->value().shape();
        const float* w = param->value().data();
        const int64_t n = param->value().numel();
        float max_abs = 0.0f;
        for (int64_t i = 0; i < n; ++i)
            max_abs = std::max(max_abs, std::abs(w[i]));
        q.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
        q.codes.resize(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            const float code = std::round(w[i] / q.scale);
            q.codes[static_cast<size_t>(i)] = static_cast<int8_t>(
                std::clamp(code, -127.0f, 127.0f));
        }
        model.params.push_back(std::move(q));
    }
    return model;
}

bool
dequantize_into(Network& net, const QuantizedModel& model)
{
    const auto params = net.params();
    if (params.size() != model.params.size()) {
        warn("quantized model has " +
             std::to_string(model.params.size()) +
             " params, network has " + std::to_string(params.size()));
        return false;
    }
    for (size_t i = 0; i < params.size(); ++i) {
        const QuantizedParam& q = model.params[i];
        if (q.name != params[i]->name() ||
            q.shape != params[i]->value().shape()) {
            warn("quantized parameter mismatch at '" + q.name + "'");
            return false;
        }
        float* w = params[i]->value().data();
        for (size_t j = 0; j < q.codes.size(); ++j)
            w[j] = static_cast<float>(q.codes[j]) * q.scale;
    }
    return true;
}

double
quantization_error(const Network& net, const QuantizedModel& model)
{
    const auto params = net.params();
    INSITU_CHECK(params.size() == model.params.size(),
                 "model/network mismatch");
    double worst = 0.0;
    for (size_t i = 0; i < params.size(); ++i) {
        const QuantizedParam& q = model.params[i];
        const float* w = params[i]->value().data();
        for (size_t j = 0; j < q.codes.size(); ++j) {
            const double deq =
                static_cast<double>(q.codes[j]) * q.scale;
            worst = std::max(worst, std::abs(deq - w[j]));
        }
    }
    return worst;
}

double
float_payload_bytes(const Network& net)
{
    double bytes = 0.0;
    for (const auto& p : net.params())
        bytes += 4.0 * static_cast<double>(p->numel());
    return bytes;
}

} // namespace insitu
