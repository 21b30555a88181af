/**
 * @file
 * Post-training int8 weight quantization for model deployment.
 *
 * The cloud ships refreshed models to the node after every update;
 * on a constrained downlink the model payload matters. Symmetric
 * per-parameter int8 quantization cuts the payload ~4x at a small
 * accuracy cost — an extension beyond the paper, motivated by its
 * data-movement accounting.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.h"

namespace insitu {

/** One quantized parameter: int8 codes plus a scale. */
struct QuantizedParam {
    std::string name;
    std::vector<int64_t> shape;
    std::vector<int8_t> codes;
    float scale = 1.0f; ///< value = code * scale
};

/** A whole network's weights in int8 form. */
struct QuantizedModel {
    std::vector<QuantizedParam> params;

    /** Serialized payload size in bytes (codes + scales + shapes). */
    double payload_bytes() const;
};

/**
 * Quantize every distinct parameter of @p net symmetrically:
 * scale = max|w| / 127, codes = round(w / scale).
 */
QuantizedModel quantize_weights(const Network& net);

/**
 * Load a quantized model back into @p net (dequantizing). Parameter
 * order, names and shapes must match.
 * @return false (with a warning) on mismatch.
 */
bool dequantize_into(Network& net, const QuantizedModel& model);

/** Worst-case absolute weight error of the quantization. */
double quantization_error(const Network& net,
                          const QuantizedModel& model);

/** Payload of the float32 model for comparison. */
double float_payload_bytes(const Network& net);

} // namespace insitu
