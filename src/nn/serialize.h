/**
 * @file
 * Binary (de)serialization of network weights.
 *
 * The format stores each distinct parameter as (name, shape, data);
 * loading matches by position and validates name + shape, modelling
 * the "deploy initialized models to the In-situ node" step of Fig. 4.
 * Integers are little-endian through storage/codec.h; the float
 * payload is raw little-endian IEEE-754.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nn/network.h"

namespace insitu {

/**
 * Version of the weight-blob framing this build writes. Blobs carry
 * `[magic][version][body_size][crc32(body)]` ahead of the parameter
 * section; load_weights rejects any other version (including the
 * unframed version-1 layout), so a stale flash partition can never be
 * parsed as current weights.
 */
uint32_t weight_format_version();

/** Serialize all distinct parameters of @p net into one blob. */
std::string save_weights(const Network& net);

/**
 * Whether load_weights(@p net, @p blob) would succeed; writes nothing.
 * Lets a caller loading several blobs check them all before it
 * writes any.
 */
bool check_weights(const Network& net, std::string_view blob);

/**
 * Load a blob written by save_weights into @p net. All-or-nothing:
 * the framing, the parameter count and every name, rank, shape and
 * byte length are checked before any parameter is written.
 * @return false, leaving @p net untouched, if the blob is malformed
 *         or was saved from a different architecture.
 */
bool load_weights(Network& net, std::string_view blob);

} // namespace insitu
