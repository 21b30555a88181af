/**
 * @file
 * Analytical layer descriptors of the CNNs the paper characterizes.
 *
 * The models (§IV) need only per-layer dimensions: M output maps, N
 * input maps, K kernel, R x C output size. Eq. (1): CONVops =
 * 2 * M * N * K^2 * R * C. Executable nets are read by describe().
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace insitu {

class Network;

/** Layer category for the analytical models. */
enum class LayerType { kConv, kFcn };

/** Dimensions of one layer in the paper's notation. */
struct LayerDesc {
    std::string name;
    LayerType type = LayerType::kConv;
    int64_t n = 0;      ///< input feature maps (channels)
    int64_t m = 0;      ///< output feature maps (filters)
    int64_t k = 1;      ///< square kernel size (1 for FCN)
    int64_t r = 1;      ///< output rows (1 for FCN)
    int64_t c = 1;      ///< output cols (1 for FCN)

    /** Multiply-accumulate op count of Eq. (1), in ops (MAC = 2). */
    double ops() const;

    /** Weight element count (Dw in the paper): M * N * K^2. */
    double weight_count() const;

    /** im2col-expanded input elements per image: N * K^2 * R * C. */
    double input_count() const;

    /** Output elements per image: M * R * C. */
    double output_count() const;
};

/** A whole network as a list of layer descriptors. */
struct NetworkDesc {
    std::string name;
    std::vector<LayerDesc> layers;

    /** Conv layers only, in order. */
    std::vector<LayerDesc> conv_layers() const;

    /** FCN layers only, in order. */
    std::vector<LayerDesc> fcn_layers() const;

    /** Total ops across conv + fcn layers. */
    double total_ops() const;

    /** Total weight count across conv + fcn layers. */
    double total_weights() const;
};

/** AlexNet (Krizhevsky et al.), single-column dimensions. */
NetworkDesc alexnet_desc();

/** VGG-16 (Simonyan & Zisserman). */
NetworkDesc vgg16_desc();

/**
 * GoogLeNet approximated as a sequential conv stack with equivalent
 * per-stage op counts (inception branches summed); sufficient for the
 * op/weight-level analytical models used here.
 */
NetworkDesc googlenet_desc();

/**
 * Descriptor of the executable @p net for one input of @p input_shape
 * (C, H, W, or a feature count for a net that starts with a Linear),
 * read from its Conv2d, Linear and MaxPool2d geometry; ReLU and Flatten
 * pass the shape through, and any other layer kind is fatal. An eval
 * forward of B inputs counts exactly B * total_ops() GEMM flops.
 */
NetworkDesc describe(const Network& net, std::vector<int64_t> input_shape);

/**
 * Per-tile descriptor of the diagnosis (jigsaw) companion of a
 * paper-scale @p inference net: the same conv stack with every map
 * halved per side, the paper's AlexNet ratio (conv1's 55 x 55 is
 * 27 x 27 on a tile; Fig. 17/18 run nine tiles on parallel engines).
 */
NetworkDesc diagnosis_desc(const NetworkDesc& inference);

/**
 * FCN head of the diagnosis (jigsaw) network at paper scale: the nine
 * tile embeddings concatenate into a classifier over the permutation
 * set. In the Co-running pipeline this head runs on the same NWS FCN
 * engine as the inference FCN layers (Fig. 19 feeds the NWS stage
 * from both the inference and the diagnosis buffer).
 */
NetworkDesc jigsaw_head_desc();

} // namespace insitu
