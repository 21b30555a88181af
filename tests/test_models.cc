/**
 * @file
 * Unit tests for the model descriptors: Eq. (1) op counts, layer
 * filters, the diagnosis companion geometry, and describe() against
 * the GEMM flops a live forward counts.
 */
#include <gtest/gtest.h>

#include "models/descriptor.h"
#include "models/tiny.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(LayerDesc, OpsMatchesEquationOne)
{
    LayerDesc l;
    l.type = LayerType::kConv;
    l.n = 3;
    l.m = 96;
    l.k = 11;
    l.r = 55;
    l.c = 55;
    // 2 * 96 * 3 * 121 * 3025
    EXPECT_DOUBLE_EQ(l.ops(), 2.0 * 96 * 3 * 121 * 3025);
}

TEST(LayerDesc, FcnCounts)
{
    LayerDesc l;
    l.type = LayerType::kFcn;
    l.n = 9216;
    l.m = 4096;
    EXPECT_DOUBLE_EQ(l.ops(), 2.0 * 9216 * 4096);
    EXPECT_DOUBLE_EQ(l.weight_count(), 9216.0 * 4096);
    EXPECT_DOUBLE_EQ(l.input_count(), 9216.0);
    EXPECT_DOUBLE_EQ(l.output_count(), 4096.0);
}

TEST(AlexNet, LayerStructure)
{
    const NetworkDesc d = alexnet_desc();
    EXPECT_EQ(d.conv_layers().size(), 5u);
    EXPECT_EQ(d.fcn_layers().size(), 3u);
    EXPECT_EQ(d.layers.front().m, 96);
    EXPECT_EQ(d.layers.front().k, 11);
}

TEST(AlexNet, TotalOpsNearPublished)
{
    // AlexNet forward is ~1.4-1.5 GFLOPs (single column, no groups).
    const double gflops = alexnet_desc().total_ops() / 1e9;
    EXPECT_GT(gflops, 1.0);
    EXPECT_LT(gflops, 3.5);
}

TEST(AlexNet, WeightsDominatedByFcn)
{
    // The famous AlexNet property the paper's FCN batching exploits:
    // ~90% of weights live in the FC layers.
    const NetworkDesc d = alexnet_desc();
    double fcn_weights = 0.0;
    for (const auto& l : d.fcn_layers()) fcn_weights += l.weight_count();
    EXPECT_GT(fcn_weights / d.total_weights(), 0.85);
}

TEST(Vgg16, TotalOpsNearPublished)
{
    // VGG-16 forward is ~30.9 GFLOPs.
    const double gflops = vgg16_desc().total_ops() / 1e9;
    EXPECT_GT(gflops, 25.0);
    EXPECT_LT(gflops, 40.0);
}

TEST(Vgg16, MuchHeavierThanAlexNet)
{
    // The paper's Fig. 21 observation (VGG keeps the GPU busy even at
    // batch 1) rests on this op-count gap.
    EXPECT_GT(vgg16_desc().total_ops(),
              10.0 * alexnet_desc().total_ops());
}

TEST(GoogleNet, OpsBetweenAlexAndVgg)
{
    const double ops = googlenet_desc().total_ops();
    EXPECT_GT(ops, alexnet_desc().total_ops());
    EXPECT_LT(ops, vgg16_desc().total_ops());
}

TEST(Diagnosis, TileOutputsQuarterLoad)
{
    // The paper's WSS sizing rests on the 4:1 compute ratio between
    // the full-image inference conv and the per-tile diagnosis conv.
    const NetworkDesc inf = alexnet_desc();
    const NetworkDesc diag = diagnosis_desc(inf);
    const std::vector<LayerDesc> convs = inf.conv_layers();
    ASSERT_EQ(diag.layers.size(), convs.size());
    for (size_t i = 0; i < diag.layers.size(); ++i) {
        const auto& full = convs[i];
        const auto& tile = diag.layers[i];
        EXPECT_EQ(tile.r, std::max<int64_t>(1, full.r / 2));
        EXPECT_NEAR(full.ops() / tile.ops(), 4.0, 0.35 * 4.0);
    }
}

TEST(Diagnosis, DropsFcnLayers)
{
    const NetworkDesc diag = diagnosis_desc(alexnet_desc());
    EXPECT_TRUE(diag.fcn_layers().empty());
}

// describe() oracle: an eval forward of B inputs counts exactly
// B * total_ops() GEMM flops (Eq. 1), for every width and image size.

/** GEMM flops every matmul kernel has counted so far. */
int64_t
counted_flops()
{
    auto& reg = obs::MetricsRegistry::global();
    return reg.counter("tensor.matmul.flops").value() +
           reg.counter("tensor.matmul_ta.flops").value() +
           reg.counter("tensor.matmul_tb.flops").value();
}

/** Flops an eval forward of @p net counts over @p input. */
double
forward_flops(Network& net, const Tensor& input)
{
    const int64_t before = counted_flops();
    (void)net.forward(input, false);
    return static_cast<double>(counted_flops() - before);
}

constexpr int64_t kBatch = 3;

/** Every (width, image size) the oracle sweeps. */
std::vector<TinyConfig>
tiny_sweep()
{
    std::vector<TinyConfig> out;
    for (double width : {0.5, 1.0, 2.0})
        for (int64_t size : {24, 48}) {
            TinyConfig c;
            c.width = width;
            c.image_size = size;
            out.push_back(c);
        }
    return out;
}

std::string
label(const TinyConfig& c)
{
    return "width " + std::to_string(c.width) + " size " +
           std::to_string(c.image_size);
}

TEST(Describe, InferenceOpsAreItsForwardFlops)
{
    for (const TinyConfig& c : tiny_sweep()) {
        SCOPED_TRACE(label(c));
        Rng rng(3);
        Network net = make_tiny_inference(c, rng);
        const NetworkDesc d =
            describe(net, {3, c.image_size, c.image_size});
        EXPECT_EQ(d.conv_layers().size(), kTinyConvCount);
        EXPECT_EQ(d.fcn_layers().size(), 2u);
        Tensor x({kBatch, 3, c.image_size, c.image_size});
        x.fill_uniform(rng, -1.0f, 1.0f);
        EXPECT_EQ(forward_flops(net, x), kBatch * d.total_ops());
    }
}

TEST(Describe, TrunkAtTileShapeOpsAreItsForwardFlops)
{
    for (const TinyConfig& c : tiny_sweep()) {
        SCOPED_TRACE(label(c));
        Rng rng(4);
        Network trunk = make_tiny_trunk(c, rng);
        const int64_t tile = c.image_size / 3;
        const NetworkDesc d = describe(trunk, {3, tile, tile});
        EXPECT_EQ(d.conv_layers().size(), kTinyConvCount);
        EXPECT_TRUE(d.fcn_layers().empty());
        Tensor x({kBatch * 9, 3, tile, tile});
        x.fill_uniform(rng, -1.0f, 1.0f);
        EXPECT_EQ(forward_flops(trunk, x), kBatch * 9 * d.total_ops());
    }
}

TEST(Describe, JigsawHeadOpsAreItsForwardFlops)
{
    for (const TinyConfig& c : tiny_sweep()) {
        SCOPED_TRACE(label(c));
        Rng rng(5);
        Network head = make_tiny_jigsaw_head(c, rng);
        const int64_t in = 9 * tiny_trunk_features(c);
        const NetworkDesc d = describe(head, {in});
        EXPECT_EQ(d.fcn_layers().size(), 2u);
        Tensor x({kBatch, in});
        x.fill_uniform(rng, -1.0f, 1.0f);
        EXPECT_EQ(forward_flops(head, x), kBatch * d.total_ops());
    }
}

TEST(Describe, DefaultTinyNetGeometry)
{
    // Width 1 at 24 x 24: the full-image maps are 24, 12, 6, 6, 6 and
    // the 8 x 8 tile's are 8, 4, 2, 2, 2.
    Rng rng(6);
    const TinyConfig c;
    const NetworkDesc inf =
        describe(make_tiny_inference(c, rng), {3, 24, 24});
    const NetworkDesc tile = describe(make_tiny_trunk(c, rng), {3, 8, 8});
    const int64_t full_maps[] = {24, 12, 6, 6, 6};
    const int64_t tile_maps[] = {8, 4, 2, 2, 2};
    for (size_t i = 0; i < kTinyConvCount; ++i) {
        EXPECT_EQ(inf.layers[i].r, full_maps[i]);
        EXPECT_EQ(inf.layers[i].c, full_maps[i]);
        EXPECT_EQ(tile.layers[i].r, tile_maps[i]);
        EXPECT_EQ(tile.layers[i].k, 3);
    }
    EXPECT_EQ(inf.layers.front().n, 3);
    EXPECT_EQ(inf.layers.front().m, 16);
    EXPECT_EQ(inf.fcn_layers().front().n, 288);
    EXPECT_EQ(inf.fcn_layers().back().m, c.num_classes);
    EXPECT_DOUBLE_EQ(tile.total_ops(), 368640.0);
}

} // namespace
} // namespace insitu
