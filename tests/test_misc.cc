/**
 * @file
 * Coverage sweep of smaller surfaces: logging levels, CSV/weight file
 * I/O, layer describe() strings, tensor edge cases, dataset slicing
 * edges, descriptor helpers, and spec invariants.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/synth.h"
#include "models/descriptor.h"
#include "models/tiny.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "hw/spec.h"
#include "nn/serialize.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"

namespace insitu {
namespace {

TEST(Logging, LevelGatesAreOrdered)
{
    const LogLevel original = log_level();
    set_log_level(LogLevel::kSilent);
    EXPECT_EQ(log_level(), LogLevel::kSilent);
    inform("should be suppressed");
    warn("should be suppressed");
    debug("should be suppressed");
    set_log_level(LogLevel::kDebug);
    EXPECT_EQ(log_level(), LogLevel::kDebug);
    set_log_level(original);
}

TEST(Logging, CheckMacroFormatsContext)
{
    EXPECT_DEATH(
        [] {
            const int x = 3;
            INSITU_CHECK(x == 4, "x was ", x);
        }(),
        "x was 3");
}

TEST(Csv, WriteFileRoundTrip)
{
    CsvWriter w({"a", "b"});
    w.add_row({"1", "2"});
    const std::string path = "/tmp/insitu_csv_test.csv";
    ASSERT_TRUE(w.write_file(path));
    std::ifstream ifs(path);
    std::string line;
    std::getline(ifs, line);
    EXPECT_EQ(line, "a,b");
    std::getline(ifs, line);
    EXPECT_EQ(line, "1,2");
    std::remove(path.c_str());
}

TEST(Csv, WriteFileFailsOnBadPath)
{
    CsvWriter w({"a"});
    EXPECT_FALSE(w.write_file("/nonexistent/dir/x.csv"));
}

TEST(Describe, LayerStringsMentionConfig)
{
    Rng rng(2);
    Conv2d conv("c", 3, 8, 5, 2, 2, rng);
    EXPECT_NE(conv.describe().find("3->8"), std::string::npos);
    EXPECT_NE(conv.describe().find("k5"), std::string::npos);
    Linear fc("f", 10, 4, rng);
    EXPECT_NE(fc.describe().find("10->4"), std::string::npos);
    MaxPool2d mp("m", 2, 2);
    EXPECT_NE(mp.describe().find("maxpool"), std::string::npos);
}

TEST(Layer, SetParamOnParamlessLayerPanics)
{
    MaxPool2d pool("p", 2, 2);
    auto p = std::make_shared<Parameter>("x", std::vector<int64_t>{1});
    EXPECT_DEATH(pool.set_param(0, p), "no parameter slots");
}

TEST(Conv2d, SetParamRejectsWrongShape)
{
    Rng rng(3);
    Conv2d conv("c", 2, 4, 3, 1, 1, rng);
    auto bad =
        std::make_shared<Parameter>("w", std::vector<int64_t>{1, 1});
    EXPECT_DEATH(conv.set_param(0, bad), "shape mismatch");
    EXPECT_DEATH(conv.set_param(2, bad), "two parameter slots");
}

TEST(Tensor, EmptySliceAndZeroDataset)
{
    Tensor t({4, 2});
    const Tensor s = t.slice0(2, 2);
    EXPECT_EQ(s.dim(0), 0);
    EXPECT_TRUE(s.empty());
    Rng rng(4);
    SynthConfig synth;
    const Dataset d = make_dataset(synth, 0, Condition::ideal(), rng);
    EXPECT_EQ(d.size(), 0);
}

TEST(Tensor, NegativeDimIndexing)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.dim(-1), 4);
    EXPECT_EQ(t.dim(-3), 2);
    EXPECT_DEATH(t.dim(3), "out of range");
}

TEST(Dataset, SliceBoundsChecked)
{
    Rng rng(5);
    SynthConfig synth;
    const Dataset d = make_dataset(synth, 5, Condition::ideal(), rng);
    EXPECT_DEATH(dataset_slice(d, 3, 7), "range");
}

TEST(Descriptors, JigsawHeadIsFcnOnly)
{
    const NetworkDesc head = jigsaw_head_desc();
    EXPECT_TRUE(head.conv_layers().empty());
    EXPECT_EQ(head.fcn_layers().size(), 3u);
    EXPECT_EQ(head.layers.front().n, 9 * 1024);
    EXPECT_EQ(head.layers.back().m, 100);
}

TEST(Descriptors, TotalsAreSums)
{
    const NetworkDesc d = alexnet_desc();
    double ops = 0.0, weights = 0.0;
    for (const auto& l : d.layers) {
        ops += l.ops();
        weights += l.weight_count();
    }
    EXPECT_DOUBLE_EQ(d.total_ops(), ops);
    EXPECT_DOUBLE_EQ(d.total_weights(), weights);
}

TEST(Specs, PowerHierarchiesSane)
{
    EXPECT_LT(tx1_spec().power_watts, vx690t_spec().power_watts);
    EXPECT_LT(vx690t_spec().power_watts, titan_x_spec().power_watts);
    EXPECT_LT(tx1_spec().idle_watts, tx1_spec().power_watts);
    EXPECT_GT(lan_uplink_spec().bandwidth_bps,
              iot_uplink_spec().bandwidth_bps);
    EXPECT_LT(lan_uplink_spec().energy_per_byte,
              iot_uplink_spec().energy_per_byte);
}

TEST(TinyConfig, WidthScalesParameterCount)
{
    Rng rng(6);
    TinyConfig narrow, wide;
    narrow.width = 0.5;
    wide.width = 2.0;
    Network a = make_tiny_inference(narrow, rng);
    Network b = make_tiny_inference(wide, rng);
    EXPECT_GT(b.param_count(), 3 * a.param_count());
}

TEST(TinyConfig, TrunkFeaturesConsistentAcrossWidths)
{
    for (double width : {0.5, 1.0, 2.0}) {
        TinyConfig config;
        config.width = width;
        Rng rng(7);
        Network trunk = make_tiny_trunk(config, rng);
        Tensor tile({1, 3, 8, 8});
        EXPECT_EQ(trunk.forward(tile).dim(1),
                  tiny_trunk_features(config))
            << width;
    }
}

} // namespace
} // namespace insitu
