/**
 * @file
 * Tests for the multi-node fleet simulator.
 */
#include <gtest/gtest.h>

#include "iot/fleet.h"

namespace insitu {
namespace {

FleetConfig
small_fleet()
{
    FleetConfig c;
    c.tiny.num_permutations = 8;
    c.update_epochs = 2;
    c.pretrain_epochs = 2;
    c.node_severity_offset = {0.0, 0.15};
    c.seed = 3;
    return c;
}

TEST(Fleet, BootstrapDeploysToAllNodes)
{
    FleetSim fleet(small_fleet());
    EXPECT_EQ(fleet.size(), 2u);
    const double acc = fleet.bootstrap(80, 0.2);
    EXPECT_GT(acc, 0.2);
    // Every node carries the cloud's weights after deployment.
    const auto cloud_p = fleet.cloud().inference().params();
    for (size_t n = 0; n < fleet.size(); ++n) {
        const auto node_p =
            fleet.node(n).inference().network().params();
        for (int64_t i = 0; i < cloud_p[0]->numel(); ++i)
            ASSERT_EQ(node_p[0]->value().at(i),
                      cloud_p[0]->value().at(i));
    }
}

TEST(Fleet, StagePoolsUploadsAcrossNodes)
{
    FleetSim fleet(small_fleet());
    fleet.bootstrap(80, 0.2);
    const FleetStageReport report = fleet.run_stage(40, 0.25);
    ASSERT_EQ(report.nodes.size(), 2u);
    int64_t sum = 0;
    for (const auto& nr : report.nodes) {
        EXPECT_EQ(nr.acquired, 40);
        EXPECT_LE(nr.uploaded, nr.acquired);
        sum += nr.uploaded;
    }
    EXPECT_EQ(report.pooled_uploads, sum);
    EXPECT_GE(report.mean_accuracy_after, 0.0);
}

TEST(Fleet, HarsherNodeFlagsMore)
{
    // The node with the bigger severity offset should, on average,
    // find more of its data unrecognized.
    FleetConfig config = small_fleet();
    config.node_severity_offset = {0.0, 0.35};
    FleetSim fleet(config);
    fleet.bootstrap(100, 0.15);
    double mild = 0, harsh = 0;
    for (int s = 0; s < 2; ++s) {
        const auto report = fleet.run_stage(60, 0.15);
        mild += report.nodes[0].flag_rate;
        harsh += report.nodes[1].flag_rate;
    }
    EXPECT_GT(harsh, mild);
}

TEST(Fleet, SingleNodeFleetDegeneratesGracefully)
{
    FleetConfig config = small_fleet();
    config.node_severity_offset = {0.1};
    FleetSim fleet(config);
    EXPECT_EQ(fleet.size(), 1u);
    fleet.bootstrap(60, 0.2);
    const auto report = fleet.run_stage(30, 0.25);
    EXPECT_EQ(report.nodes.size(), 1u);
}

} // namespace
} // namespace insitu
