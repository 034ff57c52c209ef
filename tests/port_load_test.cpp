/**
 * @file
 * Tests for the closed-form port bound of Section 5.3.2
 * (uarch::portLoad).
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "support/status.h"
#include "uarch/timing.h"

namespace uops::test {
namespace {

using uarch::PortLoad;
using uarch::PortMask;
using uarch::portLoad;
using uarch::PortUsage;

/** µops that may issue on any of @c ports. */
struct Group
{
    std::vector<int> ports;
    int count;
};

/** Usage holding @p groups as entries, in the given order. */
PortUsage
usageOf(const std::vector<Group> &groups)
{
    PortUsage usage;
    for (const Group &g : groups) {
        PortMask mask = 0;
        for (int p : g.ports)
            mask |= static_cast<PortMask>(1u << p);
        usage.entries.emplace_back(mask, g.count);
    }
    return usage;
}

double
bound(int num_ports, const std::vector<Group> &groups)
{
    return portLoad(usageOf(groups), num_ports).bottleneck;
}

TEST(PortLoadLp, SingleUopOverKPorts)
{
    // 1 µop over k ports: load 1/k.
    for (int k = 1; k <= 6; ++k) {
        std::vector<int> ports;
        for (int p = 0; p < k; ++p)
            ports.push_back(p);
        EXPECT_NEAR(bound(8, {{ports, 1}}), 1.0 / k, 1e-9) << "k=" << k;
    }
}

TEST(PortLoadLp, EmptyUsage)
{
    EXPECT_DOUBLE_EQ(bound(8, {}), 0.0);
}

TEST(PortLoadLp, DisjointGroups)
{
    // 2 µops on {0}, 3 µops on {1}: bottleneck 3.
    EXPECT_NEAR(bound(8, {{{0}, 2}, {{1}, 3}}), 3.0, 1e-9);
}

TEST(PortLoadLp, OverlapSharing)
{
    // 2*p05 (the PBLENDVB case): spread one µop per port -> 1.0.
    EXPECT_NEAR(bound(6, {{{0, 5}, 2}}), 1.0, 1e-9);
    // 1*p0156 + 1*p06 (the ADC case): 0.5.
    EXPECT_NEAR(bound(8, {{{0, 1, 5, 6}, 1}, {{0, 6}, 1}}), 0.5, 1e-9);
    // VHADDPD on SKL: 1*p01 + 2*p5: port 5 is the bottleneck.
    EXPECT_NEAR(bound(8, {{{0, 1}, 1}, {{5}, 2}}), 2.0, 1e-9);
}

TEST(PortLoadLp, FractionalOptimum)
{
    // 3 µops on {0,1}: 1.5 per port.
    EXPECT_NEAR(bound(8, {{{0, 1}, 3}}), 1.5, 1e-9);
}

TEST(PortLoad, PerPortIsTheBalancedOptimum)
{
    // NHM `AND EAX, [RBX]`: 1*p015 + 1*p2. The load µop pins p2; the
    // ALU µop spreads evenly, not onto one arbitrary port.
    PortLoad load = portLoad(usageOf({{{0, 1, 5}, 1}, {{2}, 1}}), 6);
    EXPECT_EQ(load.bottleneck, 1.0);
    EXPECT_EQ(load.per_port[0], 1.0 / 3);
    EXPECT_EQ(load.per_port[1], 1.0 / 3);
    EXPECT_EQ(load.per_port[2], 1.0);
    EXPECT_EQ(load.per_port[3], 0.0);
    EXPECT_EQ(load.per_port[4], 0.0);
    EXPECT_EQ(load.per_port[5], 1.0 / 3);

    // 3*p0 + 1*p01 + 2*p015: port 0 is full at 3, so the shared µops
    // move to its neighbours, which level out at 3/2.
    load = portLoad(usageOf({{{0}, 3}, {{0, 1}, 1}, {{0, 1, 5}, 2}}), 6);
    EXPECT_EQ(load.bottleneck, 3.0);
    EXPECT_EQ(load.per_port[0], 3.0);
    EXPECT_EQ(load.per_port[1], 1.5);
    EXPECT_EQ(load.per_port[5], 1.5);
}

TEST(PortLoad, RejectsPortSetsOutsideTheUArch)
{
    EXPECT_THROW(portLoad(usageOf({{{7}, 1}}), 6), PanicError);
    EXPECT_THROW(portLoad(usageOf({{{}, 1}}), 8), PanicError);
}

/** Property sweep: every result certifies its own optimality. */
class PortLoadProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PortLoadProperty, IsACertifiedOptimum)
{
    // Deterministic pseudo-random usages over 8 ports. The bottleneck
    // is optimal when (a) no port set S forces more than it, i.e. it
    // is at least demand(S) / |S| for every S, and (b) per_port is an
    // assignment that reaches it. By Gale's theorem per_port is
    // realizable iff every S carries at least demand(S) and the total
    // equals the µop count.
    int seed = GetParam();
    uint64_t state = static_cast<uint64_t>(seed) * 2654435761u + 12345;
    auto rnd = [&](int limit) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<int>((state >> 33) % limit);
    };
    const int num_ports = 8;
    PortUsage usage;
    int groups = 1 + rnd(6);
    for (int g = 0; g < groups; ++g)
        usage.entries.emplace_back(
            static_cast<PortMask>(1 + rnd((1 << num_ports) - 1)),
            1 + rnd(4));

    PortLoad load = portLoad(usage, num_ports);

    double total = 0.0;
    for (double p : load.per_port)
        total += p;
    EXPECT_NEAR(total, usage.totalUops(), 1e-9) << "seed=" << seed;
    EXPECT_EQ(*std::max_element(load.per_port.begin(),
                                load.per_port.end()),
              load.bottleneck)
        << "seed=" << seed;

    for (unsigned s = 1; s < (1u << num_ports); ++s) {
        int demand = 0;
        for (const auto &[mask, count] : usage.entries)
            if ((mask & ~s) == 0)
                demand += count;
        double carried = 0.0;
        for (int p = 0; p < num_ports; ++p)
            if (s & (1u << p))
                carried += load.per_port[static_cast<size_t>(p)];
        EXPECT_GE(load.bottleneck,
                  static_cast<double>(demand) / std::popcount(s))
            << "seed=" << seed << " S=" << s;
        EXPECT_GE(carried, demand - 1e-9) << "seed=" << seed << " S=" << s;
    }

    // The result does not depend on entry order.
    PortUsage reversed = usage;
    std::reverse(reversed.entries.begin(), reversed.entries.end());
    PortUsage rotated = usage;
    std::rotate(rotated.entries.begin(), rotated.entries.begin() + 1,
                rotated.entries.end());
    for (const PortUsage &permuted : {reversed, rotated}) {
        PortLoad other = portLoad(permuted, num_ports);
        EXPECT_EQ(other.bottleneck, load.bottleneck) << "seed=" << seed;
        EXPECT_EQ(other.per_port, load.per_port) << "seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PortLoadProperty,
                         ::testing::Range(0, 200));

} // namespace
} // namespace uops::test
