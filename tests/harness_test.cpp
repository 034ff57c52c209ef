/**
 * @file
 * Tests for the Algorithm-2 measurement infrastructure details:
 * marker snapshots, per-body counters, serializing behaviour, move
 * elimination, capacity limits of the simulated core, and the
 * simulated-cycle counters.
 */

#include <gtest/gtest.h>

#include "sim/pipeline.h"
#include "support/obs/metrics.h"
#include "test_util.h"

namespace uops::test {
namespace {

using uarch::UArch;

TEST(Harness, MarkersSnapshotInProgramOrder)
{
    const auto &tdb = timingDb(UArch::Skylake);
    sim::Pipeline pipeline(tdb);
    auto kernel = asm_("ADD RAX, RBX\n"
                       "ADD RAX, RBX\n"
                       "ADD RAX, RBX\n"
                       "ADD RAX, RBX");
    auto r = pipeline.run(kernel, {0, 3});
    ASSERT_EQ(r.snapshots.size(), 2u);
    EXPECT_LE(r.snapshots[0].cycles, r.snapshots[1].cycles);
    EXPECT_LT(r.snapshots[0].instrs_retired,
              r.snapshots[1].instrs_retired);
    EXPECT_EQ(r.final.instrs_retired, 4);
}

TEST(Harness, PortCountersPerBody)
{
    auto m = measure(UArch::Skylake, "PSHUFD XMM1, XMM2, 0\n"
                                     "PSHUFD XMM2, XMM3, 0");
    EXPECT_NEAR(m.port_uops[5], 2.0, 0.05); // both on port 5
    EXPECT_NEAR(m.uops_issued, 2.0, 0.1);
}

TEST(Harness, EliminatedUopsCounted)
{
    auto m = measure(UArch::Skylake, "XOR RAX, RAX\nNOP");
    EXPECT_NEAR(m.uops_eliminated, 2.0, 0.05);
    EXPECT_NEAR(m.totalPortUops(), 0.0, 0.01);
}

TEST(Harness, SerializingInstructionDrains)
{
    // A serializing instruction between two long-latency chains forces
    // completion: cycles per body far above the pipelined case.
    const auto &tdb = timingDb(UArch::Skylake);
    sim::Pipeline pipeline(tdb);
    auto with_fence = asm_("IMUL RAX, RBX\n"
                           "LFENCE\n"
                           "IMUL RCX, RBX");
    auto without = asm_("IMUL RAX, RBX\n"
                        "IMUL RCX, RBX");
    isa::Kernel k1, k2;
    for (int i = 0; i < 20; ++i) {
        k1.insert(k1.end(), with_fence.begin(), with_fence.end());
        k2.insert(k2.end(), without.begin(), without.end());
    }
    auto r1 = pipeline.run(k1);
    auto r2 = pipeline.run(k2);
    EXPECT_GT(r1.cycles, r2.cycles * 2);
}

TEST(Harness, RsCapacityLimitsParallelism)
{
    // A long-latency divider chain plus many independent adds: the
    // adds fill the reservation station; issue stalls, but everything
    // still completes and counters add up.
    std::string body = "DIVPS XMM1, XMM2\n";
    for (int i = 0; i < 12; ++i)
        body += "ADD RAX, R8\nADD RBX, R8\nADD RCX, R8\n";
    auto m = measure(UArch::Nehalem, body);
    EXPECT_NEAR(m.totalPortUops(), 37.0, 0.5); // 1 div + 36 adds
}

TEST(Harness, CountsSteppedAndFastForwardedCycles)
{
    // Every Algorithm-2 run adds its cycles to the process registry,
    // split into those stepped and those the fast-forward skipped.
    sim::MeasurementHarness harness(timingDb(UArch::Skylake));
    harness.measure(asm_("ADD RAX, RBX")); // registers the series
    auto cycles = [](const char *mode) {
        return obs::Registry::global()
            .counter("uops_sim_cycles_total", "", {{"mode", mode}})
            .value();
    };
    uint64_t simulated = cycles("simulated");
    uint64_t skipped = cycles("fast_forwarded");
    harness.measure(asm_("IMUL RAX, RBX\nLFENCE\nIMUL RCX, RBX"));
    EXPECT_GT(cycles("simulated"), simulated);
    EXPECT_GT(cycles("fast_forwarded"), skipped);
}

TEST(Harness, EmptyBodyPanics)
{
    sim::MeasurementHarness harness(timingDb(UArch::Skylake));
    EXPECT_THROW(harness.measure({}), PanicError);
}

TEST(Pipeline, DeadlockGuard)
{
    const auto &tdb = timingDb(UArch::Skylake);
    sim::SimOptions opts;
    opts.max_cycles = 50; // too small for this kernel
    sim::Pipeline pipeline(tdb, opts);
    isa::Kernel kernel;
    auto chain = asm_("IMUL RAX, RBX");
    for (int i = 0; i < 100; ++i)
        kernel.push_back(chain[0]);
    EXPECT_THROW(pipeline.run(kernel), PanicError);
}

TEST(Pipeline, MovElimEliminatesEveryThirdCandidate)
{
    // Candidates 0, 3, ..., 48 of the 50 MOVs are eliminated at
    // rename; the other 33 execute on a port.
    const auto &tdb = timingDb(UArch::Skylake);
    sim::Pipeline pipeline(tdb);
    auto kernel = asm_("MOV RAX, RBX");
    isa::Kernel body;
    for (int i = 0; i < 50; ++i)
        body.push_back(kernel[0]);
    auto r = pipeline.run(body);
    EXPECT_EQ(r.final.uops_eliminated, 17);
    EXPECT_EQ(r.final.totalPortUops(), 33);
}

} // namespace
} // namespace uops::test
