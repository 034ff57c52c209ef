/**
 * @file
 * Tests for the Algorithm-2 measurement infrastructure details:
 * marker snapshots, per-body counters, serializing behaviour, move
 * elimination, capacity limits of the simulated core, the
 * simulated-cycle counters, and the body-only runs' equality with
 * Algorithm 2's fully wrapped runs.
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
    const auto &tdb = timingDb(UArch::Skylake);
    sim::MeasurementHarness harness(tdb);
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

    // The harness steps the body copies and nothing else: no wrapper.
    auto body = asm_("ADD RAX, RBX");
    sim::DecodedKernel decoded(tdb, {}, body, {});
    sim::Pipeline pipeline(tdb);
    int64_t body_cycles = 0;
    for (int n : {sim::kUnrollSmall, sim::kUnrollLarge})
        body_cycles += pipeline.run(decoded, n).simulated_cycles;
    simulated = cycles("simulated");
    sim::MeasurementHarness(tdb).measure(body);
    EXPECT_EQ(cycles("simulated") - simulated,
              static_cast<uint64_t>(body_cycles));
}

/** Bodies touching each state the wrapper's neutrality relies on
 *  (sim/harness.h): what the prologue leaves behind for the body and
 *  what the body leaves behind for the epilogue. */
const char *const kWrapperNeutralBodies[] = {
    // First reads are the four registers CPUID writes.
    "ADD RAX, RBX\nADD RCX, RDX",
    // A MOV chain whose off-chain MOV is the first candidate: the
    // move-elimination phase decides which MOV of every copy goes.
    "MOV RAX, RBX\nMOV RCX, RBX\nMOV RBX, RCX",
    // Upper YMM state: dirtied before an SSE write, and a clean start
    // that keeps an SSE-only body free of merge dependencies.
    "VADDPS YMM0, YMM0, YMM1\nADDPS XMM2, XMM2",
    "SQRTPS XMM2, XMM3",
    "DIV RBX",
    // Serializing instructions inside the body.
    "IMUL RAX, RBX\nLFENCE\nIMUL RCX, RBX",
    "ADD RAX, RBX\nCPUID",
    // A fused pair at the body's end, next to the epilogue.
    "ADD RCX, RDX\nCMP RAX, RBX\nJZ 1",
    // A vector-domain value in EAX, which the epilogue's CPUID reads.
    "MOVD EAX, XMM0",
    "MOV [RAX], RBX\nMOV RCX, [RAX]",
};

/** Algorithm 2 with its full wrapper, both counter reads inside the
 *  runs: the reference for the harness's body-only runs. */
sim::Measurement
wrappedMeasurement(const uarch::TimingDb &tdb, const isa::Kernel &body)
{
    const isa::InstrDb &db = defaultDb();
    const isa::InstrInstance serializer =
        isa::makeInstance(*db.byName("CPUID_R32i_R32i_R32i_R32i"), {});
    const isa::InstrInstance reader =
        isa::makeInstance(*db.byName("RDTSC_R32i_R32i"), {});
    const isa::Kernel wrapper = {serializer, reader, serializer};
    sim::DecodedKernel decoded(tdb, wrapper, body, wrapper);
    sim::Pipeline pipeline(tdb);
    auto reads = [&](int n) {
        sim::RunResult r = pipeline.run(
            decoded, n,
            {1, wrapper.size() + static_cast<size_t>(n) * body.size() + 1});
        return r.snapshots[1] - r.snapshots[0];
    };
    sim::PerfCounters diff =
        reads(sim::kUnrollLarge) - reads(sim::kUnrollSmall);

    constexpr double scale = sim::kUnrollLarge - sim::kUnrollSmall;
    sim::Measurement m;
    m.cycles = static_cast<double>(diff.cycles) / scale;
    for (size_t p = 0; p < sim::kMaxPorts; ++p)
        m.port_uops[p] = static_cast<double>(diff.port_uops[p]) / scale;
    m.uops_issued = static_cast<double>(diff.uops_issued) / scale;
    m.uops_eliminated = static_cast<double>(diff.uops_eliminated) / scale;
    return m;
}

TEST(Harness, BodyOnlyMatchesFullAlgorithm2)
{
    // The harness does not simulate the CPUID/RDTSC wrapper; its
    // measurement must equal the wrapped procedure's bit for bit.
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::MeasurementHarness harness(tdb);
        for (const char *listing : kWrapperNeutralBodies) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            sim::Measurement got = harness.measure(body);
            sim::Measurement want = wrappedMeasurement(tdb, body);
            std::string what = uarch::uarchName(arch) + ": " + listing;
            EXPECT_EQ(got.cycles, want.cycles) << what;
            EXPECT_EQ(got.port_uops, want.port_uops) << what;
            EXPECT_EQ(got.uops_issued, want.uops_issued) << what;
            EXPECT_EQ(got.uops_eliminated, want.uops_eliminated) << what;
        }
    }
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
