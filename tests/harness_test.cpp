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

    // The harness steps the body copies and nothing else: no wrapper,
    // and for most bodies only the n = 110 run, whose prefix gives the
    // n = 10 counters. A divider body still steps both runs.
    sim::Pipeline pipeline(tdb);
    auto addsCycles = [&](const char *listing, int64_t want) {
        simulated = cycles("simulated");
        sim::MeasurementHarness(tdb).measure(asm_(listing));
        EXPECT_EQ(cycles("simulated") - simulated,
                  static_cast<uint64_t>(want))
            << listing;
    };
    auto add = asm_("ADD RAX, RBX");
    sim::DecodedKernel add_decoded(tdb, {}, add, {});
    addsCycles("ADD RAX, RBX",
               pipeline.run(add_decoded, sim::kUnrollLarge, {},
                            sim::kUnrollSmall)
                   .simulated_cycles);
    auto div = asm_("DIV RBX");
    sim::DecodedKernel div_decoded(tdb, {}, div, {});
    int64_t div_cycles = 0;
    for (int n : {sim::kUnrollSmall, sim::kUnrollLarge})
        div_cycles += pipeline.run(div_decoded, n).simulated_cycles;
    addsCycles("DIV RBX", div_cycles);
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

/** Algorithm 2's per-body measurement from the counter difference of
 *  its n = 110 and n = 10 readings. */
sim::Measurement
perBody(const sim::PerfCounters &diff)
{
    constexpr double scale = sim::kUnrollLarge - sim::kUnrollSmall;
    sim::Measurement m;
    m.cycles = static_cast<double>(diff.cycles) / scale;
    for (size_t p = 0; p < sim::kMaxPorts; ++p)
        m.port_uops[p] = static_cast<double>(diff.port_uops[p]) / scale;
    m.uops_issued = static_cast<double>(diff.uops_issued) / scale;
    m.uops_eliminated = static_cast<double>(diff.uops_eliminated) / scale;
    return m;
}

void
expectSameMeasurement(const sim::Measurement &got,
                      const sim::Measurement &want, const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.port_uops, want.port_uops) << what;
    EXPECT_EQ(got.uops_issued, want.uops_issued) << what;
    EXPECT_EQ(got.uops_eliminated, want.uops_eliminated) << what;
}

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
    return perBody(reads(sim::kUnrollLarge) - reads(sim::kUnrollSmall));
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
            expectSameMeasurement(harness.measure(body),
                                  wrappedMeasurement(tdb, body),
                                  uarch::uarchName(arch) + ": " + listing);
        }
    }
}

/** Bodies whose n = 10 run is the n = 110 run's prefix (sim/harness.h,
 *  "one run suffices"). The chains fill the scheduler, so on NHM and
 *  WSM (IMUL, MOV AL) and HSW-CFL (SHLD) their period is found and the
 *  tail cut while the tenth copy is still in flight: the prefix must
 *  keep the stepped clock there. */
const char *const kOneRunBodies[] = {
    "ADD RAX, RBX",
    "IMUL RAX, RAX",
    "SHLD RAX, RBX, 3\nSHLD RAX, RBX, 3\nSHLD RAX, RBX, 3\n"
    "SHLD RAX, RBX, 3\nSHLD RAX, RBX, 3\nSHLD RAX, RBX, 3\n"
    "SHLD RAX, RBX, 3\nSHLD RAX, RBX, 3",
    "MOV AL, [RBX]\nMOV AL, [RBX]\nMOV AL, [RBX]\nMOV AL, [RBX]\n"
    "MOV AL, [RBX]\nMOV AL, [RBX]\nMOV AL, [RBX]\nMOV AL, [RBX]",
    "MOV [RAX], RBX\nMOV RCX, [RAX]",
    "IMUL RAX, RBX\nLFENCE\nIMUL RCX, RBX",
    "MOV RAX, RBX\nMOV RCX, RBX\nMOV RBX, RCX",
    "VADDPS YMM0, YMM0, YMM1\nADDPS XMM2, XMM2",
    "ADD RCX, RDX\nCMP RAX, RBX\nJZ 1",
};

/** The two exceptions, each with a prefix that differs on NHM. */
const char *const kTwoRunBodies[] = {
    // A younger ready divider µop takes the divider first.
    "DIV RBX\nDIV RCX\nDIVSS XMM2, XMM3\nDIVSS XMM4, XMM5",
    // The tenth copy's CMP fuses with the eleventh copy's JZ.
    "JZ 1\nCMP RAX, RBX",
};

void
expectSameCounters(const sim::PerfCounters &got,
                   const sim::PerfCounters &want, const std::string &what)
{
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.port_uops, want.port_uops) << what;
    EXPECT_EQ(got.uops_issued, want.uops_issued) << what;
    EXPECT_EQ(got.uops_eliminated, want.uops_eliminated) << what;
    EXPECT_EQ(got.instrs_retired, want.instrs_retired) << what;
}

TEST(Harness, OneRunMatchesTwoRuns)
{
    // The harness reads the n = 10 counters off the n = 110 run, except
    // for divider and copy-fusing bodies: either way measure() must
    // equal Algorithm 2's two separate runs.
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        sim::MeasurementHarness harness(tdb);
        auto check = [&](const char *listing, bool prefix_exact) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                return;
            const std::string what = uarch::uarchName(arch) + ": " + listing;
            sim::DecodedKernel decoded(tdb, {}, body, {});
            sim::PerfCounters small =
                pipeline.run(decoded, sim::kUnrollSmall).final;
            sim::RunResult large = pipeline.run(
                decoded, sim::kUnrollLarge, {}, sim::kUnrollSmall);
            if (prefix_exact) {
                expectSameCounters(large.prefix, small, what);
            } else if (arch == UArch::Nehalem) {
                EXPECT_NE(large.prefix.cycles, small.cycles) << what;
            }
            // The prefix does not change the run itself.
            expectSameCounters(large.final,
                               pipeline.run(decoded, sim::kUnrollLarge).final,
                               what);
            expectSameMeasurement(harness.measure(body),
                                  perBody(large.final - small), what);
        };
        for (const char *listing : kOneRunBodies)
            check(listing, true);
        for (const char *listing : kTwoRunBodies)
            check(listing, false);
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
