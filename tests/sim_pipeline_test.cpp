/**
 * @file
 * Unit tests for the cycle-level pipeline simulator: dependency
 * chains, port throughput, renaming, eliminations, memory, divider,
 * flags, and the SSE/AVX transition model.
 */

#include <gtest/gtest.h>

#include "test_util.h"

namespace uops::test {
namespace {

using uarch::UArch;

// ---------------------------------------------------------------------
// Latency through dependency chains.
// ---------------------------------------------------------------------

TEST(SimLatency, AddChainIsOneCyclePerInstruction)
{
    // ADD RAX, RBX is a read-modify-write on RAX: a chain.
    auto m = measure(UArch::Skylake, "ADD RAX, RBX");
    EXPECT_NEAR(m.cycles, 1.0, 0.05);
}

TEST(SimLatency, MovsxChainIsOneCyclePerInstruction)
{
    // MOVSX RAX<-AX depends on the previous write of RAX.
    auto m = measure(UArch::Skylake, "MOVSX RAX, AX");
    EXPECT_NEAR(m.cycles, 1.0, 0.05);
}

TEST(SimLatency, ImulChainIsThreeCycles)
{
    auto m = measure(UArch::Haswell, "IMUL RAX, RAX");
    EXPECT_NEAR(m.cycles, 3.0, 0.05);
}

TEST(SimLatency, LoadChainPointerChase)
{
    // MOV RAX, [RAX]: classic pointer chase at L1 load latency.
    auto m = measure(UArch::Skylake, "MOV RAX, [RAX]");
    EXPECT_NEAR(m.cycles, 4.0, 0.05);
    auto m_snb = measure(UArch::SandyBridge, "MOV RAX, [RAX]");
    EXPECT_NEAR(m_snb.cycles, 5.0, 0.05);
}

TEST(SimLatency, FpAddChain)
{
    auto m_hsw = measure(UArch::Haswell, "ADDPS XMM1, XMM2\n"
                                         "ADDPS XMM1, XMM3");
    EXPECT_NEAR(m_hsw.cycles, 6.0, 0.1); // 2 chained 3-cycle adds
    auto m_skl = measure(UArch::Skylake, "ADDPS XMM1, XMM2");
    EXPECT_NEAR(m_skl.cycles, 4.0, 0.05);
}

TEST(SimLatency, IndependentAddsAreNotChained)
{
    // Different destination registers: no dependency, 4 per cycle on
    // the 4 ALU ports of Skylake.
    auto m = measure(UArch::Skylake, "ADD RAX, R8\n"
                                     "ADD RBX, R8\n"
                                     "ADD RCX, R8\n"
                                     "ADD RDX, R8");
    EXPECT_NEAR(m.cycles, 1.0, 0.1); // 4 instructions / 4 ports
}

// ---------------------------------------------------------------------
// Throughput and port usage counters.
// ---------------------------------------------------------------------

TEST(SimThroughput, AluThroughputMatchesPortCount)
{
    // 8 independent ADDs per body: Nehalem has 3 ALU ports.
    std::string body;
    const char *regs[] = {"RAX", "RBX", "RCX", "RDX",
                          "RSI", "RDI", "R8", "R9"};
    for (const char *r : regs)
        body += std::string("ADD ") + r + ", R10\n";
    auto m_nhm = measure(UArch::Nehalem, body);
    EXPECT_NEAR(m_nhm.cycles / 8.0, 1.0 / 3.0, 0.05);
    auto m_skl = measure(UArch::Skylake, body);
    EXPECT_NEAR(m_skl.cycles / 8.0, 1.0 / 4.0, 0.05);
}

TEST(SimThroughput, PortCountersSumToUopCount)
{
    auto m = measure(UArch::Skylake, "ADD RAX, RBX");
    EXPECT_NEAR(m.totalPortUops(), 1.0, 0.05);
    auto m2 = measure(UArch::Skylake, "ADD [RBX], RAX");
    EXPECT_NEAR(m2.totalPortUops(), 4.0, 0.05); // load+alu+sta+std
}

TEST(SimThroughput, SingleAluUopBalancesOverPorts)
{
    // Repeated in isolation, a p0156 µop spreads evenly.
    auto m = measure(UArch::Skylake, "ADD RAX, R8\n"
                                     "ADD RBX, R8\n"
                                     "ADD RCX, R8\n"
                                     "ADD RDX, R8");
    EXPECT_NEAR(m.port_uops[0], 1.0, 0.15);
    EXPECT_NEAR(m.port_uops[1], 1.0, 0.15);
    EXPECT_NEAR(m.port_uops[5], 1.0, 0.15);
    EXPECT_NEAR(m.port_uops[6], 1.0, 0.15);
}

TEST(SimThroughput, ShuffleBoundToPort5OnSkylake)
{
    auto m = measure(UArch::Skylake, "PSHUFD XMM1, XMM2, 0");
    EXPECT_NEAR(m.port_uops[5], 1.0, 0.05);
    EXPECT_NEAR(m.cycles, 1.0, 0.05); // tp 1 (single port)
}

TEST(SimThroughput, DividerIsNotFullyPipelined)
{
    // Independent DIVPS: throughput dominated by divider occupancy,
    // well above 1 cycle even though it is a single µop.
    auto m = measure(UArch::Haswell, "DIVPS XMM1, XMM2\n"
                                     "DIVPS XMM3, XMM4");
    EXPECT_GT(m.cycles / 2.0, 4.0);
}

// ---------------------------------------------------------------------
// Rename-stage eliminations.
// ---------------------------------------------------------------------

TEST(SimRename, ZeroIdiomBreaksDependencyAndUsesNoPort)
{
    // XOR RAX, RAX in a chain position: on Skylake no port µops and no
    // chain (the idiom is handled at rename).
    auto m = measure(UArch::Skylake, "XOR RAX, RAX\n"
                                     "ADD RAX, RBX");
    EXPECT_NEAR(m.totalPortUops(), 1.0, 0.05); // only the ADD executes
    // Dependency broken: ADD chain through RAX is cut every iteration.
    EXPECT_LT(m.cycles, 1.01);
}

TEST(SimRename, ZeroIdiomStillExecutesOnNehalem)
{
    // Nehalem breaks the dependency but the µop still uses a port.
    auto m = measure(UArch::Nehalem, "XOR RAX, RAX");
    EXPECT_NEAR(m.totalPortUops(), 1.0, 0.05);
}

TEST(SimRename, XorDifferentRegistersIsNotAnIdiom)
{
    auto m = measure(UArch::Skylake, "XOR RAX, RBX");
    EXPECT_NEAR(m.totalPortUops(), 1.0, 0.05);
    EXPECT_NEAR(m.cycles, 1.0, 0.05); // chained on RAX
}

TEST(SimRename, PcmpgtSameRegisterBreaksDependency)
{
    // (V)PCMPGT with identical registers: dependency-breaking but
    // still executed (Section 7.3.6).
    auto m = measure(UArch::Skylake, "PCMPGTD XMM1, XMM1\n"
                                     "PADDD XMM1, XMM2");
    EXPECT_NEAR(m.totalPortUops(), 2.0, 0.05); // both execute
    EXPECT_LE(m.cycles, 1.01);                 // but no loop dependency
}

TEST(SimRename, MovEliminationIsFlaky)
{
    // A chain of dependent MOVs: roughly one third get eliminated
    // (zero latency), the rest execute with 1-cycle latency, so the
    // chain runs at about 2/3 cycles per MOV (the paper's observation
    // motivating MOVSX chains).
    auto m = measure(UArch::IvyBridge, "MOV RAX, RBX\n"
                                       "MOV RBX, RAX");
    EXPECT_GT(m.uops_eliminated, 0.1);
    EXPECT_LT(m.cycles / 2.0, 1.0);
    EXPECT_GT(m.cycles / 2.0, 0.4);
}

TEST(SimRename, NoMovEliminationOnNehalem)
{
    auto m = measure(UArch::Nehalem, "MOV RAX, RBX\n"
                                     "MOV RBX, RAX");
    EXPECT_NEAR(m.cycles / 2.0, 1.0, 0.05);
}

TEST(SimRename, NopUsesNoExecutionPort)
{
    auto m = measure(UArch::Skylake, "NOP\nNOP\nNOP\nNOP");
    EXPECT_NEAR(m.totalPortUops(), 0.0, 0.01);
    EXPECT_NEAR(m.cycles, 1.0, 0.05); // 4-wide issue bound
}

// ---------------------------------------------------------------------
// Flags and partial registers.
// ---------------------------------------------------------------------

TEST(SimFlags, FlagDependencyChains)
{
    // CMC reads and writes CF: 1-cycle chain.
    auto m = measure(UArch::Skylake, "CMC");
    EXPECT_NEAR(m.cycles, 1.0, 0.05);
}

TEST(SimFlags, IncDoesNotTouchCarry)
{
    // INC writes AZSPO but not CF; ADC reads CF. A loop of INC+ADC on
    // different registers: ADC's CF input comes from the ADC itself
    // (loop-carried through CF), INC independent.
    auto m = measure(UArch::Skylake, "INC RBX\n"
                                     "ADC RAX, RCX");
    // ADC chain: 1 cycle; INC runs in parallel.
    EXPECT_NEAR(m.cycles, 1.0, 0.1);
}

TEST(SimFlags, TestBreaksFlagDependencyForWrite)
{
    // TEST writes flags without reading them: a CMC chain interleaved
    // with TEST is cut (TEST renames CF away from the chain).
    auto m = measure(UArch::Skylake, "TEST R8, R8\n"
                                     "CMC");
    EXPECT_LE(m.cycles, 1.01);
}

TEST(SimPartialReg, NarrowWriteMergesWithOldValue)
{
    // MOV AL, BL writes the low byte: merge dependency on RAX chain.
    auto m = measure(UArch::Skylake, "ADD RAX, R9\n"
                                     "MOV AL, BL");
    // Both are on the RAX chain: about 2 cycles per iteration.
    EXPECT_GT(m.cycles, 1.9);
}

TEST(SimPartialReg, MovsxAvoidsPartialStall)
{
    // MOVSX reads the narrow part but writes the full register.
    auto m = measure(UArch::Skylake, "MOVSX RAX, AL");
    EXPECT_NEAR(m.cycles, 1.0, 0.05);
}

// ---------------------------------------------------------------------
// Memory.
// ---------------------------------------------------------------------

TEST(SimMemory, StoreToLoadForwardingRoundTrip)
{
    // The Section 5.2.4 sequence: store + dependent load.
    auto m = measure(UArch::Skylake, "MOV [RAX], RBX\n"
                                     "MOV RBX, [RAX]");
    // Round trip well above 1 cycle (IACA wrongly reports 1).
    EXPECT_GT(m.cycles, 4.0);
    EXPECT_LT(m.cycles, 10.0);
}

TEST(SimMemory, IndependentLoadsPipelined)
{
    auto m = measure(UArch::Skylake, "MOV RBX, [RAX]\n"
                                     "MOV RCX, [RAX+64]\n"
                                     "MOV RDX, [RAX+128]\n"
                                     "MOV RSI, [RAX+192]");
    // Two load ports: 4 loads take ~2 cycles.
    EXPECT_NEAR(m.cycles, 2.0, 0.2);
}

TEST(SimMemory, StoresUseStaAndStdPorts)
{
    auto m = measure(UArch::Nehalem, "MOV [RAX], RBX");
    EXPECT_NEAR(m.port_uops[3], 1.0, 0.05); // NHM store-address on p3
    EXPECT_NEAR(m.port_uops[4], 1.0, 0.05); // store-data on p4
}

// ---------------------------------------------------------------------
// Divider value dependence.
// ---------------------------------------------------------------------

TEST(SimDivider, ValueDependentLatency)
{
    using isa::DivValueClass;
    const auto &db = defaultDb();
    const auto *divps = db.byName("DIVPS_X_X");
    ASSERT_NE(divps, nullptr);

    auto chain = [&](DivValueClass cls) {
        isa::Kernel body;
        auto inst = isa::makeInstance(
            *divps, {isa::OperandValue{.reg = {isa::RegClass::Xmm, 1}},
                     isa::OperandValue{.reg = {isa::RegClass::Xmm, 2}}});
        inst.div_class = cls;
        body.push_back(inst);
        sim::MeasurementHarness harness(timingDb(UArch::Haswell));
        return harness.measure(body).cycles;
    };
    double fast = chain(DivValueClass::Fast);
    double slow = chain(DivValueClass::Slow);
    EXPECT_GT(slow, fast + 1.0);
}

// ---------------------------------------------------------------------
// SSE/AVX transitions.
// ---------------------------------------------------------------------

TEST(SimSseAvx, DirtyUpperCreatesMergeDependency)
{
    // An AVX-256 write leaves the upper state dirty; a legacy-SSE
    // instruction then carries a false output dependency (its writes
    // merge), so independent SSE adds become a chain.
    std::string mixed = "VADDPS YMM1, YMM2, YMM3\n"
                        "ADDPS XMM4, XMM5\n"
                        "ADDPS XMM4, XMM6";
    auto m = measure(UArch::Skylake, mixed);
    // The two ADDPS serialise on XMM4: >= 8 cycles per iteration.
    EXPECT_GT(m.cycles, 7.5);

    // With VZEROUPPER the false dependency disappears... but the SSE
    // adds still chain on XMM4 architecturally here, so compare a
    // truly independent pair instead:
    std::string clean = "VADDPS YMM1, YMM2, YMM3\n"
                        "VZEROUPPER\n"
                        "ADDPS XMM4, XMM5\n"
                        "ADDPS XMM7, XMM6";
    auto m2 = measure(UArch::Skylake, clean);
    EXPECT_LT(m2.cycles, 5.0);
}

// ---------------------------------------------------------------------
// Serialization markers (Algorithm 2 plumbing).
// ---------------------------------------------------------------------

TEST(SimHarness, OverheadCancellation)
{
    // The n=10/110 subtraction must cancel the serializing and
    // counter-read overhead exactly: a 1-cycle chain measures 1.0.
    auto m = measure(UArch::Haswell, "ADD RAX, RBX");
    EXPECT_NEAR(m.cycles, 1.0, 0.02);
}

} // namespace
} // namespace uops::test
