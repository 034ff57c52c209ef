/**
 * @file
 * Unit tests for the cycle-level pipeline simulator: dependency
 * chains, port throughput, renaming, eliminations, memory, divider,
 * flags, the SSE/AVX transition model, the scheduler's edge cases
 * against recorded results, allocation-free runs, and kernels built
 * without per-operand allocations.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "core/codegen.h"
#include "sim/pipeline.h"
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

TEST(SimHarness, MarkerPastTheKernelIsRefused)
{
    // No instruction retires at a marker past the kernel, so its
    // snapshot would stay all zero.
    sim::Pipeline pipeline(timingDb(UArch::Skylake));
    auto kernel = asm_("ADD RAX, RBX\nADD RCX, RDX");
    EXPECT_EQ(pipeline.run(kernel, {1}).snapshots.at(0).instrs_retired, 2);
    EXPECT_THROW(pipeline.run(kernel, {0, 2}), PanicError);
    try {
        pipeline.run(kernel, {5});
        ADD_FAILURE() << "marker 5 of 2 instructions was accepted";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("marker 5"), std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Scheduler edge cases, pinned to recorded results.
// ---------------------------------------------------------------------

/** Kernels that exercise the scheduler's corner cases. */
const std::pair<const char *, const char *> kSchedulerKernels[] = {
    // A load (low port) and a multiply wake consumers that bind to
    // higher-numbered ports in the middle of the dispatch port loop.
    {"wake-from-lower-port",
     "MOV RAX, [RBX]\nADD RAX, RCX\nIMUL RDX, RAX\nADD RSI, RDX\n"
     "PSHUFD XMM1, XMM2, 0\nPADDD XMM3, XMM1"},
    // ADD RBX waits on the multiply while younger independent adds
    // queue on the same ports; once woken it is the oldest.
    {"woken-older-than-queued",
     "IMUL RAX, RAX\nADD RBX, RAX\nADD RCX, R8\nADD RDX, R8\n"
     "ADD RSI, R8\nADD RDI, R8\nADD R9, R8\nADD R10, R8"},
    // The first DIVPS waits on a source and on the divider SQRTPS
    // holds; the second waits on the divider alone.
    {"divider-busy-source-pending",
     "SQRTPS XMM1, XMM2\nADDPS XMM3, XMM1\nDIVPS XMM4, XMM3\n"
     "DIVPS XMM5, XMM6"},
    // Every source read twice.
    {"duplicate-sources",
     "ADD RAX, RAX\nIMUL RBX, RBX\nPADDQ XMM1, XMM1\nADC RCX, RCX\n"
     "SHLD RDX, RDX, 3"},
    // Serializing instructions drain the core behind long latencies.
    {"serializer-drain",
     "IMUL RAX, RBX\nCPUID\nADD RAX, RCX\nLFENCE\nDIV RBX\nLFENCE"},
};

std::string
renderCounters(const sim::PerfCounters &c)
{
    std::string out = "c=" + std::to_string(c.cycles) + " p=";
    for (int p = 0; p < sim::kMaxPorts; ++p)
        out += (p ? ":" : "") + std::to_string(c.port_uops[p]);
    return out + " i=" + std::to_string(c.uops_issued) +
           " e=" + std::to_string(c.uops_eliminated) +
           " r=" + std::to_string(c.instrs_retired);
}

std::string
renderRun(const sim::RunResult &r)
{
    std::string out = "cycles=" + std::to_string(r.cycles) +
                      " simulated=" + std::to_string(r.simulated_cycles) +
                      " final{" + renderCounters(r.final) + "}";
    for (const sim::PerfCounters &snap : r.snapshots)
        out += " snap{" + renderCounters(snap) + "}";
    return out;
}

TEST(SimScheduler, EdgeCasesMatchRecordedResults)
{
    // tests/data/scheduler_goldens.txt was recorded by the scan-based
    // scheduler that rescanned every bound µop each cycle; the
    // event-driven one must reproduce it exactly, with and without
    // idle-cycle skipping. Never re-record it for a refactor. Each
    // n-copy line is the materialized wrapped kernel's run, except
    // `simulated=`: that is its cycles less the cycles the body-only
    // logical run of the same n cuts by exact fast-forward.
    std::ifstream file(std::string(UOPS_TEST_DATA_DIR) +
                       "/scheduler_goldens.txt");
    ASSERT_TRUE(file) << "missing scheduler_goldens.txt";
    std::vector<std::string> expected;
    for (std::string line; std::getline(file, line);)
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);

    sim::SimOptions stepping;
    stepping.skip_idle = false;
    auto prologue = asm_("MOV RAX, 7\nCPUID\nRDTSC\nCPUID");
    auto epilogue = asm_("CPUID\nRDTSC\nCPUID\nADD RAX, RBX");
    std::vector<std::string> actual;
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        sim::Pipeline slow(tdb, stepping);
        for (const auto &[name, listing] : kSchedulerKernels) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            std::string what = uarch::uarchName(arch) + " " + name;
            sim::DecodedKernel decoded(tdb, body);
            std::string flat_line;
            for (int n : {sim::kUnrollSmall, sim::kUnrollLarge}) {
                isa::Kernel flat = prologue;
                for (int i = 0; i < n; ++i)
                    flat.insert(flat.end(), body.begin(), body.end());
                flat.insert(flat.end(), epilogue.begin(), epilogue.end());
                std::vector<size_t> markers = {2, flat.size() - 2};
                sim::RunResult run = pipeline.run(flat, markers);
                EXPECT_EQ(renderRun(run), renderRun(slow.run(flat, markers)))
                    << what << " n=" << n << " flat: skipping is not exact";
                if (n == sim::kUnrollSmall)
                    flat_line = what + " flat " + renderRun(run);

                sim::RunResult bare = pipeline.run(decoded, n);
                EXPECT_EQ(renderRun(bare), renderRun(slow.run(decoded, n)))
                    << what << " n=" << n << ": skipping is not exact";
                run.simulated_cycles =
                    run.cycles - (bare.cycles - bare.simulated_cycles);
                actual.push_back(what + " n=" + std::to_string(n) + " " +
                                 renderRun(run));
            }
            actual.push_back(flat_line);
        }
    }

    for (size_t i = 0; i < std::max(expected.size(), actual.size()); ++i)
        EXPECT_EQ(i < expected.size() ? expected[i] : "<none>",
                  i < actual.size() ? actual[i] : "<none>")
            << "line " << i + 1;
    if (HasFailure()) {
        std::ostringstream all;
        for (const std::string &line : actual)
            all << line << "\n";
        ADD_FAILURE() << "results:\n" << all.str();
    }
}

/** @p count independent `ADD reg, R15`, cycling over @p regs. */
std::string
addFiller(int count, std::initializer_list<const char *> regs)
{
    std::string out;
    for (int i = 0; i < count; ++i)
        out += std::string("ADD ") +
               regs.begin()[static_cast<size_t>(i) % regs.size()] +
               ", R15\n";
    return out;
}

/** Bodies longer than the reorder-buffer ring, or whose µops or fused
 *  pair straddle a wrap of it. */
std::vector<std::pair<std::string, std::string>>
longBodies()
{
    const auto regs = {"RCX", "RSI", "RDI", "RBP", "R8", "R9", "R10",
                       "R11", "R12", "R13", "R14"};
    std::string fused_pairs;
    for (int i = 0; i < 100; ++i)
        fused_pairs += "CMP RCX, RSI\nJZ 1\n";
    return {
        // More than 256 µops per copy.
        {"adds-300", addFiller(300, regs)},
        // CPUID's 20 µops start at µop 245 of copy 0 and 254 of copy 1.
        {"cpuid-wrap", addFiller(245, regs) + "CPUID"},
        // The last instruction fuses with the next copy's first.
        {"fused-copy-wrap",
         "JZ 1\n" + addFiller(248, regs) + "CMP RAX, RBX"},
        // The divider holds retirement while the ROB fills behind it.
        {"div-rob-full", "DIV RBX\n" + addFiller(60, regs)},
        // ... for longer, behind fused pairs: two in-flight
        // instructions per µop.
        {"div-fused-pairs", "DIV RBX\nDIV RBX\nDIV RBX\n" + fused_pairs},
    };
}

TEST(SimScheduler, LongBodiesMatchRecordedResults)
{
    // tests/data/long_body_goldens.txt was recorded by the simulator
    // whose reorder buffer held every µop of the run; a bounded ROB
    // must reproduce it exactly. Never re-record it for a refactor.
    // Each body runs as n = 10 and n = 110 logical copies with a
    // 10-copy prefix, and as the materialized one-copy kernel.
    std::ifstream file(std::string(UOPS_TEST_DATA_DIR) +
                       "/long_body_goldens.txt");
    ASSERT_TRUE(file) << "missing long_body_goldens.txt";
    std::vector<std::string> expected;
    for (std::string line; std::getline(file, line);)
        if (!line.empty() && line[0] != '#')
            expected.push_back(line);

    std::vector<std::string> actual;
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        for (const auto &[name, listing] : longBodies()) {
            auto body = asm_(listing);
            std::string what = uarch::uarchName(arch) + " " + name;
            sim::DecodedKernel decoded(tdb, body);
            for (int n : {sim::kUnrollSmall, sim::kUnrollLarge}) {
                sim::RunResult run =
                    pipeline.run(decoded, n, sim::kUnrollSmall);
                actual.push_back(what + " n=" + std::to_string(n) + " " +
                                 renderRun(run) + " prefix{" +
                                 renderCounters(run.prefix) + "}");
            }
            actual.push_back(what + " flat " + renderRun(pipeline.run(body)));
        }
    }

    for (size_t i = 0; i < std::max(expected.size(), actual.size()); ++i)
        EXPECT_EQ(i < expected.size() ? expected[i] : "<none>",
                  i < actual.size() ? actual[i] : "<none>")
            << "line " << i + 1;
    if (HasFailure()) {
        std::ostringstream all;
        for (const std::string &line : actual)
            all << line << "\n";
        ADD_FAILURE() << "results:\n" << all.str();
    }
}

// ---------------------------------------------------------------------
// Allocation-free runs.
// ---------------------------------------------------------------------

TEST(SimAllocation, TableUopsFitInline)
{
    // A renamed µop holds its value ids inline; one with more sources
    // or destinations than that would allocate on every copy. The
    // reorder-buffer ring has room for rob_size µops plus one
    // instruction's, at most kMaxInstrUops.
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        const uarch::UArchInfo &info = uarch::uarchInfo(arch);
        for (const isa::InstrVariant *variant : defaultDb().all()) {
            if (!info.supports(*variant))
                continue;
            core::RegPool pool(core::RegPool::Zone::Analyzed);
            isa::Kernel body = {core::makeIndependent(*variant, pool)};
            sim::DecodedKernel decoded(tdb, body);
            const sim::DecodedInstr &d = decoded.at(0);
            EXPECT_LE(d.uops->size(), sim::kMaxInstrUops)
                << uarch::uarchName(arch) << " " << variant->name();
            for (const sim::UopPlan &plan : d.plan) {
                EXPECT_LE(plan.srcs.size(), sim::kUopSrcsInline)
                    << uarch::uarchName(arch) << " " << variant->name();
                EXPECT_LE(plan.dsts.size(), sim::kUopDstsInline)
                    << uarch::uarchName(arch) << " " << variant->name();
            }
        }
    }
}

TEST(SimAllocation, BuildingKernelsAllocatesNothingPerOperand)
{
    // A throughput or blocking kernel's instances each allocate their
    // operand array; the explicit values they are built from, the
    // pool's registers and the variant's operand list cost nothing.
    const isa::InstrVariant &add = *defaultDb().byName("ADD_R64_R64");
    constexpr int kCount = 96;
    core::RegPool pool(core::RegPool::Zone::Analyzed);
    core::independentSequence(add, pool, kCount); // warms the pool
    g_allocations = 0;
    g_count_allocations = true;
    isa::Kernel kernel = core::independentSequence(add, pool, kCount);
    g_count_allocations = false;
    ASSERT_EQ(kernel.size(), static_cast<size_t>(kCount));
    // One more for the kernel's own array.
    EXPECT_LE(g_allocations.load(), kCount + 1u);
}

TEST(SimAllocation, RunsAllocateNothingPerUopOrCopy)
{
    // Flags read and written, memory operands, store forwarding, a
    // five-source µop, partial-register and dirty-upper merges, the
    // divider and macro-fusion; then bodies that reuse every slot of
    // the reorder-buffer ring within a copy, one with CPUID's µops
    // across its wrap.
    std::vector<std::pair<std::string, std::string>> bodies;
    for (const char *listing :
         {"ADD RAX, [RBX]\nADC RCX, RDX\nCMP RAX, RCX\nJZ 1",
          "ADD [RCX], RDX\nMOV RSI, [RCX]\nSHLD RDI, RSI, 3\nMOV AL, BL",
          "VADDPS YMM0, YMM0, YMM1\nADDPS XMM2, XMM3\nDIV RBX\nCMC"})
        bodies.emplace_back(listing, listing);
    bodies.push_back(longBodies()[0]);
    bodies.push_back(longBodies()[1]);
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        for (const auto &[name, listing] : bodies) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            sim::DecodedKernel decoded(tdb, body);
            // Counting every copy as the prefix keeps every copy
            // simulated (the period search starts after the prefix),
            // so a per-copy allocation cannot hide in the
            // fast-forwarded tail.
            auto countAllocations = [&](int n) {
                g_allocations = 0;
                g_count_allocations = true;
                sim::RunResult run = pipeline.run(decoded, n, n);
                g_count_allocations = false;
                EXPECT_EQ(run.simulated_cycles, run.cycles);
                return g_allocations.load();
            };
            // Warm the scratch arena to the larger run's size.
            pipeline.run(decoded, sim::kUnrollLarge, sim::kUnrollLarge);
            size_t small = countAllocations(sim::kUnrollSmall);
            size_t large = countAllocations(sim::kUnrollLarge);
            EXPECT_EQ(small, large)
                << uarch::uarchName(arch) << " " << name
                << ": a run allocates per µop or per copy";
        }
    }
}

} // namespace
} // namespace uops::test
