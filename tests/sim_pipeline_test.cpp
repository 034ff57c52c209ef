/**
 * @file
 * Unit tests for the cycle-level pipeline simulator: dependency
 * chains, port throughput, renaming, eliminations, memory, divider,
 * flags, the SSE/AVX transition model, the scheduler's edge cases
 * against recorded results, allocation-free runs, and kernels built
 * without per-operand allocations.
 */

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include <gtest/gtest.h>

#include "core/codegen.h"
#include "sim/pipeline.h"
#include "test_util.h"

// Counts the heap allocations this binary makes while counting is on.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

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
    // idle-cycle skipping. Never re-record it for a refactor.
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
            sim::DecodedKernel decoded(tdb, prologue, body, epilogue);
            for (int n : {sim::kUnrollSmall, sim::kUnrollLarge}) {
                std::vector<size_t> markers = {2,
                                               decoded.totalSize(n) - 2};
                sim::RunResult run = pipeline.run(decoded, n, markers);
                EXPECT_EQ(renderRun(run),
                          renderRun(slow.run(decoded, n, markers)))
                    << what << " n=" << n << ": skipping is not exact";
                actual.push_back(what + " n=" + std::to_string(n) + " " +
                                 renderRun(run));
            }
            isa::Kernel flat = prologue;
            for (int i = 0; i < sim::kUnrollSmall; ++i)
                flat.insert(flat.end(), body.begin(), body.end());
            flat.insert(flat.end(), epilogue.begin(), epilogue.end());
            std::vector<size_t> markers = {2, flat.size() - 2};
            sim::RunResult run = pipeline.run(flat, markers);
            EXPECT_EQ(renderRun(run), renderRun(slow.run(flat, markers)))
                << what << " flat: skipping is not exact";
            actual.push_back(what + " flat " + renderRun(run));
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
    // or destinations than that would allocate on every copy.
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        const uarch::UArchInfo &info = uarch::uarchInfo(arch);
        for (const isa::InstrVariant *variant : defaultDb().all()) {
            if (!info.supports(*variant))
                continue;
            core::RegPool pool(core::RegPool::Zone::Analyzed);
            isa::Kernel body = {core::makeIndependent(*variant, pool)};
            sim::DecodedKernel decoded(tdb, {}, body, {});
            const sim::DecodedInstr &d = *decoded.at(0, 1).instr;
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
    // operand array and the explicit values they are built from; the
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
    EXPECT_LE(g_allocations.load(), 2u * kCount + 1);
}

TEST(SimAllocation, RunsAllocateNothingPerUopOrCopy)
{
    // Flags read and written, memory operands, store forwarding, a
    // five-source µop, partial-register and dirty-upper merges, the
    // divider and macro-fusion.
    const char *const bodies[] = {
        "ADD RAX, [RBX]\nADC RCX, RDX\nCMP RAX, RCX\nJZ 1",
        "ADD [RCX], RDX\nMOV RSI, [RCX]\nSHLD RDI, RSI, 3\nMOV AL, BL",
        "VADDPS YMM0, YMM0, YMM1\nADDPS XMM2, XMM3\nDIV RBX\nCMC",
    };
    auto prologue = asm_("MOV RAX, 7\nCPUID\nRDTSC\nCPUID");
    auto epilogue = asm_("CPUID\nRDTSC\nCPUID\nADD RAX, RBX");
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        for (const char *listing : bodies) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            sim::DecodedKernel decoded(tdb, prologue, body, epilogue);
            // A counter read in the last copy keeps every copy
            // simulated, so a per-copy allocation cannot hide in the
            // fast-forwarded tail.
            auto markers = [&](int n) {
                return std::vector<size_t>{
                    2, prologue.size() + body.size() * (n - 1),
                    decoded.totalSize(n) - 2};
            };
            auto countAllocations = [&](int n) {
                std::vector<size_t> at = markers(n);
                g_allocations = 0;
                g_count_allocations = true;
                sim::RunResult run = pipeline.run(decoded, n, at);
                g_count_allocations = false;
                EXPECT_EQ(run.simulated_cycles, run.cycles);
                return g_allocations.load();
            };
            // Warm the scratch arena to the larger run's size.
            pipeline.run(decoded, sim::kUnrollLarge,
                         markers(sim::kUnrollLarge));
            size_t small = countAllocations(sim::kUnrollSmall);
            size_t large = countAllocations(sim::kUnrollLarge);
            EXPECT_EQ(small, large)
                << uarch::uarchName(arch) << " " << listing
                << ": a run allocates per µop or per copy";
        }
    }
}

} // namespace
} // namespace uops::test
