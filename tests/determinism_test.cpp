/**
 * @file
 * Golden determinism suite for the measurement hot path.
 *
 * The PR-2 optimizations (decoded-µop templates with logical
 * unrolling, the reusable pipeline scratch arena, idle-cycle clock
 * skipping, and the measurement memo-cache) are pure performance
 * work: every one of them must be invisible in the results. This
 * suite pins that contract down:
 *
 *  - a MeasurementCache hit is bit-identical to the cache miss that
 *    populated it, and to an uncached harness;
 *  - one cache shared by harnesses of all nine uarches serves an
 *    entry exactly where the core and µop tables match;
 *  - runBatchSweep's per-uarch XML, with its one cache shared across
 *    uarches, is byte-identical to each uarch characterized with no
 *    cache, on 1 and 4 worker threads;
 *  - a nine-uarch sweep's XML digest matches the committed one, so
 *    the measured results are pinned across commits too;
 *  - logical unrolling over a DecodedKernel body, with the exact
 *    fast-forward of its periodic tail, reproduces the materialized
 *    n-copy kernel exactly on all nine uarches, including
 *    macro-fusion across copy boundaries;
 *  - a cycle budget admits and refuses the runs it would without
 *    the fast-forward;
 *  - a Pipeline reusing its scratch arena across runs reproduces a
 *    fresh pipeline's results run for run;
 *  - idle-cycle skipping is cycle-exact against plain stepping.
 */

#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "sim/block_predict.h"
#include "sim/measurement_cache.h"
#include "support/hash.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace uops::test {
namespace {

using uarch::UArch;

void
expectCountersEqual(const sim::PerfCounters &a,
                    const sim::PerfCounters &b, const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    for (int p = 0; p < sim::kMaxPorts; ++p)
        EXPECT_EQ(a.port_uops[static_cast<size_t>(p)],
                  b.port_uops[static_cast<size_t>(p)])
            << what << " port " << p;
    EXPECT_EQ(a.uops_issued, b.uops_issued) << what;
    EXPECT_EQ(a.uops_eliminated, b.uops_eliminated) << what;
    EXPECT_EQ(a.instrs_retired, b.instrs_retired) << what;
}

void
expectRunsEqual(const sim::RunResult &a, const sim::RunResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    expectCountersEqual(a.final, b.final, what + " final");
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size()) << what;
    for (size_t i = 0; i < a.snapshots.size(); ++i)
        expectCountersEqual(a.snapshots[i], b.snapshots[i],
                            what + " snapshot " + std::to_string(i));
}

/** Bit-exact Measurement comparison (doubles compared with ==). */
void
expectMeasurementsIdentical(const sim::Measurement &a,
                            const sim::Measurement &b,
                            const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    for (int p = 0; p < sim::kMaxPorts; ++p)
        EXPECT_EQ(a.port_uops[static_cast<size_t>(p)],
                  b.port_uops[static_cast<size_t>(p)])
            << what << " port " << p;
    EXPECT_EQ(a.uops_issued, b.uops_issued) << what;
    EXPECT_EQ(a.uops_eliminated, b.uops_eliminated) << what;
}

// ---------------------------------------------------------------------
// Measurement memo-cache.
// ---------------------------------------------------------------------

TEST(Determinism, CacheHitIsBitIdenticalToMissAndToUncached)
{
    const auto &tdb = timingDb(UArch::Skylake);
    const std::vector<std::string> bodies = {
        "ADD RAX, RBX",
        "IMUL RAX, RBX\nPSHUFD XMM1, XMM2, 0",
        "DIV RBX",
        "MOV [RAX], RBX\nMOV RCX, [RAX]",
        "CMP RAX, RBX\nJZ 1",
    };

    sim::MeasurementCache cache;
    sim::MeasurementHarness cached(tdb);
    cached.setCache(&cache);
    sim::MeasurementHarness uncached(tdb);

    for (const std::string &listing : bodies) {
        auto body = asm_(listing);
        sim::Measurement miss = cached.measure(body);  // populates
        sim::Measurement hit = cached.measure(body);   // serves
        sim::Measurement plain = uncached.measure(body);
        expectMeasurementsIdentical(miss, hit, listing + " hit/miss");
        expectMeasurementsIdentical(plain, miss,
                                    listing + " cached/uncached");
    }
    EXPECT_EQ(cache.size(), bodies.size());
    EXPECT_GE(cache.hits(), bodies.size());
}

TEST(Determinism, FingerprintSeparatesKernels)
{
    auto a = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RBX"));
    auto b = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RCX"));
    auto c = sim::MeasurementCache::fingerprint(asm_("ADD RAX, RBX\n"
                                                     "ADD RAX, RBX"));
    EXPECT_NE(a, b); // operands differ
    EXPECT_NE(a, c); // lengths differ
    EXPECT_EQ(a, sim::MeasurementCache::fingerprint(asm_("ADD RAX, RBX")));

    // Fields packed narrower than they are declared still separate.
    EXPECT_NE(sim::MeasurementCache::fingerprint(asm_("ADD RAX, 1")),
              sim::MeasurementCache::fingerprint(asm_("ADD RAX, 257")))
        << "immediate";
    EXPECT_NE(sim::MeasurementCache::fingerprint(asm_("ADD RAX, -1")),
              sim::MeasurementCache::fingerprint(asm_("ADD RAX, 255")))
        << "immediate sign";
    EXPECT_NE(
        sim::MeasurementCache::fingerprint(asm_("MOV RCX, [RAX]")),
        sim::MeasurementCache::fingerprint(asm_("MOV RCX, [RAX+256]")))
        << "memory tag";
    isa::Kernel fast = asm_("DIV RBX");
    isa::Kernel slow = fast;
    fast[0].div_class = isa::DivValueClass::Fast;
    slow[0].div_class = isa::DivValueClass::Slow;
    EXPECT_NE(sim::MeasurementCache::fingerprint(fast),
              sim::MeasurementCache::fingerprint(slow))
        << "divider value class";

    // The /predict kernel memo keys on the uarch name followed by the
    // cache key, so one kernel never aliases across generations.
    EXPECT_EQ(sim::BlockPredictor::fingerprint(UArch::Skylake,
                                               asm_("ADD RAX, RBX")),
              std::string("SKL") + '\0' + a);
    EXPECT_NE(sim::BlockPredictor::fingerprint(UArch::Skylake,
                                               asm_("ADD RAX, RBX")),
              sim::BlockPredictor::fingerprint(UArch::Haswell,
                                               asm_("ADD RAX, RBX")));
}

TEST(Determinism, CacheSharesExactlyWhereCoreAndTimingsMatch)
{
    // Nine harnesses, one per uarch, over one cache: a refresh
    // generation replays its predecessor's entries, and nothing else
    // is shared.
    const std::vector<std::string> corpus = {
        "ADD RAX, RBX",
        "ADC RAX, RBX",
        "DIV RBX",
        "MOV RAX, RBX\nMOV RBX, RAX",
        "VXORPS XMM0, XMM1, XMM2\nVPXOR XMM3, XMM0, XMM4",
        "CMP RAX, RBX\nJZ 1",
        "SHLD RAX, RAX, 1",
        "MOV [RAX], RBX\nMOV RCX, [RAX]",
        // Same µop tables on WSM and SNB; only SNB's core fuses.
        "ADD RAX, RBX\nJZ 1",
    };

    sim::MeasurementCache cache;
    std::map<UArch, std::unique_ptr<sim::MeasurementHarness>> cached;
    for (UArch arch : uarch::allUArches()) {
        cached[arch] =
            std::make_unique<sim::MeasurementHarness>(timingDb(arch));
        cached[arch]->setCache(&cache);
    }
    // The entries each (uarch, body) added, and its result.
    struct Run
    {
        size_t added = 0;
        sim::Measurement m;
    };
    std::map<std::pair<UArch, std::string>, Run> runs;
    for (UArch arch : uarch::allUArches()) {
        sim::MeasurementHarness uncached(timingDb(arch));
        for (const std::string &listing : corpus) {
            isa::Kernel body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            Run &run = runs[{arch, listing}];
            size_t before = cache.size();
            run.m = cached[arch]->measure(body);
            run.added = cache.size() - before;
            expectMeasurementsIdentical(
                uncached.measure(body), run.m,
                uarch::uarchShortName(arch) + ": " + listing);
        }
    }
    auto run = [&runs](UArch arch, const std::string &listing) {
        return runs.at({arch, listing});
    };
    auto timingId = [&cache](UArch arch, const isa::InstrVariant &v) {
        return cache.timingId(timingDb(arch).timing(v));
    };

    for (const std::string &listing : corpus) {
        if (!supportedOn(UArch::Skylake, asm_(listing)))
            continue;
        EXPECT_EQ(run(UArch::KabyLake, listing).added, 0u) << listing;
        EXPECT_EQ(run(UArch::CoffeeLake, listing).added, 0u) << listing;
    }

    // ADC's tables differ between HSW and BDW: two entries.
    const std::string adc = "ADC RAX, RBX";
    EXPECT_EQ(run(UArch::Haswell, adc).added, 1u);
    EXPECT_EQ(run(UArch::Broadwell, adc).added, 1u);
    EXPECT_NE(timingId(UArch::Haswell, *asm_(adc)[0].variant),
              timingId(UArch::Broadwell, *asm_(adc)[0].variant));
    EXPECT_EQ(run(UArch::Broadwell, "ADD RAX, RBX").added, 0u);

    // IVB's core eliminates moves and SNB's does not.
    const std::string chain = "MOV RAX, RBX\nMOV RBX, RAX";
    EXPECT_EQ(run(UArch::SandyBridge, chain).added, 1u);
    EXPECT_EQ(run(UArch::IvyBridge, chain).added, 1u);
    EXPECT_NE(run(UArch::SandyBridge, chain).m.uops_eliminated,
              run(UArch::IvyBridge, chain).m.uops_eliminated);

    // Equal tables on different cores: only the core id separates
    // WSM's unfused run from SNB's fused one.
    const std::string alu_jcc = "ADD RAX, RBX\nJZ 1";
    for (const isa::InstrInstance &inst : asm_(alu_jcc))
        EXPECT_EQ(timingId(UArch::Westmere, *inst.variant),
                  timingId(UArch::SandyBridge, *inst.variant))
            << inst.variant->name();
    EXPECT_EQ(run(UArch::SandyBridge, alu_jcc).added, 1u);
    EXPECT_NE(run(UArch::Westmere, alu_jcc).m.uops_issued,
              run(UArch::SandyBridge, alu_jcc).m.uops_issued);
}

TEST(Determinism, SharedCacheIsThreadSafeAndExact)
{
    const auto &tdb = timingDb(UArch::Haswell);
    sim::MeasurementCache cache;
    sim::MeasurementHarness reference(tdb);
    auto body = asm_("IMUL RAX, RBX\nADD RCX, RDX");
    sim::Measurement expected = reference.measure(body);

    ThreadPool pool(4);
    std::vector<sim::Measurement> results(64);
    pool.parallelFor(results.size(), [&](size_t i, size_t) {
        // One harness per task: harnesses are single-threaded, the
        // cache is the shared object under test.
        sim::MeasurementHarness harness(tdb);
        harness.setCache(&cache);
        results[i] = harness.measure(body);
    });
    for (size_t i = 0; i < results.size(); ++i)
        expectMeasurementsIdentical(expected, results[i],
                                    "task " + std::to_string(i));
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// Batch XML byte-stability.
// ---------------------------------------------------------------------

TEST(Determinism, BatchXmlByteIdenticalAcrossCacheAndThreads)
{
    core::Characterizer::Options characterizer;
    characterizer.filter = [](const isa::InstrVariant &v) {
        const std::string &m = v.mnemonic();
        return m == "ADD" || m == "PXOR" || m == "DIV" ||
               m == "MOVAPS" || m == "VPXOR";
    };
    // HSW/BDW and SKL/KBL/CFL share cores and most µop tables, so the
    // sweep's one cache serves hits across uarches here.
    const std::vector<UArch> arches = {UArch::Haswell, UArch::Broadwell,
                                       UArch::Skylake, UArch::KabyLake};

    // Uncached baseline: each uarch characterized on its own.
    std::vector<std::string> baseline;
    for (UArch arch : arches)
        baseline.push_back(
            core::exportResultsXml(
                core::Characterizer(defaultDb(), arch, characterizer)
                    .run())
                ->toString());

    for (size_t threads : {size_t{1}, size_t{4}}) {
        core::BatchOptions options;
        options.num_threads = threads;
        options.characterizer = characterizer;
        core::CharacterizationReport report =
            core::runBatchSweep(defaultDb(), arches, options);
        EXPECT_EQ(report.numFailed(), 0u);
        ASSERT_EQ(report.uarches.size(), arches.size());
        for (size_t a = 0; a < arches.size(); ++a)
            EXPECT_EQ(baseline[a],
                      core::exportResultsXml(report.uarches[a].toSet())
                          ->toString())
                << uarch::uarchShortName(arches[a]) << " with "
                << threads << " thread(s)";
    }
}

TEST(Determinism, SweepDigestIsCommitted)
{
    // Cross-commit oracle: the measured results themselves are
    // pinned, not just their stability within one build. The filter
    // covers the dividers and the Section 7.3 cases on all nine
    // uarches. Only a change meant to alter measurements re-records
    // the constant: run `determinism_test
    // --gtest_filter=*SweepDigest*`, copy the digest the failure
    // prints into kCommittedDigest, and say in CHANGES.md which
    // results moved and why.
    constexpr uint64_t kCommittedDigest = 0x4014635facb2651bull;

    core::BatchOptions options;
    options.characterizer.filter = [](const isa::InstrVariant &v) {
        static const std::set<std::string> mnemonics = {
            "ADD",  "IMUL",   "DIV",   "IDIV",   "SHLD",   "BSWAP",
            "PXOR", "MOVAPS", "VPXOR", "AESDEC", "MOVQ2DQ"};
        return mnemonics.count(v.mnemonic()) != 0;
    };
    std::string xml =
        core::runBatchSweep(defaultDb(), uarch::allUArches(), options)
            .toXmlString();
    EXPECT_EQ(hashHex(fnv1a64(xml)), hashHex(kCommittedDigest))
        << "measured results changed";
}

// ---------------------------------------------------------------------
// Logical unrolling and the scratch arena.
// ---------------------------------------------------------------------

/** A body whose serializing LFENCE empties the core every copy. */
const char *const kDrainingBody = "IMUL RAX, RBX\nLFENCE\nIMUL RCX, RBX";

/** Its copy boundaries' heads repeat over pending µops whose port
 *  bindings do not, so the period search stops inside the ROB part of
 *  the state at copy after copy (on SKL, KBL and CFL it never finds a
 *  period at n = 110). */
const char *const kStallingImulBody =
    "IMUL RBX\nIMUL RBX\nIMUL RBX\nIMUL RBX\n"
    "IMUL RBX\nIMUL RBX\nIMUL RBX\nIMUL RBX";

/** Bodies covering the rename/dispatch special cases: ALU chains,
 *  fusion (including across copy boundaries), zero idioms and move
 *  elimination, vectors with bypass, divider, memory round trips,
 *  serializing instructions. */
const char *const kUnrollBodies[] = {
    "ADD RAX, RBX\nIMUL RCX, RAX",
    "CMP RAX, RBX\nJZ 1",          // fuses, also across copies
    "JZ 1\nCMP RAX, RBX",          // wrap pair (CMP, JZ) fuses
    "XOR RAX, RAX\nMOV RBX, RCX\nNOP",
    "PSHUFD XMM1, XMM2, 0\nPADDD XMM1, XMM3\nMULPS XMM4, XMM1",
    "DIV RBX\nADD RCX, RDX",
    "MOV [RAX], RBX\nMOV RCX, [RAX]\nMOVSX RDX, CL",
    kDrainingBody,
    // State the fast-forward's period search must carry: the move-
    // elimination counter, the dirty upper YMM state, store
    // forwarding, the divider and partial-register merges.
    "MOV RAX, RBX\nMOV RBX, RAX",
    "VADDPS YMM0, YMM0, YMM1\nADDPS XMM2, XMM2",
    "ADD RAX, [RBX]\nADD [RCX], RDX",
    "DIV RBX\nIMUL RCX, RDX\nMOV RAX, RCX",
    "ADD AL, BL\nADD CL, AL",
    // Drained cores, where only the counter or the flag tells one
    // copy boundary from the next.
    "MOV RAX, RBX\nLFENCE",
    "SQRTPS XMM2, XMM3\nSQRTPS XMM2, XMM4\nVADDPS YMM0, YMM0, YMM1\n"
    "CPUID",
    // Drained, with the last instruction fused into the next copy
    // but not at the end of the stream: the shortened stream must
    // keep the copy in flight.
    "JZ 1\nLFENCE\nCMP RAX, RBX",
    // A period search that stops early at copy after copy.
    kStallingImulBody,
};

/** @p listing with its newlines shown as "; ". */
std::string
oneLine(std::string listing)
{
    for (size_t at = listing.find('\n'); at != std::string::npos;
         at = listing.find('\n', at))
        listing.replace(at, 1, "; ");
    return listing;
}

TEST(Determinism, LogicalUnrollMatchesMaterializedKernel)
{
    // A materialized kernel is one logical copy, which the exact
    // fast-forward never shortens, so it is the reference for the
    // n-copy runs it does shorten.
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        for (const char *listing : kUnrollBodies) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            sim::DecodedKernel decoded(tdb, body);
            for (int n : {1, 3, 10, 37, 110}) {
                isa::Kernel flat;
                for (int i = 0; i < n; ++i)
                    flat.insert(flat.end(), body.begin(), body.end());

                sim::RunResult reference = pipeline.run(flat);
                EXPECT_EQ(reference.simulated_cycles, reference.cycles);
                sim::RunResult logical = pipeline.run(decoded, n);
                std::string what = uarch::uarchName(arch) + " " +
                                   oneLine(listing) +
                                   " n=" + std::to_string(n);
                expectRunsEqual(reference, logical, what);
                EXPECT_LE(logical.simulated_cycles, logical.cycles)
                    << what;
                // The LFENCE drains the core every copy, so its copies
                // repeat at once: a period detector that never fires
                // would pass the equality checks above vacuously.
                if (listing == kDrainingBody && n == 110) {
                    EXPECT_LT(logical.simulated_cycles, logical.cycles)
                        << what << ": fast-forward did not engage";
                }
            }
        }
    }
}

TEST(Determinism, PeriodIsFoundAfterEarlyStops)
{
    // On NHM and HSW the stalling body's period search stops early
    // before it finds the period. A stop that kept its
    // value numbering would misnumber every later state, and the
    // period would never be found: the run would still be exact, so
    // only the stepped cycles show it.
    for (UArch arch : {UArch::Nehalem, UArch::Haswell}) {
        const auto &tdb = timingDb(arch);
        sim::DecodedKernel decoded(tdb, asm_(kStallingImulBody));
        sim::RunResult run =
            sim::Pipeline(tdb).run(decoded, sim::kUnrollLarge);
        EXPECT_LT(run.simulated_cycles, run.cycles)
            << uarch::uarchName(arch) << ": fast-forward did not engage";
    }
}

TEST(Determinism, CycleBudgetCountsFastForwardedCycles)
{
    // The budget bounds the logical clock, fast-forwarded cycles
    // included: a budget that saw only the stepped cycles would
    // admit (say, turn a /predict 429 into a 200) a run that the
    // full simulation refuses.
    const auto &tdb = timingDb(UArch::Skylake);
    auto body = asm_(kDrainingBody);
    sim::DecodedKernel decoded(tdb, body);
    const int n = sim::kUnrollLarge;

    sim::RunResult full = sim::Pipeline(tdb).run(decoded, n);
    ASSERT_LT(full.simulated_cycles, full.cycles)
        << "the body's steady state was not fast-forwarded";

    sim::Pipeline over(tdb, {.cycle_budget = full.cycles - 1});
    EXPECT_THROW(over.run(decoded, n), sim::CycleBudgetExceeded);
    sim::Pipeline within(tdb, {.cycle_budget = full.cycles});
    sim::RunResult admitted = within.run(decoded, n);
    expectRunsEqual(full, admitted, "budget == cycles");
    EXPECT_EQ(admitted.simulated_cycles, full.simulated_cycles);
}

TEST(Determinism, ScratchArenaReuseReproducesFreshPipeline)
{
    const auto &tdb = timingDb(UArch::Skylake);
    sim::Pipeline reused(tdb);
    // Interleave dissimilar kernels so stale scratch state from one
    // run would corrupt the next if the reset were incomplete.
    for (int round = 0; round < 3; ++round) {
        for (const char *listing : kUnrollBodies) {
            auto kernel = asm_(listing);
            sim::Pipeline fresh(tdb);
            expectRunsEqual(fresh.run(kernel), reused.run(kernel),
                            listing);
        }
    }
}

TEST(Determinism, IdleCycleSkippingIsCycleExact)
{
    sim::SimOptions stepping;
    stepping.skip_idle = false;
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline fast(tdb);
        sim::Pipeline slow(tdb, stepping);
        for (const char *listing : kUnrollBodies) {
            // Long dependent chains maximize idle stretches.
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            isa::Kernel kernel;
            for (int i = 0; i < 40; ++i)
                kernel.insert(kernel.end(), body.begin(), body.end());
            expectRunsEqual(slow.run(kernel), fast.run(kernel),
                            listing);
        }
    }
}

} // namespace
} // namespace uops::test
