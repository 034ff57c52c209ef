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
 *  - runBatchSweep XML is byte-identical with the memo-cache on and
 *    off, and across 1 and 4 worker threads;
 *  - a nine-uarch sweep's XML digest matches the committed one, so
 *    the measured results are pinned across commits too;
 *  - logical unrolling over a DecodedKernel, with the exact
 *    fast-forward of its periodic tail, reproduces the materialized
 *    n-copy kernel exactly (counters and snapshots) on all nine
 *    uarches, including macro-fusion across copy boundaries, and a
 *    counter read inside the body keeps every copy;
 *  - a cycle budget admits and refuses the runs it would without
 *    the fast-forward;
 *  - a Pipeline reusing its scratch arena across runs reproduces a
 *    fresh pipeline's results run for run;
 *  - idle-cycle skipping is cycle-exact against plain stepping.
 */

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
    auto options = [](size_t threads, bool share) {
        core::BatchOptions o;
        o.num_threads = threads;
        o.share_measurements = share;
        o.characterizer.filter = [](const isa::InstrVariant &v) {
            const std::string &m = v.mnemonic();
            return m == "ADD" || m == "PXOR" || m == "DIV" ||
                   m == "MOVAPS" || m == "VPXOR";
        };
        return o;
    };
    const std::vector<UArch> arches = {UArch::Nehalem, UArch::Skylake};

    std::string baseline =
        core::runBatchSweep(defaultDb(), arches, options(1, false))
            .toXmlString();
    EXPECT_EQ(baseline,
              core::runBatchSweep(defaultDb(), arches, options(1, true))
                  .toXmlString())
        << "memo-cache changed the report";
    EXPECT_EQ(baseline,
              core::runBatchSweep(defaultDb(), arches, options(4, true))
                  .toXmlString())
        << "threading changed the report";
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
    // but not into the epilogue: the shortened stream must keep the
    // copy in flight.
    "JZ 1\nLFENCE\nCMP RAX, RBX",
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
        auto prologue = asm_("MOV RAX, 7\nCPUID\nRDTSC\nCPUID");
        auto epilogue = asm_("CPUID\nRDTSC\nCPUID\nADD RAX, RBX");

        for (const char *listing : kUnrollBodies) {
            auto body = asm_(listing);
            if (!supportedOn(arch, body))
                continue;
            sim::DecodedKernel decoded(tdb, prologue, body, epilogue);
            for (int n : {1, 3, 10, 37, 110}) {
                isa::Kernel flat;
                flat.insert(flat.end(), prologue.begin(),
                            prologue.end());
                for (int i = 0; i < n; ++i)
                    flat.insert(flat.end(), body.begin(), body.end());
                flat.insert(flat.end(), epilogue.begin(),
                            epilogue.end());
                std::vector<size_t> markers = {2, flat.size() - 2};

                sim::RunResult reference = pipeline.run(flat, markers);
                EXPECT_EQ(reference.simulated_cycles, reference.cycles);
                sim::RunResult logical =
                    pipeline.run(decoded, n, markers);
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

TEST(Determinism, BodyMarkersSeeEveryCopy)
{
    // A counter read inside the body pins its copy: the run must not
    // skip it, and every snapshot must match the materialized kernel.
    const int n = sim::kUnrollLarge;
    for (UArch arch : uarch::allUArches()) {
        const auto &tdb = timingDb(arch);
        sim::Pipeline pipeline(tdb);
        auto wrapper = asm_("CPUID\nRDTSC\nCPUID");
        auto body = asm_(kDrainingBody);
        isa::Kernel flat = wrapper;
        std::vector<size_t> markers;
        for (int i = 0; i < n; ++i) {
            markers.push_back(flat.size());
            flat.insert(flat.end(), body.begin(), body.end());
        }
        flat.insert(flat.end(), wrapper.begin(), wrapper.end());
        markers.push_back(flat.size() - 2);

        sim::DecodedKernel decoded(tdb, wrapper, body, wrapper);
        expectRunsEqual(pipeline.run(flat, markers),
                        pipeline.run(decoded, n, markers),
                        uarch::uarchName(arch));
    }
}

TEST(Determinism, CycleBudgetCountsFastForwardedCycles)
{
    // The budget bounds the logical clock, fast-forwarded cycles
    // included: a budget that saw only the stepped cycles would
    // admit (say, turn a /predict 429 into a 200) a run that the
    // full simulation refuses.
    const auto &tdb = timingDb(UArch::Skylake);
    auto wrapper = asm_("CPUID\nRDTSC\nCPUID");
    auto body = asm_(kDrainingBody);
    sim::DecodedKernel decoded(tdb, wrapper, body, wrapper);
    const int n = sim::kUnrollLarge;
    const std::vector<size_t> markers = {1, decoded.totalSize(n) - 2};

    sim::RunResult full = sim::Pipeline(tdb).run(decoded, n, markers);
    ASSERT_LT(full.simulated_cycles, full.cycles)
        << "the body's steady state was not fast-forwarded";

    sim::Pipeline over(tdb, {.cycle_budget = full.cycles - 1});
    EXPECT_THROW(over.run(decoded, n, markers),
                 sim::CycleBudgetExceeded);
    sim::Pipeline within(tdb, {.cycle_budget = full.cycles});
    sim::RunResult admitted = within.run(decoded, n, markers);
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
