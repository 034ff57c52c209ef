/**
 * @file
 * Integration tests: the end-to-end characterization driver, the
 * machine-readable results output (Section 6.4), and the
 * hardware-vs-IACA comparison metrics (Table 1).
 */

#include <gtest/gtest.h>

#include "core/characterize.h"
#include "test_util.h"

namespace uops::test {
namespace {

using core::Characterizer;
using core::CharacterizationSet;
using uarch::UArch;

/** Characterize a fixed, paper-relevant subset of variants. */
const CharacterizationSet &
subsetRun(UArch arch)
{
    static std::map<UArch, std::unique_ptr<CharacterizationSet>> cache;
    auto it = cache.find(arch);
    if (it == cache.end()) {
        Characterizer::Options opts;
        static const std::set<std::string> names = {
            "ADD_R64_R64",   "ADD_R64_M64",   "ADD_M64_R64",
            "ADC_R64_R64",   "SHLD_R64_R64_I8", "AESDEC_X_X",
            "MOVQ2DQ_X_MM",  "MOVDQ2Q_MM_X",  "PSHUFD_X_X_I8",
            "PBLENDVB_X_X_Xi", "MOV_M64_R64",  "MOV_R64_M64",
            "DIVPS_X_X",     "CMC",           "IMUL_R64_R64",
            "XOR_R64_R64",   "PCMPGTD_X_X",   "BSWAP_R32",
            "BSWAP_R64",     "MUL_R64i_R64i_R64",
        };
        opts.filter = [&](const isa::InstrVariant &v) {
            return names.count(v.name()) > 0;
        };
        auto set = std::make_unique<CharacterizationSet>(
            Characterizer(defaultDb(), arch, opts).run());
        it = cache.emplace(arch, std::move(set)).first;
    }
    return *it->second;
}

TEST(Characterizer, MeasurabilityFilter)
{
    Characterizer ch(defaultDb(), UArch::Skylake);
    EXPECT_TRUE(ch.isMeasurable(*defaultDb().byName("ADD_R64_R64")));
    EXPECT_TRUE(ch.isMeasurable(*defaultDb().byName("LOCKADD_M64_R64")));
    EXPECT_FALSE(ch.isMeasurable(
        *defaultDb().byName("CPUID_R32i_R32i_R32i_R32i")));
    EXPECT_FALSE(ch.isMeasurable(*defaultDb().byName("LFENCE")));
    EXPECT_FALSE(ch.isMeasurable(*defaultDb().byName("JMP_R64")));
    EXPECT_FALSE(ch.isMeasurable(*defaultDb().byName("PAUSE")));
    // AVX variants are not measurable on Nehalem (unsupported).
    Characterizer nhm(defaultDb(), UArch::Nehalem);
    EXPECT_FALSE(nhm.isMeasurable(*defaultDb().byName("VADDPS_Y_Y_Y")));
}

TEST(Characterizer, SubsetResultsConsistent)
{
    const auto &set = subsetRun(UArch::Skylake);
    EXPECT_EQ(set.instrs.size(), 20u);
    for (const auto &c : set.instrs) {
        // Port usage total matches the isolation µop count.
        EXPECT_NEAR(c.ports.usage.totalUops(),
                    c.ports.isolation.total_uops, 0.2)
            << c.variant->name();
        // Throughput is positive and no better than the port bound.
        EXPECT_GT(c.throughput.best().toDouble(), 0.0) << c.variant->name();
        if (c.tp_ports) {
            EXPECT_GE(c.throughput.best().toDouble(),
                      c.tp_ports->toDouble() - 0.10)
                << c.variant->name();
        }
    }
}

TEST(Characterizer, MeasuredEqualsGroundTruthPortUsage)
{
    // The inferred port usage must equal the ground-truth tables for
    // the whole subset — on every generation.
    for (UArch arch : {UArch::Nehalem, UArch::Haswell, UArch::Skylake}) {
        const auto &set = subsetRun(arch);
        const auto &tdb = timingDb(arch);
        for (const auto &c : set.instrs) {
            if (!uarchInfo(arch).supports(*c.variant))
                continue;
            auto truth =
                uarch::PortUsage::ofTiming(tdb.timing(*c.variant).uops);
            EXPECT_TRUE(c.ports.usage == truth)
                << uarch::uarchShortName(arch) << " "
                << c.variant->name() << ": inferred "
                << c.ports.usage.toString() << " vs truth "
                << truth.toString();
        }
    }
}

TEST(Characterizer, LatencyPairsMatchGroundTruth)
{
    const auto &set = subsetRun(UArch::Skylake);
    const auto &tdb = timingDb(UArch::Skylake);
    for (const auto &c : set.instrs) {
        const auto &truth = tdb.timing(*c.variant);
        for (const auto &pair : c.latency.pairs) {
            if (pair.upper_bound || c.variant->attrs().uses_divider)
                continue;
            auto expected = uarch::trueLatency(truth.uops, pair.src_op,
                                               pair.dst_op);
            if (!expected)
                continue;
            // Chains through a different domain may add the bypass
            // delay; accept [true, true+1].
            EXPECT_GE(pair.cycles.toDouble(), *expected - 0.1)
                << c.variant->name() << " " << pair.toString(*c.variant);
            EXPECT_LE(pair.cycles.toDouble(), *expected + 1.1)
                << c.variant->name() << " " << pair.toString(*c.variant);
        }
    }
}

TEST(ResultsXml, StructureAndRoundParse)
{
    const auto &set = subsetRun(UArch::Skylake);
    auto xml = core::exportResultsXml(set);
    EXPECT_EQ(xml->name(), "uopsInfo");
    EXPECT_EQ(xml->getAttr("architecture"), "SKL");
    EXPECT_EQ(xml->getAttr("processor"), "Core i7-6500U");
    auto instrs = xml->childrenNamed("instruction");
    EXPECT_EQ(instrs.size(), set.instrs.size());

    // Re-parse the emitted text (it must be valid XML) and check a
    // specific case study entry.
    auto parsed = parseXml(xml->toString());
    const XmlNode *aes = nullptr;
    for (const auto *i : parsed->childrenNamed("instruction"))
        if (i->getAttr("name") == "AESDEC_X_X")
            aes = i;
    ASSERT_NE(aes, nullptr);
    EXPECT_EQ(aes->firstChild("ports")->getAttr("usage"), "1*p0");
    ASSERT_FALSE(aes->childrenNamed("latency").empty());
}

TEST(IacaComparisonMetrics, SubsetAgreementBehaviour)
{
    const auto &set = subsetRun(UArch::Skylake);
    auto cmp = core::compareWithIaca(defaultDb(), set);
    EXPECT_EQ(cmp.variants_compared,
              static_cast<int>(set.instrs.size()));
    // BSWAP_R32 and VHADDPD-style defects force some disagreement;
    // most variants agree.
    EXPECT_GT(cmp.uopsAgreement(), 60.0);
    EXPECT_LT(cmp.uopsAgreement(), 100.0);
}

TEST(IacaComparisonMetrics, NoIacaForKabyAndCoffeeLake)
{
    const auto &set = subsetRun(UArch::KabyLake);
    auto cmp = core::compareWithIaca(defaultDb(), set);
    EXPECT_EQ(cmp.variants_compared, 0);
}

TEST(Characterizer, ZeroIdiomDetectedViaSameRegChain)
{
    // XOR R,R: the same-register microbenchmark shows the broken
    // dependency (cycles ~0.25, pure throughput) while the distinct
    // register chain is 1 cycle.
    const auto &set = subsetRun(UArch::Skylake);
    const auto *c = set.find("XOR_R64_R64");
    ASSERT_NE(c, nullptr);
    ASSERT_TRUE(c->latency.same_reg_cycles.has_value());
    EXPECT_LT(c->latency.same_reg_cycles->toDouble(), 0.5);
    const auto *self = c->latency.pair(0, 0);
    ASSERT_NE(self, nullptr);
    EXPECT_NEAR(self->cycles.toDouble(), 1.0, 0.1);
}

TEST(Characterizer, PcmpgtDepBreakingDiscovered)
{
    // Section 7.3.6: (V)PCMPGT breaks the dependency with identical
    // registers even though it is not in the manual's list.
    const auto &set = subsetRun(UArch::Skylake);
    const auto *c = set.find("PCMPGTD_X_X");
    ASSERT_NE(c, nullptr);
    ASSERT_TRUE(c->latency.same_reg_cycles.has_value());
    EXPECT_LT(c->latency.same_reg_cycles->toDouble(), 0.6);
    // Unlike a zero idiom it still uses an execution port.
    EXPECT_EQ(c->ports.usage.totalUops(), 1);
}

} // namespace
} // namespace uops::test
