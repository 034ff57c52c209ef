/**
 * @file
 * Tests for the performance-prediction tool (the paper's concluding
 * deliverable): predictions from measured characterization data,
 * validated against the simulated hardware — including the cases the
 * paper shows IACA getting wrong (flag and memory dependencies).
 */

#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/characterize.h"
#include "core/predictor.h"
#include "predict_corpus.h"
#include "test_util.h"

namespace uops::test {
namespace {

using core::Characterizer;
using core::CharacterizationSet;
using core::PerformancePredictor;
using uarch::UArch;

const CharacterizationSet &
predictorSet(UArch arch)
{
    static std::map<UArch, std::unique_ptr<CharacterizationSet>> cache;
    auto it = cache.find(arch);
    if (it == cache.end()) {
        Characterizer::Options opts;
        static const std::set<std::string> names = {
            "ADD_R64_R64", "ADD_R64_I32", "IMUL_R64_R64", "CMC",
            "MOV_R64_M64", "MOV_M64_R64", "PSHUFD_X_X_I8", "ADDPS_X_X",
            "MULPS_X_X",   "DIVPS_X_X",   "NOP",      "AND_R32_M32",
            "ADC_R64_R64", "DIV_R32i_R32i_R32",
        };
        opts.filter = [](const isa::InstrVariant &v) {
            return names.count(v.name()) > 0;
        };
        auto set = std::make_unique<CharacterizationSet>(
            Characterizer(defaultDb(), arch, opts).run());
        it = cache.emplace(arch, std::move(set)).first;
    }
    return *it->second;
}

double
simulated(UArch arch, const std::string &listing)
{
    sim::MeasurementHarness harness(timingDb(arch));
    return harness.measure(asm_(listing)).cycles;
}

TEST(Predictor, PortBoundKernel)
{
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    // Four independent ADDs: port bound = 1 cycle on 4 ALU ports.
    auto kernel = asm_("ADD RAX, R8\nADD RBX, R8\n"
                       "ADD RCX, R8\nADD RDX, R8");
    auto p = pred.analyzeLoop(kernel);
    EXPECT_NEAR(p.block_throughput, 1.0, 0.05);
    EXPECT_EQ(p.bottleneck, "ports");
    EXPECT_NEAR(simulated(UArch::Skylake,
                          "ADD RAX, R8\nADD RBX, R8\n"
                          "ADD RCX, R8\nADD RDX, R8"),
                p.block_throughput, 0.15);
}

TEST(Predictor, PortPressureIsTheBalancedOptimum)
{
    // NHM `AND EAX, [RBX]` is 1*p015 + 1*p2: the load pins p2 and the
    // ALU µop spreads evenly over its three ports.
    PerformancePredictor pred(predictorSet(UArch::Nehalem));
    auto p = pred.analyzeLoop(asm_("AND EAX, [RBX]"));
    EXPECT_EQ(p.port_bound, 1.0);
    EXPECT_EQ(p.port_pressure[0], 1.0 / 3);
    EXPECT_EQ(p.port_pressure[1], 1.0 / 3);
    EXPECT_EQ(p.port_pressure[2], 1.0);
    EXPECT_EQ(p.port_pressure[3], 0.0);
    EXPECT_EQ(p.port_pressure[4], 0.0);
    EXPECT_EQ(p.port_pressure[5], 1.0 / 3);
}

TEST(Predictor, DependencyBoundKernel)
{
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    // IMUL chain: 3-cycle loop-carried dependency.
    auto kernel = asm_("IMUL RAX, RBX");
    auto p = pred.analyzeLoop(kernel);
    EXPECT_NEAR(p.block_throughput, 3.0, 0.1);
    EXPECT_EQ(p.bottleneck, "dependencies");
    EXPECT_NEAR(simulated(UArch::Skylake, "IMUL RAX, RBX"),
                p.block_throughput, 0.2);
}

TEST(Predictor, FlagDependenciesRespected)
{
    // CMC: IACA 3.0 reports 0.25 (Section 7.2); our predictor uses the
    // measured flag->flag latency and gets 1.0, like the hardware.
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    auto p = pred.analyzeLoop(asm_("CMC"));
    EXPECT_NEAR(p.block_throughput, 1.0, 0.1);
    EXPECT_NEAR(simulated(UArch::Skylake, "CMC"), 1.0, 0.05);
}

TEST(Predictor, MemoryDependenciesRespected)
{
    // Store + dependent load: IACA says 1 cycle (ignores memory
    // dependencies); hardware is a ~5-6 cycle round trip. The
    // predictor tracks memory locations.
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    auto kernel = asm_("MOV [RAX], RBX\nMOV RBX, [RAX]");
    auto p = pred.analyzeLoop(kernel);
    double hw = simulated(UArch::Skylake, "MOV [RAX], RBX\n"
                                          "MOV RBX, [RAX]");
    EXPECT_GT(p.block_throughput, 3.5);
    EXPECT_NEAR(p.block_throughput, hw, 1.5);
}

TEST(Predictor, EveryDestinationIsTimedFromTheInputs)
{
    // ADC RAX, RBX writes RAX and the flags, both from RAX, RBX and
    // CF. Timing the flags from the RAX just written would chain the
    // two outputs into a 2-cycle loop; the hardware runs 1.
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    auto adc = pred.analyzeLoop(asm_("ADC RAX, RBX"));
    EXPECT_EQ(adc.dependency_bound, 1.0);
    EXPECT_NEAR(adc.block_throughput,
                simulated(UArch::Skylake, "ADC RAX, RBX"), 0.05);

    // DIV EBX writes EAX and EDX from EDX:EAX: each output carries
    // one latency, not two. The unmeasured cross pairs fall back to
    // the largest measured fast-value latency (19.16), unrounded and
    // without the slow-value one, which the kernel does not reach.
    auto div = pred.analyzeLoop(asm_("DIV EBX"));
    EXPECT_NEAR(div.dependency_bound, 19.16, 1e-9);
    EXPECT_NEAR(div.block_throughput,
                simulated(UArch::Skylake, "DIV EBX"), 0.2);
}

TEST(Predictor, IndependentMemoryLocationsDoNotChain)
{
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    auto kernel = asm_("MOV [RAX], RBX\nMOV RCX, [RAX+64]");
    auto p = pred.analyzeLoop(kernel);
    EXPECT_LT(p.block_throughput, 1.6); // no dependency, port bound
}

TEST(Predictor, FrontEndBound)
{
    // NOPs use no ports; the 4-wide front end is the limit.
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    isa::Kernel kernel;
    for (int i = 0; i < 8; ++i) {
        auto nop = asm_("NOP");
        kernel.push_back(nop[0]);
    }
    auto p = pred.analyzeLoop(kernel);
    // NOP reports 0 port µops -> front-end bound 0; acceptable lower
    // bound behaviour: predicted <= simulated.
    double hw = simulated(UArch::Skylake,
                          "NOP\nNOP\nNOP\nNOP\nNOP\nNOP\nNOP\nNOP");
    EXPECT_LE(p.block_throughput, hw + 0.1);

    // Six fused-domain µops through a 4-wide front end take 1.5
    // cycles; the four ALU ports and the two load ports need only 1.
    const char *listing = "ADD RAX, R8\nADD RBX, R8\n"
                          "ADD RCX, R8\nADD RDX, R8\n"
                          "MOV RSI, [R9]\nMOV RDI, [R10]";
    auto mixed = pred.analyzeLoop(asm_(listing));
    EXPECT_EQ(mixed.bottleneck, "front end");
    EXPECT_NEAR(mixed.frontend_bound, 1.5, 0.01);
    EXPECT_NEAR(mixed.port_bound, 1.0, 0.05);
    EXPECT_NEAR(mixed.block_throughput, 1.5, 0.01);
    EXPECT_NEAR(simulated(UArch::Skylake, listing),
                mixed.block_throughput, 0.15);
}

TEST(Predictor, DividerBound)
{
    PerformancePredictor pred(predictorSet(UArch::Haswell));
    auto kernel = asm_("DIVPS XMM1, XMM4\nDIVPS XMM2, XMM4");
    auto p = pred.analyzeLoop(kernel);
    EXPECT_EQ(p.bottleneck, "divider");
    double hw = simulated(UArch::Haswell,
                          "DIVPS XMM1, XMM4\nDIVPS XMM2, XMM4");
    EXPECT_NEAR(p.block_throughput, hw, 3.0);
}

TEST(Predictor, MixedKernelCloseToSimulation)
{
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    std::string listing = "MOV RBX, [RSI]\n"
                          "IMUL RBX, RBX\n"
                          "ADD RAX, RBX\n"
                          "ADDPS XMM1, XMM4\n"
                          "MULPS XMM2, XMM4\n"
                          "PSHUFD XMM3, XMM2, 0";
    auto p = pred.analyzeLoop(asm_(listing));
    double hw = simulated(UArch::Skylake, listing);
    // Static prediction within ~25% of the cycle-level simulation.
    EXPECT_NEAR(p.block_throughput, hw, 0.25 * hw + 0.3);
}

TEST(Predictor, CorpusErrorWithinCeiling)
{
    // Mean absolute percentage error of the static prediction against
    // the simulator over the /predict corpus, characterized variant by
    // variant. The ceilings are the errors measured with every
    // destination timed from its instruction's inputs and unmeasured
    // operand pairs taking the largest fast-value latency, rounded up
    // to 0.1%.
    const std::map<UArch, double> ceiling = {
        {UArch::Nehalem, 21.6},     {UArch::Westmere, 21.6},
        {UArch::SandyBridge, 27.6}, {UArch::IvyBridge, 30.0},
        {UArch::Haswell, 28.6},     {UArch::Broadwell, 28.6},
        {UArch::Skylake, 27.9},     {UArch::KabyLake, 27.9},
        {UArch::CoffeeLake, 27.9},
    };
    std::vector<isa::Kernel> kernels;
    std::set<std::string> names;
    for (const std::string &listing : predictCorpus()) {
        kernels.push_back(asm_(listing));
        for (const isa::InstrInstance &inst : kernels.back())
            names.insert(inst.variant->name());
    }
    Characterizer::Options opts;
    opts.filter = [&](const isa::InstrVariant &v) {
        return names.count(v.name()) > 0;
    };
    for (UArch arch : uarch::allUArches()) {
        CharacterizationSet set =
            Characterizer(defaultDb(), arch, opts).run();
        PerformancePredictor pred(set);
        sim::MeasurementHarness harness(timingDb(arch));
        double error_sum = 0.0;
        for (const isa::Kernel &kernel : kernels) {
            double hw = harness.measure(kernel).cycles;
            double static_tp = pred.analyzeLoop(kernel).block_throughput;
            error_sum += std::abs(static_tp - hw) / hw;
        }
        double mape =
            100.0 * error_sum / static_cast<double>(kernels.size());
        EXPECT_LE(mape, ceiling.at(arch) + 0.05)
            << uarch::uarchShortName(arch);
    }
}

TEST(Predictor, WorksOnAllUArchesIncludingPostIaca)
{
    // Unlike IACA, the predictor supports Kaby Lake and Coffee Lake.
    for (UArch arch : {UArch::KabyLake, UArch::CoffeeLake}) {
        PerformancePredictor pred(predictorSet(arch));
        auto p = pred.analyzeLoop(asm_("ADD RAX, RBX"));
        EXPECT_NEAR(p.block_throughput, 1.0, 0.1);
    }
}

TEST(Predictor, UnknownInstructionFails)
{
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    EXPECT_THROW(pred.analyzeLoop(asm_("SHLD RAX, RBX, 3")),
                 FatalError);
}

TEST(Predictor, ReportString)
{
    PerformancePredictor pred(predictorSet(UArch::Skylake));
    auto p = pred.analyzeLoop(asm_("ADD RAX, RBX"));
    std::string s = p.toString();
    EXPECT_NE(s.find("block throughput"), std::string::npos);
    EXPECT_NE(s.find("bottleneck"), std::string::npos);
}

} // namespace
} // namespace uops::test
