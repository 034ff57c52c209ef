/**
 * @file
 * Extension experiment (the paper's Section 9 future work): macro-
 * fusion characterization. For every generation, probes which
 * flag-writing instructions fuse with a following conditional branch
 * into a single µop, using the adjacent-vs-NOP-separated µop-count
 * measurement of core::FusionAnalyzer.
 *
 * Expected matrix: CMP/TEST fuse on all Core generations; simple ALU
 * (ADD/SUB/AND/INC/DEC) fuses from Sandy Bridge on; shifts, memory
 * compares, multiplies and unconditional jumps never fuse.
 */

#include "bench_util.h"
#include "core/fusion.h"

namespace uops::bench {
namespace {

void
printFusionStudy()
{
    header("Section 9 extension: macro-fusion characterization");
    std::printf("%-18s", "producer + JZ");
    for (auto arch : uarch::allUArches())
        std::printf(" %4s", uarch::uarchShortName(arch).c_str());
    std::printf("\n");
    rule();

    std::vector<std::string> producers = {
        "CMP_R64_R64", "TEST_R64_R64", "ADD_R64_R64", "SUB_R64_R64",
        "AND_R64_R64", "INC_R64",      "DEC_R64",     "SHL_R64_I8",
        "CMP_R64_M64", "IMUL_R64_R64"};

    std::map<std::string, std::map<uarch::UArch, bool>> matrix;
    for (auto arch : uarch::allUArches()) {
        sim::MeasurementHarness harness(timingDb(arch));
        core::FusionAnalyzer analyzer(harness);
        for (const auto &p : analyzer.sweep())
            matrix[p.producer->name()][arch] = p.fused;
    }
    for (const auto &name : producers) {
        std::printf("%-18s", name.c_str());
        for (auto arch : uarch::allUArches()) {
            auto it = matrix.find(name);
            bool fused = it != matrix.end() && it->second.count(arch) &&
                         it->second.at(arch);
            std::printf(" %4s", fused ? "yes" : "-");
        }
        std::printf("\n");
    }
    rule();
    std::printf(
        "Detection: µops/pair adjacent vs NOP-separated (a fused pair\n"
        "dispatches one branch-unit µop). CMP/TEST fuse everywhere;\n"
        "ADD/SUB/AND/INC/DEC only from Sandy Bridge; memory compares\n"
        "and non-compare flag writers never fuse.\n\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printFusionStudy();
    return 0;
}
