/**
 * @file
 * Reproduces **Section 7.3.4** (MOVDQ2Q): prior work reports an
 * inaccurate port usage on Haswell and an imprecise one on Sandy
 * Bridge for the same instruction.
 *
 * Ground truth on both: 1*p5 + 1*p015.
 *  - Haswell: IACA 2.1 agrees; IACA 2.2/2.3/3.0 and LLVM claim
 *    1*p01+1*p015; Fog claims 1*p01+1*p5.
 *  - Sandy Bridge: measurements agree with IACA and LLVM
 *    (1*p015+1*p5); Fog imprecisely reports 2*p015.
 */

#include "bench_util.h"

namespace uops::bench {
namespace {

void
printMovdq2qStudy()
{
    header("Section 7.3.4: MOVDQ2Q MM, XMM");
    std::printf("%-13s %18s %18s\n", "Architecture", "Algorithm 1",
                "naive (Fog-style)");
    rule();
    for (auto arch : {uarch::UArch::SandyBridge, uarch::UArch::Haswell,
                      uarch::UArch::Skylake}) {
        Context &ctx = context(arch);
        core::PortUsageAnalyzer analyzer(ctx.harness, ctx.sse_set,
                                         ctx.avx_set);
        const auto *v = db().byName("MOVDQ2Q_MM_X");
        auto full = analyzer.analyze(*v, 2);
        auto naive = analyzer.analyzeNaive(*v);
        std::printf("%-13s %18s %18s\n",
                    uarch::uarchInfo(arch).full_name.c_str(),
                    full.usage.toString().c_str(),
                    naive.toString().c_str());
    }
    rule();
    std::printf(
        "Published values the paper reconciles:\n"
        "  Haswell:      ours/IACA 2.1: 1*p5+1*p015;"
        " IACA 2.2+/LLVM: 1*p01+1*p015; Fog: 1*p01+1*p5\n"
        "  Sandy Bridge: ours/IACA/LLVM: 1*p015+1*p5; Fog: 2*p015\n"
        "The naive isolation average cannot distinguish these; the\n"
        "blocking-instruction algorithm can.\n\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printMovdq2qStudy();
    return 0;
}
