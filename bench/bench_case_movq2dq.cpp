/**
 * @file
 * Reproduces **Section 7.3.3** (MOVQ2DQ on Skylake): prior work models
 * the port usage inaccurately.
 *
 * Ground truth: 1 µop on port 0 plus 1 µop on ports {0,1,5}. Running
 * the instruction in isolation shows averages of 1.0 / 0.5 / 0.5 µops
 * on ports 0 / 1 / 5, from which Agner Fog concluded 1*p0 + 1*p15.
 * Executing it together with blocking instructions for ports 1 and 5
 * shows all µops moving to port 0 — so the second µop can use port 0
 * too. (IACA and LLVM even claim both µops are port-5-only.)
 */

#include "bench_util.h"

namespace uops::bench {
namespace {

void
printMovq2dqStudy()
{
    header("Section 7.3.3: MOVQ2DQ XMM, MM on Skylake");

    auto arch = uarch::UArch::Skylake;
    Context &ctx = context(arch);
    const auto *v = db().byName("MOVQ2DQ_X_MM");

    // In-isolation per-port averages (the naive method's input).
    core::BlockingFinder finder(ctx.harness);
    auto iso = finder.measureIsolation(*v);
    core::RegPool pool(core::RegPool::Zone::Analyzed);
    auto body = core::independentSequence(*v, pool, 8);
    auto m = ctx.harness.measure(body);
    std::printf("In isolation (8 independent copies, per instruction):\n"
                "  port0 %.2f   port1 %.2f   port5 %.2f   (total %.2f "
                "uops)\n",
                m.port_uops[0] / 8, m.port_uops[1] / 8,
                m.port_uops[5] / 8, iso.total_uops);

    core::PortUsageAnalyzer analyzer(ctx.harness, ctx.sse_set,
                                     ctx.avx_set);
    auto naive = analyzer.analyzeNaive(*v);
    auto full = analyzer.analyze(*v, 2);
    std::printf("\n  Fog-style conclusion:   %s\n",
                naive.toString().c_str());
    std::printf("  Algorithm 1:            %s\n",
                full.usage.toString().c_str());
    std::printf("  ground truth:           1*p0+1*p015\n");
    std::printf("  IACA / LLVM claim:      2*p5 (both µops port 5 "
                "only)\n\n");

    // The paper's direct evidence: blocking ports 1 and 5 pushes all
    // µops of MOVQ2DQ onto port 0.
    const auto &b1 = ctx.sse_set.combos.at(uarch::portMask({1}));
    const auto &b5 = ctx.sse_set.combos.at(uarch::portMask({5}));
    core::RegPool filler(core::RegPool::Zone::Filler);
    isa::Kernel blocked;
    auto s1 = core::independentSequence(*b1.variant, filler, 16);
    auto s5 = core::independentSequence(*b5.variant, filler, 16);
    blocked.insert(blocked.end(), s1.begin(), s1.end());
    blocked.insert(blocked.end(), s5.begin(), s5.end());
    core::RegPool apool(core::RegPool::Zone::Analyzed);
    blocked.push_back(core::makeIndependent(*v, apool));
    auto bm = ctx.harness.measure(blocked);
    double extra_p0 = bm.port_uops[0];
    double extra_p1 = bm.port_uops[1] - 16;
    double extra_p5 = bm.port_uops[5] - 16;
    std::printf("With 16 blocking instructions each for port 1 (%s) and "
                "port 5 (%s):\n",
                b1.variant->name().c_str(), b5.variant->name().c_str());
    std::printf("  MOVQ2DQ µops on port 0: %.2f   port 1: %.2f   "
                "port 5: %.2f\n",
                extra_p0, extra_p1, extra_p5);
    std::printf("  -> all µops execute on port 0: the second µop can "
                "use p0, p1 AND p5.\n\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printMovq2dqStudy();
    return 0;
}
