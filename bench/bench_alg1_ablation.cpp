/**
 * @file
 * Reproduces the **Section 5.1** methodology comparison: Algorithm 1
 * vs the prior-work (run-in-isolation, Agner Fog style) approach to
 * port-usage inference, validated against the ground-truth tables —
 * plus ablations of Algorithm 1's ingredients (combination sorting,
 * subset subtraction, isolation filter, early exit).
 *
 * Includes the paper's two motivating examples: PBLENDVB on Nehalem
 * (2*p05 measured as 1*p0+1*p5 by the naive method) and ADC on
 * Haswell (1*p0156+1*p06 measured as 2*p0156).
 */

#include "bench_util.h"

namespace uops::bench {
namespace {

struct Accuracy
{
    int total = 0;
    int exact = 0;
    int measurements = 0;
    double pct() const { return total ? 100.0 * exact / total : 0.0; }
    double perInstr() const
    {
        return total ? static_cast<double>(measurements) / total : 0.0;
    }
};

/** Variants whose port usage both methods can attempt. */
std::vector<const isa::InstrVariant *>
eligibleVariants(uarch::UArch arch)
{
    std::vector<const isa::InstrVariant *> out;
    core::Characterizer tool(db(), arch);
    for (const auto *v : db().all()) {
        if (!tool.isMeasurable(*v))
            continue;
        if (v->attrs().has_rep_prefix || v->attrs().is_nop ||
            v->mnemonic() == "VZEROUPPER")
            continue;
        // Eliminatable moves have no stable port usage to recover.
        if (v->attrs().mov_elim_candidate)
            continue;
        out.push_back(v);
    }
    return out;
}

Accuracy
evaluate(uarch::UArch arch, bool naive, core::PortUsageOptions options)
{
    Context &ctx = context(arch);
    const auto &tdb = timingDb(arch);
    core::PortUsageAnalyzer analyzer(ctx.harness, ctx.sse_set,
                                     ctx.avx_set, options);
    core::LatencyAnalyzer lat(ctx.harness, ctx.instruments);

    Accuracy acc;
    for (const auto *v : eligibleVariants(arch)) {
        auto truth = uarch::PortUsage::ofTiming(tdb.timing(*v).uops);
        uarch::PortUsage inferred;
        if (naive) {
            inferred = analyzer.analyzeNaive(*v);
        } else {
            auto r = analyzer.analyze(*v, lat.analyze(*v).maxLatency());
            inferred = r.usage;
            acc.measurements += r.measurements;
        }
        ++acc.total;
        if (inferred == truth)
            ++acc.exact;
    }
    return acc;
}

void
printAblation()
{
    header("Section 5.1: Algorithm 1 vs naive port-usage inference "
           "(validated against ground truth)");

    std::printf("%-13s %22s %9s %9s %12s\n", "Architecture", "method",
                "variants", "exact", "per-instr");
    rule();
    for (auto arch : {uarch::UArch::Nehalem, uarch::UArch::Haswell,
                      uarch::UArch::Skylake}) {
        const char *name = uarch::uarchInfo(arch).full_name.c_str();
        // The last column is the mean number of measurements per
        // instruction: an ablation may cost measurements without
        // changing a result.
        auto print = [&](const char *method, const Accuracy &acc) {
            std::printf("%-13s %22s %9d %8.2f%% %9.1f\n", name, method,
                        acc.total, acc.pct(), acc.perInstr());
        };
        Accuracy naive = evaluate(arch, true, {});
        std::printf("%-13s %22s %9d %8.2f%% %12s\n", name,
                    "naive (isolation)", naive.total, naive.pct(), "-");
        print("Algorithm 1", evaluate(arch, false, {}));

        core::PortUsageOptions no_subset;
        no_subset.no_subset_subtraction = true;
        print("  - subset subtraction", evaluate(arch, false, no_subset));

        core::PortUsageOptions no_sort;
        no_sort.no_sorting = true;
        print("  - combination sort", evaluate(arch, false, no_sort));

        core::PortUsageOptions no_filters;
        no_filters.no_early_exit = true;
        no_filters.no_isolation_filter = true;
        print("  - filters (all combos)",
              evaluate(arch, false, no_filters));
        rule();
    }

    std::printf("\nMotivating examples (Section 5.1):\n");
    {
        Context &ctx = context(uarch::UArch::Nehalem);
        core::PortUsageAnalyzer an(ctx.harness, ctx.sse_set,
                                   ctx.avx_set);
        const auto *pblendvb = db().byName("PBLENDVB_X_X_Xi");
        auto naive = an.analyzeNaive(*pblendvb);
        auto full = an.analyze(*pblendvb, 2);
        std::printf("  PBLENDVB/NHM: truth 2*p05   naive %-12s "
                    "Algorithm 1 %s\n",
                    naive.toString().c_str(),
                    full.usage.toString().c_str());
    }
    {
        Context &ctx = context(uarch::UArch::Haswell);
        core::PortUsageAnalyzer an(ctx.harness, ctx.sse_set,
                                   ctx.avx_set);
        const auto *adc = db().byName("ADC_R64_R64");
        auto naive = an.analyzeNaive(*adc);
        auto full = an.analyze(*adc, 2);
        std::printf("  ADC/HSW:      truth 1*p06+1*p0156   naive %-12s "
                    "Algorithm 1 %s\n\n",
                    naive.toString().c_str(),
                    full.usage.toString().c_str());
    }
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printAblation();
    return 0;
}
