/**
 * @file
 * Reproduces the **Section 5.3 / 4.2** throughput analysis: the two
 * throughput definitions (Intel's port-based Definition 1, computed
 * from the inferred port usage via the port bound of Section 5.3.2,
 * vs Fog's measured Definition 2) across the instruction set, the
 * effect of dependency-breaking instructions on instructions with
 * implicit read-written operands, and the value-dependent divider
 * throughput.
 */

#include <cmath>

#include "bench_util.h"

namespace uops::bench {
namespace {

void
printThroughputStudy()
{
    header("Section 5.3: measured (Def. 2) vs port-computed (Def. 1) "
           "throughput, Skylake");

    Context &ctx = context(uarch::UArch::Skylake);
    core::ThroughputAnalyzer tp(ctx.harness);
    core::PortUsageAnalyzer pu(ctx.harness, ctx.sse_set, ctx.avx_set);
    core::LatencyAnalyzer lat(ctx.harness, ctx.instruments);
    core::Characterizer tool(db(), uarch::UArch::Skylake);

    int total = 0, equal = 0, higher = 0;
    double max_gap = 0.0;
    std::string max_gap_name;
    std::vector<std::tuple<std::string, double, double, double>>
        interesting;

    for (const auto *v : db().all()) {
        if (!tool.isMeasurable(*v) || v->attrs().uses_divider ||
            v->attrs().has_rep_prefix || v->attrs().has_lock_prefix ||
            v->attrs().is_nop || v->attrs().mov_elim_candidate ||
            v->mnemonic() == "VZEROUPPER")
            continue;
        auto usage = pu.analyze(*v, lat.analyze(*v).maxLatency()).usage;
        if (usage.entries.empty())
            continue;
        double computed = core::ThroughputAnalyzer::computeFromPortUsage(
            usage, 8);
        auto measured = tp.analyze(*v);
        double best = measured.best().toDouble();
        ++total;
        double gap = best - computed;
        if (std::abs(gap) <= 0.07) {
            ++equal;
        } else if (gap > 0) {
            ++higher;
            if (gap > max_gap) {
                max_gap = gap;
                max_gap_name = v->name();
            }
            if (interesting.size() < 10)
                interesting.emplace_back(v->name(), best, computed, gap);
        }
    }

    std::printf("variants compared:            %d\n", total);
    std::printf("measured == computed (+-5%%):  %d (%.1f%%)\n", equal,
                100.0 * equal / total);
    std::printf("measured > computed:          %d (%.1f%%)\n", higher,
                100.0 * higher / total);
    std::printf("largest gap:                  %.2f cycles (%s)\n\n",
                max_gap, max_gap_name.c_str());
    std::printf("Per the paper (Section 4.2): Definition 2 'may yield\n"
                "higher values (lower throughput) than Definition 1'\n"
                "— implicit dependencies and front-end effects make the\n"
                "measured value an upper bound on the port bound.\n\n");

    std::printf("Examples where they differ (implicit operands):\n");
    std::printf("  %-22s %9s %9s %6s\n", "variant", "measured",
                "computed", "gap");
    for (const auto &[name, m, c, gap] : interesting)
        std::printf("  %-22s %9.2f %9.2f %6.2f\n", name.c_str(), m, c,
                    gap);

    std::printf("\nDependency breakers (Section 5.3.1):\n");
    for (const char *name :
         {"MUL_R64i_R64i_R64", "ADC_R64_R64", "SHL_R64_R8i", "CMC"}) {
        const auto *v = db().byName(name);
        auto r = tp.analyze(*v);
        std::printf("  %-20s plain %5.2f  with breakers %5.2f\n", name,
                    r.measured.toDouble(),
                    (r.with_breakers ? *r.with_breakers : r.measured)
                        .toDouble());
    }

    std::printf("\nDivider value dependence (Section 5.3.1), Haswell:\n");
    {
        Context &hsw = context(uarch::UArch::Haswell);
        core::ThroughputAnalyzer htp(hsw.harness);
        for (const char *name :
             {"DIVPS_X_X", "DIVPD_X_X", "DIV_R64i_R64i_R64",
              "SQRTPS_X_X"}) {
            const auto *v = db().byName(name);
            auto r = htp.analyze(*v);
            std::printf("  %-20s fast %6.2f  slow %6.2f\n", name,
                        r.measured.toDouble(),
                        r.slow_measured ? r.slow_measured->toDouble()
                                        : 0.0);
        }
    }
    std::printf("\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printThroughputStudy();
    return 0;
}
