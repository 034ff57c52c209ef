/**
 * @file
 * Reproduces **Section 7.3.5** (instructions with multiple latencies):
 * sweeps the instruction set and reports every variant whose operand
 * pairs have at least two distinct latency values — the information a
 * single-valued latency definition cannot express.
 *
 * The paper's list of non-memory examples includes ADC, CMOV(N)BE,
 * (I)MUL, PSHUFB, ROL, ROR, SAR, SBB, SHL, SHR, (V)MPSADBW,
 * VPBLENDV*, (V)PSLL*, (V)PSRA*, (V)PSRL*, XADD and XCHG; most
 * memory-operand instructions qualify trivially (address vs register
 * source).
 */

#include <cmath>
#include <set>

#include "bench_util.h"

namespace uops::bench {
namespace {

void
printMultiLatencyStudy()
{
    header("Section 7.3.5: instructions with multiple latencies "
           "(Skylake, register variants)");

    Context &ctx = context(uarch::UArch::Skylake);
    core::LatencyAnalyzer lat(ctx.harness, ctx.instruments);
    core::Characterizer tool(db(), uarch::UArch::Skylake);

    std::set<std::string> multi_mnemonics;
    int swept = 0;
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto *v : db().all()) {
        if (!tool.isMeasurable(*v) || v->readsMemory() ||
            v->writesMemory() || v->attrs().uses_divider ||
            v->attrs().is_nop || v->attrs().mov_elim_candidate)
            continue;
        auto r = lat.analyze(*v);
        ++swept;
        double min_lat = 1e9, max_lat = 0.0;
        std::string detail;
        for (const auto &p : r.pairs) {
            if (p.upper_bound)
                continue;
            min_lat = std::min(min_lat, p.cycles.toDouble());
            max_lat = std::max(max_lat, p.cycles.toDouble());
            if (!detail.empty())
                detail += " ";
            detail += p.toString(*v);
        }
        if (max_lat > min_lat + 0.2) {
            multi_mnemonics.insert(v->mnemonic());
            if (rows.size() < 32)
                rows.emplace_back(v->name(), detail);
        }
    }

    std::printf("register variants swept: %d\n", swept);
    std::printf("mnemonics with multiple latencies: %zu\n\n",
                multi_mnemonics.size());
    for (const auto &[name, detail] : rows)
        std::printf("  %-22s %s\n", name.c_str(), detail.c_str());

    std::printf("\nPaper-list members detected: ");
    for (const char *m :
         {"ADC", "SBB", "CMOVBE", "CMOVNBE", "MUL", "IMUL", "SHLD",
          "XADD", "XCHG", "MPSADBW", "PSLLD", "PSRAD"}) {
        if (multi_mnemonics.count(m))
            std::printf("%s ", m);
    }
    std::printf("\n(Section 7.3.5 documents exactly this class; the\n"
                "per-pair definition is what makes it visible.)\n\n");

    // Memory variants: address-source vs register-source latencies.
    std::printf("Memory-operand examples (address vs register pair):\n");
    for (const char *name :
         {"ADD_R64_M64", "AESDEC_X_M128", "CMOVBE_R64_M64"}) {
        auto c = characterizeOne(uarch::UArch::Skylake, name);
        std::string detail;
        for (const auto &p : c.latency.pairs)
            detail += p.toString(*c.variant) + " ";
        std::printf("  %-18s %s\n", name, detail.c_str());
    }
    std::printf("\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printMultiLatencyStudy();
    return 0;
}
