#include "port_usage.h"

#include <algorithm>
#include <cmath>

#include "support/status.h"

namespace uops::core {

using isa::InstrVariant;
using isa::Kernel;
using uarch::PortMask;

PortUsageAnalyzer::PortUsageAnalyzer(const sim::MeasurementHarness &harness,
                                     const BlockingSet &sse_set,
                                     const BlockingSet &avx_set,
                                     PortUsageOptions options)
    : harness_(harness), sse_set_(sse_set), avx_set_(avx_set),
      options_(options), finder_(harness)
{
}

uarch::PortUsage
PortUsageAnalyzer::analyzeNaive(const InstrVariant &variant) const
{
    // Agner Fog's approach: measure the per-port µop averages when the
    // instruction runs in isolation and round them.
    RegPool pool(RegPool::Zone::Analyzed);
    Kernel body = independentSequence(variant, pool, 8);
    sim::Measurement m = harness_.measure(body);

    // Group ports by rounded share: whole shares become dedicated
    // ports, the remaining fractional ports are merged into one
    // combination carrying the leftover µops. This mirrors how the
    // published tables were assembled from raw per-port averages.
    uarch::PortUsage usage;
    std::vector<std::pair<double, int>> shares;
    for (int p = 0; p < sim::kMaxPorts; ++p) {
        double s = m.port_uops[static_cast<size_t>(p)] / 8.0;
        if (s > 0.04)
            shares.emplace_back(s, p);
    }
    // Ports with share >= 0.75 are taken as dedicated (1 µop each);
    // the remaining fractional ports are merged into one combination
    // carrying the leftover µops.
    PortMask frac_mask = 0;
    double frac_uops = 0.0;
    for (const auto &[s, p] : shares) {
        double whole = std::floor(s + 0.25);
        if (whole >= 1.0)
            usage.add(static_cast<PortMask>(1u << p),
                      static_cast<int>(whole));
        double rest = s - whole;
        if (rest > 0.04) {
            frac_mask |= static_cast<PortMask>(1u << p);
            frac_uops += rest;
        }
    }
    if (frac_mask != 0 && frac_uops > 0.25)
        usage.add(frac_mask,
                  std::max(1, static_cast<int>(std::lround(frac_uops))));
    return usage;
}

PortUsageResult
PortUsageAnalyzer::analyze(const InstrVariant &variant,
                           int max_latency) const
{
    const BlockingSet &blocking =
        variant.attrs().is_avx ? avx_set_ : sse_set_;

    PortUsageResult result;
    result.isolation = finder_.measureIsolation(variant);

    int block_rep = kBlockRepFactor * std::max(1, max_latency);
    block_rep = std::min(block_rep, kBlockRepCap);
    block_rep = std::max(block_rep, 8);
    result.block_rep = block_rep;

    int total_uops = static_cast<int>(
        std::lround(result.isolation.total_uops));

    // Line 1: sort the combinations by size.
    std::vector<PortMask> combos = blocking.sortedCombos();
    if (options_.no_sorting) {
        // Ablation: arbitrary (map) order.
        combos.clear();
        for (const auto &[mask, b] : blocking.combos)
            combos.push_back(mask);
    }

    // Optimization: only combinations sharing ports with the isolation
    // measurement can hold µops of this instruction. (Intersection,
    // not subset: a µop's full port set is not always visible in
    // isolation — e.g. store-address µops rarely reach port 7 when
    // ports 2/3 keep up, yet they can use it.)
    if (!options_.no_isolation_filter) {
        std::vector<PortMask> filtered;
        for (PortMask pc : combos)
            if ((pc & result.isolation.ports) != 0)
                filtered.push_back(pc);
        combos = filtered;
    }

    std::vector<std::pair<PortMask, int>> found; // (pc, µops)

    for (PortMask pc : combos) {
        // Early exit: all µops attributed.
        if (!options_.no_early_exit) {
            int sum = 0;
            for (const auto &[m, u] : found)
                sum += u;
            if (sum >= total_uops && total_uops > 0)
                break;
        }

        const BlockingInstr &blocker = blocking.combos.at(pc);

        // Line 5: blockRep copies of the blocking instruction followed
        // by the instruction under analysis. Operands are chosen from
        // disjoint pools so everything is independent. NOPs fence the
        // analyzed instruction so it never macro-fuses with a blocking
        // instruction (within a copy or across copies).
        const isa::InstrVariant *nop =
            harness_.timingDb().instrDb().byName("NOP");
        RegPool filler_pool(RegPool::Zone::Filler);
        Kernel body =
            independentSequence(*blocker.variant, filler_pool, block_rep);
        if (nop != nullptr)
            body.push_back(isa::makeInstance(*nop, {}));
        RegPool analyzed_pool(RegPool::Zone::Analyzed);
        body.push_back(makeIndependent(variant, analyzed_pool));
        if (nop != nullptr)
            body.push_back(isa::makeInstance(*nop, {}));

        sim::Measurement m = harness_.measure(body);
        ++result.measurements;

        // Line 6/7: µops on the combination's ports, minus blocking.
        double uops = 0.0;
        for (int p : uarch::portsOf(pc))
            uops += m.port_uops[static_cast<size_t>(p)];
        uops -= block_rep;

        // Lines 8-10: subtract µops attributed to strict subsets.
        if (!options_.no_subset_subtraction) {
            for (const auto &[prev_pc, prev_uops] : found)
                if (prev_pc != pc && (prev_pc & ~pc) == 0)
                    uops -= prev_uops;
        }

        int n = static_cast<int>(std::lround(uops));
        if (n > 0)
            found.emplace_back(pc, n);
    }

    for (const auto &[pc, n] : found)
        result.usage.add(pc, n);
    return result;
}

} // namespace uops::core
