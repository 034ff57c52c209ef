#include "predictor.h"

#include <algorithm>
#include <sstream>

#include "support/status.h"

namespace uops::core {

using isa::InstrInstance;
using isa::Kernel;
using isa::OpKind;

std::string
Prediction::toString() const
{
    std::ostringstream os;
    os << "block throughput: " << block_throughput
       << " cycles/iter (bottleneck: " << bottleneck << ")\n";
    os << "  port bound " << port_bound << ", dependency bound "
       << dependency_bound << ", front-end bound " << frontend_bound
       << ", divider bound " << divider_bound << "\n";
    os << "  port pressure:";
    for (size_t p = 0; p < port_pressure.size(); ++p)
        if (port_pressure[p] > 0.004)
            os << " p" << p << "=" << port_pressure[p];
    os << "\n";
    return os.str();
}

PerformancePredictor::PerformancePredictor(
    const CharacterizationSet &set)
    : set_(set), info_(uarch::uarchInfo(set.arch))
{
}

Prediction
PerformancePredictor::analyzeLoop(const Kernel &kernel) const
{
    Prediction pred;
    std::vector<uarch::LoopInstr> instrs;
    for (const InstrInstance &inst : kernel) {
        const isa::InstrVariant &v = *inst.variant;
        const InstrCharacterization *c = set_.find(v.name());
        fatalIf(c == nullptr, "predictor: ", v.name(),
                " not present in the characterization set");

        // Divider bound: the measured divider throughput.
        if (v.attrs().uses_divider) {
            Cycles tp = inst.div_class == isa::DivValueClass::Slow &&
                                c->throughput.slow_measured
                            ? *c->throughput.slow_measured
                            : c->throughput.measured;
            pred.divider_bound += tp.toDouble();
        }

        // The measured per-pair latencies; a pair without one takes the
        // largest measured fast-value latency (store round trip
        // included, at least 1), or 1 into memory (store-data µop).
        uarch::LoopInstr &in = instrs.emplace_back();
        in.usage = c->ports.usage;
        in.uops = c->ports.usage.totalUops();
        Cycles fallback = Cycles::fromHundredths(100);
        for (const LatencyPair &p : c->latency.pairs)
            fallback = std::max(fallback, p.cycles);
        if (c->latency.store_roundtrip)
            fallback = std::max(fallback, *c->latency.store_roundtrip);
        in.no_source_latency = fallback.toDouble();
        size_t n = v.numOperands();
        in.latency.assign(n * n, in.no_source_latency);
        for (int s : v.sourceOperands()) {
            for (int d : v.destOperands()) {
                double &lat = in.latency[static_cast<size_t>(s) * n +
                                         static_cast<size_t>(d)];
                if (const LatencyPair *p = c->latency.pair(s, d))
                    lat = p->cycles.toDouble();
                else if (v.operand(static_cast<size_t>(d)).kind ==
                         OpKind::Mem)
                    lat = 1.0;
            }
        }
    }

    // Port-pressure (Section 5.3.2) and dependency bounds, following
    // registers, flags and memory.
    uarch::LoopModel loop = uarch::loopModel(
        kernel, instrs, info_.num_ports, {.flags = true, .memory = true});
    pred.port_bound = loop.ports.bottleneck;
    pred.port_pressure = loop.ports.per_port;
    pred.dependency_bound = loop.dependency_bound;
    pred.frontend_bound =
        static_cast<double>(loop.total_uops) / info_.issue_width;

    // ---- combine ----
    pred.block_throughput =
        std::max({pred.port_bound, pred.dependency_bound,
                  pred.frontend_bound, pred.divider_bound});
    if (pred.block_throughput == pred.frontend_bound)
        pred.bottleneck = "front end";
    if (pred.block_throughput == pred.port_bound)
        pred.bottleneck = "ports";
    if (pred.block_throughput == pred.divider_bound &&
        pred.divider_bound > 0)
        pred.bottleneck = "divider";
    if (pred.block_throughput == pred.dependency_bound &&
        pred.dependency_bound > std::max(pred.port_bound,
                                         pred.frontend_bound))
        pred.bottleneck = "dependencies";
    return pred;
}

} // namespace uops::core
