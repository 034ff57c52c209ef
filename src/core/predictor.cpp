#include "predictor.h"

#include <algorithm>
#include <cmath>
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

    // ---- port-pressure bound (Section 5.3.2) ----
    uarch::PortUsage combined;
    int total_uops = 0;
    for (const InstrInstance &inst : kernel) {
        const InstrCharacterization *c = set_.find(inst.variant->name());
        fatalIf(c == nullptr, "predictor: ", inst.variant->name(),
                " not present in the characterization set");
        for (const auto &[mask, count] : c->ports.usage.entries)
            combined.add(mask, count);
        total_uops += c->ports.usage.totalUops();
    }
    uarch::PortLoad load = uarch::portLoad(combined, info_.num_ports);
    pred.port_bound = load.bottleneck;
    pred.port_pressure = load.per_port;

    // ---- front-end bound ----
    pred.frontend_bound =
        static_cast<double>(total_uops) / info_.issue_width;

    // ---- divider bound (from the measured divider throughput) ----
    for (const InstrInstance &inst : kernel) {
        if (!inst.variant->attrs().uses_divider)
            continue;
        const InstrCharacterization *c = set_.find(inst.variant->name());
        Cycles tp = inst.div_class == isa::DivValueClass::Slow &&
                            c->throughput.slow_measured
                        ? *c->throughput.slow_measured
                        : c->throughput.measured;
        pred.divider_bound += tp.toDouble();
    }

    // ---- dependency bound: two dataflow passes with per-pair
    //      latencies over registers, flags and memory ----
    std::map<int, double> unit_time;   // arch unit -> ready
    std::map<int, double> mem_time;    // memory tag -> ready
    auto run_pass = [&]() {
        for (const InstrInstance &inst : kernel) {
            const isa::InstrVariant &v = *inst.variant;
            const InstrCharacterization *c = set_.find(v.name());
            double fallback =
                static_cast<double>(c->latency.maxLatency());

            // Collect source ready times per operand.
            auto src_time = [&](int op_idx) {
                const auto &spec = v.operand(static_cast<size_t>(op_idx));
                double t = 0.0;
                if (spec.kind == OpKind::Reg) {
                    int u = isa::regUnit(
                        inst.regOf(static_cast<size_t>(op_idx)));
                    auto it = unit_time.find(u);
                    if (it != unit_time.end())
                        t = it->second;
                } else if (spec.kind == OpKind::Flags) {
                    for (int u : spec.flags_read.units()) {
                        auto it = unit_time.find(u);
                        if (it != unit_time.end())
                            t = std::max(t, it->second);
                    }
                } else if (spec.kind == OpKind::Mem) {
                    const auto &loc =
                        inst.ops[static_cast<size_t>(op_idx)].mem;
                    int base = isa::regUnit(loc.base);
                    auto it = unit_time.find(base);
                    if (it != unit_time.end())
                        t = it->second;
                    auto mt = mem_time.find(loc.tag);
                    if (mt != mem_time.end())
                        t = std::max(t, mt->second);
                }
                return t;
            };

            // Destination ready times from the per-pair latencies.
            for (int d : v.destOperands()) {
                const auto &dspec = v.operand(static_cast<size_t>(d));
                double ready = 0.0;
                for (int s : v.sourceOperands()) {
                    double lat = fallback;
                    if (const LatencyPair *p = c->latency.pair(s, d))
                        lat = p->cycles.toDouble();
                    else if (dspec.kind == OpKind::Mem)
                        lat = 1.0; // store-data µop
                    ready = std::max(ready, src_time(s) + lat);
                }
                if (v.sourceOperands().empty())
                    ready = fallback;
                if (dspec.kind == OpKind::Reg) {
                    unit_time[isa::regUnit(
                        inst.regOf(static_cast<size_t>(d)))] = ready;
                } else if (dspec.kind == OpKind::Flags) {
                    for (int u : dspec.flags_written.units())
                        unit_time[u] = ready;
                } else if (dspec.kind == OpKind::Mem) {
                    mem_time[inst.ops[static_cast<size_t>(d)].mem.tag] =
                        ready;
                }
            }
        }
    };
    run_pass();
    auto units_snapshot = unit_time;
    auto mem_snapshot = mem_time;
    run_pass();
    double growth = 0.0;
    for (const auto &[u, t] : unit_time) {
        auto it = units_snapshot.find(u);
        if (it != units_snapshot.end())
            growth = std::max(growth, t - it->second);
    }
    for (const auto &[tag, t] : mem_time) {
        auto it = mem_snapshot.find(tag);
        if (it != mem_snapshot.end())
            growth = std::max(growth, t - it->second);
    }
    pred.dependency_bound = growth;

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
