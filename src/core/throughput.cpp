#include "throughput.h"

#include <algorithm>

#include "support/stats.h"
#include "support/status.h"

namespace uops::core {

using isa::InstrVariant;
using isa::Kernel;
using isa::OperandSpec;
using isa::OpKind;
using isa::Reg;
using isa::RegClass;

ThroughputAnalyzer::ThroughputAnalyzer(
    const sim::MeasurementHarness &harness)
    : harness_(harness)
{
}

double
ThroughputAnalyzer::measureSequence(const InstrVariant &variant,
                                    int length, bool with_breakers,
                                    isa::DivValueClass div_class) const
{
    const isa::InstrDb &db = harness_.timingDb().instrDb();
    RegPool pool(RegPool::Zone::Analyzed);
    RegPool filler(RegPool::Zone::Filler);
    Reg filler_reg = filler.nextSrc(RegClass::Gpr64);

    Kernel body;
    for (int i = 0; i < length; ++i) {
        body.push_back(makeIndependent(variant, pool, div_class));
        if (!with_breakers)
            continue;
        // Breakers for implicit read-written operands: flags and
        // implicit fixed registers.
        for (const OperandSpec &op : variant.operands()) {
            if (op.kind == OpKind::Flags && op.flags_read.any() &&
                op.flags_written.any()) {
                const InstrVariant *test = db.byName("TEST_R64_R64");
                body.push_back(isa::makeInstance(
                    *test, {{.reg = filler_reg}, {.reg = filler_reg}}));
            } else if (op.kind == OpKind::Reg && op.fixed_reg >= 0 &&
                       op.readWritten() &&
                       isa::isGprClass(op.reg_class)) {
                const InstrVariant *mov = db.byName("MOV_R32_I32");
                Reg view{RegClass::Gpr32, op.fixed_reg};
                body.push_back(
                    isa::makeInstance(*mov, {{.reg = view}, {.imm = 3}}));
            }
        }
    }
    double cycles = harness_.measure(body).cycles;
    return cycles / static_cast<double>(length);
}

ThroughputResult
ThroughputAnalyzer::analyze(const InstrVariant &variant) const
{
    ThroughputResult result;
    isa::DivValueClass base_class = variant.attrs().uses_divider
                                        ? isa::DivValueClass::Fast
                                        : isa::DivValueClass::None;

    // Minimization runs on the raw per-length values; only the final
    // minima are rounded into the canonical result.
    double measured = 0.0;
    bool first = true;
    for (int length : {1, 2, 4, 8}) {
        double tp = measureSequence(variant, length, false, base_class);
        result.by_length[length] = tp;
        if (first || tp < measured)
            measured = tp;
        first = false;
    }
    result.measured = roundCycles(measured);

    // Dependency-breaking variant for implicit read-written operands.
    bool has_implicit_rw = false;
    for (const OperandSpec &op : variant.operands()) {
        if (op.kind == OpKind::Flags && op.flags_read.any() &&
            op.flags_written.any())
            has_implicit_rw = true;
        if (op.kind == OpKind::Reg && op.fixed_reg >= 0 &&
            op.readWritten())
            has_implicit_rw = true;
    }
    if (has_implicit_rw) {
        double best = 0.0;
        bool first_b = true;
        for (int length : {2, 4, 8}) {
            double tp =
                measureSequence(variant, length, true, base_class);
            if (first_b || tp < best)
                best = tp;
            first_b = false;
        }
        result.with_breakers = roundCycles(best);
    }

    if (variant.attrs().uses_divider) {
        double best = 0.0;
        bool first_s = true;
        for (int length : {1, 2, 4}) {
            double tp = measureSequence(variant, length, false,
                                        isa::DivValueClass::Slow);
            if (first_s || tp < best)
                best = tp;
            first_s = false;
        }
        result.slow_measured = roundCycles(best);
    }
    return result;
}

double
ThroughputAnalyzer::computeFromPortUsage(const uarch::PortUsage &usage,
                                         int num_ports)
{
    return uarch::portLoad(usage, num_ports).bottleneck;
}

} // namespace uops::core
