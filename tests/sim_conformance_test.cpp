/**
 * @file
 * Simulator-vs-ground-truth conformance properties, swept over the
 * whole instruction set on several generations:
 *
 *  - the µop count observed through the port counters equals the
 *    timing tables' µop count (modulo rename-stage eliminations);
 *  - every observed port lies within the union of the µops' port
 *    sets;
 *  - a dependency chain through the first read-write register operand
 *    measures exactly the dataflow graph's true latency (+ at most
 *    the bypass delay);
 *  - measured throughput is never better than the Section 5.3.2 port
 *    bound.
 *
 * These are the invariants that make the characterization algorithms'
 * results checkable end to end.
 */

#include <gtest/gtest.h>

#include "core/codegen.h"
#include "core/throughput.h"
#include "test_util.h"

namespace uops::test {
namespace {

using uarch::UArch;

bool
sweepable(const isa::InstrVariant &v, const uarch::UArchInfo &info)
{
    const auto &a = v.attrs();
    if (!info.supports(v))
        return false;
    if (a.is_system || a.is_serializing || a.is_pause || a.is_cf_reg ||
        a.is_nop || a.has_rep_prefix)
        return false;
    if (a.mov_elim_candidate) // elimination makes counters fractional
        return false;
    if (v.mnemonic() == "VZEROUPPER")
        return false;
    return true;
}

class Conformance : public ::testing::TestWithParam<UArch>
{
};

TEST_P(Conformance, UopCountsAndPortsMatchTables)
{
    UArch arch = GetParam();
    const auto &info = uarchInfo(arch);
    const auto &tdb = timingDb(arch);
    sim::MeasurementHarness harness(tdb);

    int checked = 0;
    for (const auto *v : defaultDb().all()) {
        if (!sweepable(*v, info))
            continue;
        const auto &truth = tdb.timing(*v);
        core::RegPool pool(core::RegPool::Zone::Analyzed);
        auto body = core::independentSequence(*v, pool, 4);
        auto m = harness.measure(body);

        // µop count.
        EXPECT_NEAR(m.totalPortUops() / 4.0, truth.numUops(), 0.05)
            << v->name() << " on " << info.short_name;

        // Port containment.
        uarch::PortMask allowed = uarch::timingPorts(truth.uops);
        for (int p = 0; p < info.num_ports; ++p) {
            if (m.port_uops[static_cast<size_t>(p)] / 4.0 > 0.05) {
                EXPECT_NE(allowed & (1u << p), 0)
                    << v->name() << " dispatched on unexpected port "
                    << p << " on " << info.short_name;
            }
        }
        ++checked;
    }
    EXPECT_GT(checked, 350);
}

TEST_P(Conformance, ChainLatencyMatchesDataflowGraph)
{
    UArch arch = GetParam();
    const auto &info = uarchInfo(arch);
    const auto &tdb = timingDb(arch);
    sim::MeasurementHarness harness(tdb);

    int checked = 0;
    for (const auto *v : defaultDb().all()) {
        if (!sweepable(*v, info))
            continue;
        if (v->attrs().uses_divider || v->attrs().zero_idiom ||
            v->attrs().dep_breaking_same_reg)
            continue;
        if (v->readsMemory() || v->writesMemory())
            continue;
        // First read-write register operand: a natural chain.
        int rw = -1;
        for (size_t i = 0; i < v->numOperands(); ++i) {
            const auto &op = v->operand(i);
            if (op.kind == isa::OpKind::Reg && op.readWritten() &&
                !op.implicit) {
                rw = static_cast<int>(i);
                break;
            }
        }
        if (rw < 0)
            continue;
        // Implicit read-written flags would add a competing loop.
        int flags = v->flagsOperand();
        if (flags >= 0 && v->operand(flags).flags_read.any() &&
            v->operand(flags).flags_written.any())
            continue;

        auto expected = uarch::trueLatency(tdb.timing(*v).uops, rw, rw);
        if (!expected)
            continue;

        core::RegPool pool(core::RegPool::Zone::Analyzed);
        auto body = isa::Kernel{core::makeIndependent(*v, pool)};
        double measured = harness.measure(body).cycles;
        EXPECT_GE(measured, *expected - 0.05)
            << v->name() << " on " << info.short_name;
        EXPECT_LE(measured, *expected + info.bypass_delay + 0.05)
            << v->name() << " on " << info.short_name;
        ++checked;
    }
    EXPECT_GT(checked, 150);
}

TEST_P(Conformance, ThroughputNeverBeatsPortBound)
{
    UArch arch = GetParam();
    const auto &info = uarchInfo(arch);
    const auto &tdb = timingDb(arch);
    sim::MeasurementHarness harness(tdb);
    core::ThroughputAnalyzer tp(harness);

    int checked = 0;
    for (const auto *v : defaultDb().all()) {
        if (!sweepable(*v, info) || v->attrs().uses_divider ||
            v->attrs().has_lock_prefix)
            continue;
        // Cheap subset: every 7th variant for runtime reasons.
        if (v->id() % 7 != 0)
            continue;
        const auto &truth = tdb.timing(*v);
        if (truth.uops.empty())
            continue;
        double bound =
            uarch::portLoad(uarch::PortUsage::ofTiming(truth.uops),
                            info.num_ports)
                .bottleneck;
        auto r = tp.analyze(*v);
        EXPECT_GE(r.best().toDouble(), bound - 0.07)
            << v->name() << " on " << info.short_name;
        ++checked;
    }
    EXPECT_GT(checked, 40);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Conformance,
                         ::testing::Values(UArch::Nehalem,
                                           UArch::SandyBridge,
                                           UArch::Haswell,
                                           UArch::Skylake),
                         [](const auto &p) {
                             return uarch::uarchShortName(p.param);
                         });

} // namespace
} // namespace uops::test
