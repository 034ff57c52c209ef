/**
 * @file
 * Reproduces **Section 7.3.6** (zero idioms): the same-register
 * microbenchmark discovers all dependency-breaking idioms — including
 * the (V)PCMPGT family, which is *not* in the Optimization Manual's
 * list of dependency-breaking idioms.
 *
 * Detection criterion: with distinct registers the instruction chains
 * (cycles/instr ~ its latency); with identical registers a
 * dependency-breaking idiom runs at its throughput instead. Zero
 * idioms additionally stop using any execution port on uarches with
 * zero-idiom elimination.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace uops::bench {
namespace {

struct IdiomRow
{
    std::string name;
    double distinct_cycles;
    double same_cycles;
    double same_uops; ///< port µops with identical registers
    bool dep_breaking;
    bool port_free;
};

std::optional<IdiomRow>
probe(uarch::UArch arch, const isa::InstrVariant &v)
{
    const auto &expl = v.explicitOperands();
    if (expl.size() < 2)
        return std::nullopt;
    const auto &a = v.operand(expl[0]);
    const auto &b = v.operand(expl[1]);
    if (a.kind != isa::OpKind::Reg || b.kind != isa::OpKind::Reg ||
        a.reg_class != b.reg_class || !a.readWritten())
        return std::nullopt;

    Context &ctx = context(arch);

    // Distinct registers: chained on the destination.
    core::RegPool pool(core::RegPool::Zone::Analyzed);
    isa::Kernel chain = {core::makeIndependent(v, pool)};
    double distinct = ctx.harness.measure(chain).cycles;

    // Identical registers.
    core::RegPool pool2(core::RegPool::Zone::Analyzed);
    isa::Reg shared = pool2.next(a.reg_class);
    std::vector<isa::OperandValue> values;
    for (int e : expl) {
        isa::OperandValue val;
        const auto &spec = v.operand(static_cast<size_t>(e));
        if (spec.kind == isa::OpKind::Reg)
            val.reg = shared;
        else
            val.imm = 0;
        values.push_back(val);
    }
    isa::Kernel same = {isa::makeInstance(v, values)};
    auto m = ctx.harness.measure(same);

    IdiomRow row;
    row.name = v.name();
    row.distinct_cycles = distinct;
    row.same_cycles = m.cycles;
    row.same_uops = m.totalPortUops();
    row.dep_breaking = m.cycles < distinct - 0.4;
    row.port_free = m.totalPortUops() < 0.1;
    return row;
}

void
printZeroIdiomStudy()
{
    header("Section 7.3.6: dependency-breaking idiom discovery "
           "(Skylake)");
    std::printf("%-18s %9s %9s %7s  %s\n", "variant", "distinct",
                "same-reg", "uops", "classification");
    rule();

    // The manual's documented zero idioms plus the paper's discovery.
    std::vector<std::string> manual_list = {
        "XOR_R32_R32",  "XOR_R64_R64",  "SUB_R32_R32", "SUB_R64_R64",
        "PXOR_X_X",     "XORPS_X_X",    "XORPD_X_X",   "VPXOR_X_X_X",
        "VXORPS_X_X_X",
    };
    std::vector<std::string> discovered = {
        "PCMPGTB_X_X",   "PCMPGTW_X_X",   "PCMPGTD_X_X",
        "PCMPGTQ_X_X",   "VPCMPGTB_X_X_X", "VPCMPGTD_X_X_X",
        "VPCMPGTQ_X_X_X",
    };
    std::vector<std::string> negatives = {"ADD_R64_R64", "AND_R64_R64",
                                          "PADDD_X_X", "OR_R64_R64"};

    auto show = [&](const std::vector<std::string> &names,
                    const char *group) {
        std::printf("-- %s\n", group);
        for (const auto &name : names) {
            const auto *v = db().byName(name);
            if (v == nullptr)
                continue;
            auto row = probe(uarch::UArch::Skylake, *v);
            if (!row)
                continue;
            const char *cls =
                !row->dep_breaking
                    ? "not dependency-breaking"
                    : (row->port_free ? "zero idiom (no port)"
                                      : "dependency-breaking idiom");
            std::printf("%-18s %9.2f %9.2f %7.2f  %s\n",
                        row->name.c_str(), row->distinct_cycles,
                        row->same_cycles, row->same_uops, cls);
        }
    };
    show(manual_list, "Optimization Manual list (3.5.1.8)");
    show(discovered,
         "paper's discovery: (V)PCMPGT - not in the manual's list");
    show(negatives, "negative controls");
    rule();

    // Full sweep: how many dependency-breaking idioms exist in the DB?
    int breaking = 0, zero = 0, swept = 0;
    core::Characterizer tool(db(), uarch::UArch::Skylake);
    for (const auto *v : db().all()) {
        if (!tool.isMeasurable(*v) || v->attrs().uses_divider ||
            v->attrs().mov_elim_candidate)
            continue;
        auto row = probe(uarch::UArch::Skylake, *v);
        if (!row)
            continue;
        ++swept;
        if (row->dep_breaking) {
            ++breaking;
            if (row->port_free)
                ++zero;
        }
    }
    std::printf("sweep: %d two-register read-write variants probed; "
                "%d dependency-breaking, of which %d zero idioms\n\n",
                swept, breaking, zero);

    // Nehalem: idioms break the dependency but still use a port.
    std::printf("On Nehalem zero idioms still execute (no ROB "
                "elimination):\n");
    auto nhm = probe(uarch::UArch::Nehalem, *db().byName("XOR_R64_R64"));
    if (nhm)
        std::printf("  XOR_R64_R64: same-reg %.2f cycles, %.2f port "
                    "µops (dependency broken, port used)\n\n",
                    nhm->same_cycles, nhm->same_uops);
}

void
BM_IdiomProbe(benchmark::State &state)
{
    const auto *v = db().byName("PCMPGTD_X_X");
    for (auto _ : state) {
        auto row = probe(uarch::UArch::Skylake, *v);
        benchmark::DoNotOptimize(row->dep_breaking);
    }
}

BENCHMARK(BM_IdiomProbe)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace uops::bench

int
main(int argc, char **argv)
{
    uops::bench::printZeroIdiomStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
