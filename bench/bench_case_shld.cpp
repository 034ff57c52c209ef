/**
 * @file
 * Reproduces **Section 7.3.2** (SHLD): the per-pair latency definition
 * explains contradictory prior publications.
 *
 * Paper values:
 *  - Nehalem: lat(R1->R1) = 3 (what Fog measured with distinct
 *    registers, chaining only the implicit first-operand dependency),
 *    lat(R2->R1) = 4 (what the manual, Granlund, IACA and AIDA64
 *    report);
 *  - Skylake: 3 cycles with distinct registers (manual, LLVM, Fog)
 *    but only 1 cycle when the same register is used for both
 *    operands (Granlund, AIDA64) — the tool detects this via the
 *    same-register microbenchmark.
 */

#include "bench_util.h"

namespace uops::bench {
namespace {

void
printShldStudy()
{
    header("Section 7.3.2: SHLD R1, R2, imm");
    std::printf("%-13s %12s %12s %10s %16s\n", "Architecture",
                "lat(R1->R1)", "lat(R2->R1)", "same-reg",
                "port usage");
    rule();
    for (auto arch : uarch::allUArches()) {
        auto c = characterizeOne(arch, "SHLD_R64_R64_I8");
        const auto *p00 = c.latency.pair(0, 0);
        const auto *p10 = c.latency.pair(1, 0);
        std::printf("%-13s %12.2f %12.2f %10.2f %16s\n",
                    uarch::uarchInfo(arch).full_name.c_str(),
                    p00 ? p00->cycles.toDouble() : -1.0, p10 ? p10->cycles.toDouble() : -1.0,
                    c.latency.same_reg_cycles
                        ? c.latency.same_reg_cycles->toDouble()
                        : -1.0,
                    c.ports.usage.toString().c_str());
    }
    rule();
    std::printf(
        "Prior-work reconciliation (as explained by the paper):\n"
        "  Nehalem: Fog reports 3       -> our lat(R1->R1)\n"
        "           manual/Granlund/IACA/AIDA64 report 4\n"
        "                                -> our lat(R2->R1) and the\n"
        "                                   same-register measurement\n"
        "  Skylake: manual/LLVM/Fog report 3 -> distinct registers\n"
        "           Granlund/AIDA64 report 1 -> same register for both\n"
        "           (the Nehalem system does not exhibit this "
        "behaviour)\n\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printShldStudy();
    return 0;
}
