/**
 * @file
 * Reproduces **Table 1** of the paper: for each generation of the
 * Intel Core architecture, the number of characterized instruction
 * variants, the supporting IACA versions, and the hardware-vs-IACA
 * agreement percentages for µop counts and port usage.
 *
 * The tool's run time (Section 7.1: 50-110 minutes per
 * microarchitecture on real hardware) is not part of the table: the
 * output is diffed byte for byte, and perfbench's sweep workload
 * times the characterization.
 */

#include "bench_util.h"
#include "iaca/iaca.h"

namespace uops::bench {
namespace {

struct Row
{
    std::string arch, processor, versions;
    size_t instrs = 0;
    double uops_pct = 0.0, ports_pct = 0.0;
    bool has_iaca = false;
};

Row
runArch(uarch::UArch arch)
{
    Row row;
    const auto &info = uarch::uarchInfo(arch);
    row.arch = info.full_name;
    row.processor = info.processor;

    auto versions = iaca::versionsFor(arch);
    if (!versions.empty()) {
        row.versions = iaca::versionName(versions.front()) + "-" +
                       iaca::versionName(versions.back());
        row.has_iaca = true;
    } else {
        row.versions = "-";
    }

    core::Characterizer tool(db(), arch);
    auto set = tool.run();
    row.instrs = set.instrs.size();

    if (row.has_iaca) {
        auto cmp = core::compareWithIaca(db(), set);
        row.uops_pct = cmp.uopsAgreement();
        row.ports_pct = cmp.portsAgreement();
    }
    return row;
}

void
printTable1()
{
    header("Table 1: tested microarchitectures, instruction variants, "
           "and comparison with IACA");
    std::printf("%-13s %-16s %8s  %-8s %8s %8s\n", "Architecture",
                "Processor", "# Instr.", "IACA", "uops", "Ports");
    rule();
    for (auto arch : uarch::allUArches()) {
        Row row = runArch(arch);
        if (row.has_iaca) {
            std::printf("%-13s %-16s %8zu  %-8s %7.2f%% %7.2f%%\n",
                        row.arch.c_str(), row.processor.c_str(),
                        row.instrs, row.versions.c_str(), row.uops_pct,
                        row.ports_pct);
        } else {
            std::printf("%-13s %-16s %8zu  %-8s %8s %8s\n",
                        row.arch.c_str(), row.processor.c_str(),
                        row.instrs, row.versions.c_str(), "-", "-");
        }
    }
    rule();
    std::printf(
        "Paper reference values (real hardware):\n"
        "  Nehalem 1836 / 2.1-2.2 / 91.43%% / 95.27%%;"
        "  Westmere 1848 / 91.36%% / 94.61%%\n"
        "  Sandy Bridge 2538 / 93.25%% / 98.24%%;"
        "  Ivy Bridge 2549 / 91.36%% / 97.39%%\n"
        "  Haswell 3107 / 93.10%% / 96.45%%;"
        "  Broadwell 3118 / 92.83%% / 92.64%%\n"
        "  Skylake 3119 / 92.29%% / 91.04%%;"
        "  Kaby/Coffee Lake 3119 / no IACA support\n"
        "(Variant totals scale with this project's x86 subset; the\n"
        " growth pattern across generations and the agreement bands\n"
        " are the reproduced quantities.)\n\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printTable1();
    return 0;
}
