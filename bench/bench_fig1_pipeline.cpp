/**
 * @file
 * Reproduces **Figure 1** (the pipeline structure of Intel Core CPUs)
 * behaviourally: for every generation, saturation kernels demonstrate
 * the modeled execution engine — the per-port functional units, the
 * 4-wide front end, the load/store-address/store-data port split, and
 * the non-pipelined divider.
 */

#include "bench_util.h"

namespace uops::bench {
namespace {

double
throughputOf(uarch::UArch arch, const std::string &listing)
{
    sim::MeasurementHarness harness(timingDb(arch));
    auto kernel = isa::assemble(db(), listing);
    return harness.measure(kernel).cycles /
           static_cast<double>(kernel.size());
}

void
printFigure1()
{
    header("Figure 1: pipeline structure (behavioural reproduction)");
    std::printf("%-13s %6s %6s %6s %6s %6s %6s %6s\n", "Architecture",
                "ports", "issue", "ALU/c", "LD/c", "ST/c", "FADD/c",
                "DIVocc");
    rule();
    for (auto arch : uarch::allUArches()) {
        const auto &info = uarch::uarchInfo(arch);

        // ALU throughput: independent ADDs -> number of ALU ports.
        std::string adds;
        const char *regs[] = {"RAX", "RBX", "RCX", "RDX",
                              "RAX", "RBX", "RCX", "RDX"};
        for (int i = 0; i < 8; ++i)
            adds += std::string("ADD ") + regs[i] + ", RSI\n";
        double alu = 1.0 / throughputOf(arch, adds);

        // Load throughput: independent loads -> number of load ports.
        double ld = 1.0 / throughputOf(arch, "MOV RAX, [RSI]\n"
                                             "MOV RBX, [RSI+8]\n"
                                             "MOV RCX, [RSI+16]\n"
                                             "MOV RDX, [RSI+24]\n");
        // Store throughput: one store-data port.
        double st = 1.0 / throughputOf(arch, "MOV [RSI], RAX\n"
                                             "MOV [RSI+8], RBX\n"
                                             "MOV [RSI+16], RCX\n"
                                             "MOV [RSI+24], RDX\n");
        // FP-add throughput.
        double fadd = 1.0 / throughputOf(arch, "ADDPS XMM1, XMM5\n"
                                               "ADDPS XMM2, XMM5\n"
                                               "ADDPS XMM3, XMM5\n"
                                               "ADDPS XMM4, XMM5\n");
        // Divider occupancy: independent divides.
        double div = throughputOf(arch, "DIVPS XMM1, XMM5\n"
                                        "DIVPS XMM2, XMM5\n");
        // Front-end width: NOPs use no port, so the only limit is
        // issue (4/cycle).
        double issue =
            1.0 / throughputOf(arch, "NOP\nNOP\nNOP\nNOP\n"
                                     "NOP\nNOP\nNOP\nNOP\n");

        std::printf("%-13s %6d %6.1f %6.2f %6.2f %6.2f %6.2f %6.1f\n",
                    info.full_name.c_str(), info.num_ports, issue, alu,
                    ld, st, fadd, div);
    }
    rule();
    std::printf(
        "Expected shape: 6 ports through Ivy Bridge, 8 from Haswell;\n"
        "3 ALU ports pre-Haswell vs 4 after; 1 load port on\n"
        "Nehalem/Westmere vs 2 later; 1 store-data port everywhere;\n"
        "2 FP-add ports only on Skylake+; divider not fully pipelined\n"
        "(occupancy >> 1 cycle).\n\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printFigure1();
    return 0;
}
