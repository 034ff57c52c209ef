/**
 * @file
 * Reproduces **Section 7.3.1** (AES instructions): the per-pair
 * latency definition uncovers undocumented differences between
 * microarchitectures.
 *
 * Expected shape (paper values):
 *  - Westmere:     3 µops, lat(XMM1->XMM1) = lat(XMM2->XMM1) = 6;
 *  - Sandy Bridge / Ivy Bridge: 2 µops, lat(XMM1->XMM1) = 8 but
 *    lat(XMM2->XMM1) ~= 1 (the key is only XORed in at the end);
 *  - Haswell+:     1 µop, both pairs equal (7 cycles; 4 on Skylake);
 *  - memory variant on SNB: register pair still 8, memory->register
 *    only an upper bound of ~7 — while IACA 2.1 claims 13
 *    (= 7 + load latency).
 */

#include "bench_util.h"
#include "iaca/iaca.h"

namespace uops::bench {
namespace {

void
printAesStudy()
{
    header("Section 7.3.1: AESDEC across microarchitectures");
    std::printf("%-13s %6s %14s %14s %16s\n", "Architecture", "uops",
                "lat(X1->X1)", "lat(X2->X1)", "port usage");
    rule();
    for (auto arch :
         {uarch::UArch::Westmere, uarch::UArch::SandyBridge,
          uarch::UArch::IvyBridge, uarch::UArch::Haswell,
          uarch::UArch::Broadwell, uarch::UArch::Skylake,
          uarch::UArch::KabyLake, uarch::UArch::CoffeeLake}) {
        auto c = characterizeOne(arch, "AESDEC_X_X");
        const auto *p00 = c.latency.pair(0, 0);
        const auto *p10 = c.latency.pair(1, 0);
        std::printf("%-13s %6d %14.2f %14.2f %16s\n",
                    uarch::uarchInfo(arch).full_name.c_str(),
                    c.ports.usage.totalUops(),
                    p00 ? p00->cycles.toDouble() : -1.0, p10 ? p10->cycles.toDouble() : -1.0,
                    c.ports.usage.toString().c_str());
    }
    rule();
    std::printf("Paper: WSM 3 µops lat 6/6; SNB+IVB 2 µops lat 8/1.25;\n"
                "HSW 1 µop lat 7/7 (SKL 4/4). Prior work reported a\n"
                "single latency of 8 (manual/Fog/AIDA64) or 7 (IACA,\n"
                "LLVM) on SNB; only the per-pair definition separates\n"
                "the two dependencies.\n\n");

    std::printf("Memory variant on Sandy Bridge:\n");
    auto mem = characterizeOne(uarch::UArch::SandyBridge,
                               "AESDEC_X_M128");
    const auto *reg_pair = mem.latency.pair(0, 0);
    const auto *mem_pair = mem.latency.pair(1, 0);
    iaca::IacaAnalyzer v21(db(), uarch::UArch::SandyBridge,
                           iaca::Version::V21);
    auto iaca_model = v21.model(*db().byName("AESDEC_X_M128"));
    std::printf("  measured: lat(X1->X1) = %.2f, lat(mem->X1) <= %.2f "
                "(upper bound)\n",
                reg_pair ? reg_pair->cycles.toDouble() : -1.0,
                mem_pair ? mem_pair->cycles.toDouble() : -1.0);
    std::printf("  IACA 2.1 latency: %d   (paper: 13 = 7 + load "
                "latency, 'probably obtained by just adding the\n"
                "   load latency to the latency of the "
                "register-to-register variants')\n\n",
                iaca_model.latency.value_or(-1));

    std::printf("All four AES instructions behave alike (paper: 'We "
                "observed the same behavior for the AESDECLAST,\n"
                "AESENC, and AESENCLAST instructions.'):\n");
    for (const char *name : {"AESDEC_X_X", "AESDECLAST_X_X",
                             "AESENC_X_X", "AESENCLAST_X_X"}) {
        auto c = characterizeOne(uarch::UArch::SandyBridge, name);
        const auto *p00 = c.latency.pair(0, 0);
        const auto *p10 = c.latency.pair(1, 0);
        std::printf("  %-16s SNB: %d µops, lat %.0f / %.0f\n", name,
                    c.ports.usage.totalUops(),
                    p00 ? p00->cycles.toDouble() : -1.0, p10 ? p10->cycles.toDouble() : -1.0);
    }
    std::printf("\n");
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printAesStudy();
    return 0;
}
