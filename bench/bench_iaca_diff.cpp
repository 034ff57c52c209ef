/**
 * @file
 * Reproduces the **Section 7.2** catalog of differences between
 * hardware measurements and IACA: missing/spurious µops, per-version
 * port-set changes, the µop-sum mismatch, and the ignored flag and
 * memory dependencies in IACA's throughput analysis.
 */

#include "bench_util.h"
#include "iaca/iaca.h"

namespace uops::bench {
namespace {

void
printIacaDiffStudy()
{
    header("Section 7.2: hardware measurements vs IACA");

    // --- missing load µop / spurious store µops (Nehalem) ---
    {
        iaca::IacaAnalyzer an(db(), uarch::UArch::Nehalem,
                              iaca::Version::V21);
        auto hw = characterizeOne(uarch::UArch::Nehalem, "IMUL_R64_M64");
        auto m = an.model(*db().byName("IMUL_R64_M64"));
        std::printf("IMUL r64, [m] on Nehalem:\n"
                    "  hardware: %d µops (%s)\n"
                    "  IACA:     %d µops (%s)  <- no load µop\n\n",
                    hw.ports.usage.totalUops(),
                    hw.ports.usage.toString().c_str(), m.total_uops,
                    m.usage.toString().c_str());
        auto hw2 = characterizeOne(uarch::UArch::Nehalem, "TEST_M64_R64");
        auto m2 = an.model(*db().byName("TEST_M64_R64"));
        std::printf("TEST [m], r64 on Nehalem:\n"
                    "  hardware: %d µops (%s)\n"
                    "  IACA:     %d µops (%s)  <- spurious store µops\n\n",
                    hw2.ports.usage.totalUops(),
                    hw2.ports.usage.toString().c_str(), m2.total_uops,
                    m2.usage.toString().c_str());
    }

    // --- per-width blind spot: BSWAP on Skylake ---
    {
        iaca::IacaAnalyzer an(db(), uarch::UArch::Skylake,
                              iaca::Version::V30);
        auto hw32 = characterizeOne(uarch::UArch::Skylake, "BSWAP_R32");
        auto hw64 = characterizeOne(uarch::UArch::Skylake, "BSWAP_R64");
        std::printf("BSWAP on Skylake:\n"
                    "  hardware: r32 = %d µop, r64 = %d µops\n"
                    "  IACA:     r32 = %d µops, r64 = %d µops\n\n",
                    hw32.ports.usage.totalUops(),
                    hw64.ports.usage.totalUops(),
                    an.model(*db().byName("BSWAP_R32")).total_uops,
                    an.model(*db().byName("BSWAP_R64")).total_uops);
    }

    // --- µop sum mismatch: VHADDPD on Skylake ---
    {
        iaca::IacaAnalyzer an(db(), uarch::UArch::Skylake,
                              iaca::Version::V30);
        auto hw = characterizeOne(uarch::UArch::Skylake,
                                  "VHADDPD_X_X_X");
        auto m = an.model(*db().byName("VHADDPD_X_X_X"));
        int port_sum = 0;
        for (const auto &[mask, count] : m.usage.entries)
            port_sum += count;
        std::printf("VHADDPD on Skylake:\n"
                    "  hardware: %s (3 µops)\n"
                    "  IACA: total %d µops, per-port view shows only %d "
                    "(sums do not add up)\n\n",
                    hw.ports.usage.toString().c_str(), m.total_uops,
                    port_sum);
    }

    // --- version differences ---
    {
        iaca::IacaAnalyzer v23(db(), uarch::UArch::Skylake,
                               iaca::Version::V23);
        iaca::IacaAnalyzer v30(db(), uarch::UArch::Skylake,
                               iaca::Version::V30);
        std::printf("VMINPS on Skylake (newer version fixed a bug):\n"
                    "  IACA 2.3: %s   IACA 3.0: %s   hardware: %s\n\n",
                    v23.model(*db().byName("VMINPS_X_X_X"))
                        .usage.toString().c_str(),
                    v30.model(*db().byName("VMINPS_X_X_X"))
                        .usage.toString().c_str(),
                    characterizeOne(uarch::UArch::Skylake,
                                    "VMINPS_X_X_X")
                        .ports.usage.toString()
                        .c_str());
        iaca::IacaAnalyzer h21(db(), uarch::UArch::Haswell,
                               iaca::Version::V21);
        iaca::IacaAnalyzer h22(db(), uarch::UArch::Haswell,
                               iaca::Version::V22);
        std::printf("SAHF on Haswell (older version was right):\n"
                    "  IACA 2.1: %s   IACA 2.2+: %s   hardware: %s\n\n",
                    h21.model(*db().byName("SAHF_R8Hi"))
                        .usage.toString().c_str(),
                    h22.model(*db().byName("SAHF_R8Hi"))
                        .usage.toString().c_str(),
                    characterizeOne(uarch::UArch::Haswell, "SAHF_R8Hi")
                        .ports.usage.toString()
                        .c_str());
    }

    // --- ignored dependencies in throughput analysis ---
    {
        iaca::IacaAnalyzer v30(db(), uarch::UArch::Haswell,
                               iaca::Version::V30);
        auto cmc = isa::assemble(db(), "CMC");
        auto hw = context(uarch::UArch::Haswell).harness.measure(cmc);
        std::printf("CMC throughput (flag dependency):\n"
                    "  hardware %.2f cycles; IACA 3.0 %.2f (ignores "
                    "status-flag dependencies)\n\n",
                    hw.cycles, v30.analyzeLoop(cmc).block_throughput);

        auto seq = isa::assemble(db(), "MOV [RAX], RBX\nMOV RBX, [RAX]");
        auto hw2 = context(uarch::UArch::Haswell).harness.measure(seq);
        std::printf("MOV [RAX],RBX; MOV RBX,[RAX] (memory "
                    "dependency):\n"
                    "  hardware %.2f cycles; IACA %.2f (ignores memory "
                    "dependencies entirely)\n\n",
                    hw2.cycles, v30.analyzeLoop(seq).block_throughput);
    }
}

} // namespace
} // namespace uops::bench

int
main()
{
    uops::bench::printIacaDiffStudy();
    return 0;
}
