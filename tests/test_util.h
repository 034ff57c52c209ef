/**
 * @file
 * Shared fixtures and helpers for the test suites.
 */

#ifndef UOPS_TESTS_TEST_UTIL_H
#define UOPS_TESTS_TEST_UTIL_H

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "isa/kernel.h"
#include "isa/parser.h"
#include "sim/harness.h"
#include "support/status.h"
#include "uarch/timing_db.h"

namespace uops::test {

/** Process-wide bundled instruction database. */
inline const isa::InstrDb &
defaultDb()
{
    static const std::unique_ptr<isa::InstrDb> db = isa::buildDefaultDb();
    return *db;
}

/** Cached timing database per uarch. */
inline const uarch::TimingDb &
timingDb(uarch::UArch arch)
{
    static std::map<uarch::UArch, std::unique_ptr<uarch::TimingDb>> dbs;
    auto it = dbs.find(arch);
    if (it == dbs.end())
        it = dbs.emplace(arch, std::make_unique<uarch::TimingDb>(
                                   defaultDb(), arch))
                 .first;
    return *it->second;
}

/** Assemble a newline-separated listing against the default DB. */
inline isa::Kernel
asm_(const std::string &listing)
{
    return isa::assemble(defaultDb(), listing);
}

/** Algorithm-2 measurement of @p listing on the given uarch. */
inline sim::Measurement
measure(uarch::UArch arch, const std::string &listing)
{
    sim::MeasurementHarness harness(timingDb(arch));
    return harness.measure(asm_(listing));
}

/** True when every instruction of @p kernel exists on @p arch. */
inline bool
supportedOn(uarch::UArch arch, const isa::Kernel &kernel)
{
    const uarch::UArchInfo &info = uarch::uarchInfo(arch);
    for (const isa::InstrInstance &inst : kernel)
        if (!info.supports(*inst.variant))
            return false;
    return true;
}

} // namespace uops::test

#endif // UOPS_TESTS_TEST_UTIL_H
