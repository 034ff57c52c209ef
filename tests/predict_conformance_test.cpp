/**
 * @file
 * Golden conformance suite for the /predict kernel compute service.
 *
 * For the committed corpus of kernels (predict_corpus.h) — dependency
 * chains, parallel and port-conflicting blocks, macro-fused pairs,
 * divider kernels, store/load roundtrips, elimination idioms — the
 * served prediction must be *bit-identical* to driving the simulation
 * stack directly (sim::BlockPredictor over sim::Pipeline), on every
 * one of the nine microarchitectures, and memoized (cache-hit)
 * responses must be byte-identical to cold ones. Any drift here means
 * the HTTP layer changed the numbers, which is the one thing a serving
 * layer must never do.
 */

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "server/service.h"
#include "sim/block_predict.h"
#include "support/xml.h"
#include "predict_corpus.h"
#include "test_util.h"

namespace uops::test {
namespace {

using server::HttpRequest;
using server::HttpResponse;

/** A thin catalog (ADD/XOR on Skylake) — enough for the static
 *  analysis of pure-ADD kernels and deliberately *not* covering the
 *  rest, so both analysis paths are exercised. */
std::shared_ptr<const db::DatabaseCatalog>
thinCatalog()
{
    static const auto catalog = [] {
        core::BatchOptions options;
        options.num_threads = 2;
        options.characterizer.filter =
            [](const isa::InstrVariant &v) {
                return v.mnemonic() == "ADD" || v.mnemonic() == "XOR";
            };
        return db::runCatalogSweep(defaultDb(),
                                   {uarch::UArch::Skylake}, options,
                                   nullptr);
    }();
    return catalog;
}

std::unique_ptr<server::QueryService>
makeService()
{
    return std::make_unique<server::QueryService>(thinCatalog(),
                                                  defaultDb());
}

HttpRequest
postPredict(const std::string &uarch, const std::string &listing)
{
    HttpRequest request;
    request.method = "POST";
    request.target = "/predict?uarch=" + uarch;
    request.path = "/predict";
    request.query["uarch"] = uarch;
    request.body = listing;
    return request;
}

/** The exact JSON fragment handlePredict renders for @p m — built
 *  with the same double formatter the server uses, so comparison is
 *  textual bit-identity, not approximate. */
std::string
simulationJson(const sim::Measurement &m, int num_ports)
{
    std::string out = "\"block_throughput\":" +
                      xmlFormatDouble(m.cycles) +
                      ",\"simulation\":{\"cycles_per_iteration\":" +
                      xmlFormatDouble(m.cycles) + ",\"uops_issued\":" +
                      xmlFormatDouble(m.uops_issued) +
                      ",\"uops_eliminated\":" +
                      xmlFormatDouble(m.uops_eliminated) +
                      ",\"port_pressure\":[";
    for (int p = 0; p < num_ports; ++p) {
        if (p > 0)
            out += ',';
        out += xmlFormatDouble(m.port_uops[static_cast<size_t>(p)]);
    }
    out += "]}";
    return out;
}

// ---------------------------------------------------------------------
// Served output == direct pipeline, all nine uarches.
// ---------------------------------------------------------------------

TEST(PredictConformance, ServedEqualsDirectSimulationOnAllUArches)
{
    auto service = makeService();
    for (uarch::UArch arch : uarch::allUArches()) {
        std::string short_name = uarch::uarchShortName(arch);
        // Same defaults the service's engine uses.
        sim::BlockPredictor direct(defaultDb(), arch);
        int num_ports = uarch::uarchInfo(arch).num_ports;
        for (const std::string &listing : predictCorpus()) {
            HttpResponse response =
                service->handle(postPredict(short_name, listing));
            ASSERT_EQ(response.status, 200)
                << short_name << ": " << listing << "\n"
                << response.body;
            sim::Measurement expected = direct.predict(asm_(listing));
            EXPECT_NE(response.body.find(
                          simulationJson(expected, num_ports)),
                      std::string::npos)
                << short_name << ": " << listing << "\n"
                << response.body;
        }
    }
}

// ---------------------------------------------------------------------
// Memoization: hits byte-identical to cold, across spellings.
// ---------------------------------------------------------------------

TEST(PredictConformance, MemoizedResponsesAreByteIdenticalToCold)
{
    auto service = makeService();
    for (const std::string &listing : predictCorpus()) {
        HttpResponse cold =
            service->handle(postPredict("SKL", listing));
        ASSERT_EQ(cold.status, 200) << listing << "\n" << cold.body;
        EXPECT_FALSE(cold.cache_hit) << listing;

        HttpResponse warm =
            service->handle(postPredict("SKL", listing));
        EXPECT_TRUE(warm.cache_hit) << listing;
        EXPECT_EQ(warm.body, cold.body) << listing;
        EXPECT_EQ(warm.status, cold.status);
    }
}

TEST(PredictConformance, SpellingVariantsShareOneMemoEntry)
{
    auto service = makeService();
    // Keyed by the kernel *fingerprint*, not the request text: the
    // ';'-separated, comment-laden, re-spaced spelling must hit the
    // entry the canonical POST populated, byte-identically.
    HttpResponse cold = service->handle(
        postPredict("SKL", "ADD RAX, RBX\nIMUL RCX, RAX"));
    ASSERT_EQ(cold.status, 200) << cold.body;
    HttpResponse variant = service->handle(postPredict(
        "SKL", "  ADD   RAX,RBX   # comment\n\nIMUL RCX, RAX\n"));
    EXPECT_TRUE(variant.cache_hit);
    EXPECT_EQ(variant.body, cold.body);
}

TEST(PredictConformance, MemoIsEpochKeyed)
{
    // A swap to a byte-identical catalog still advances the epoch;
    // the memo must re-render (the analysis half depends on the
    // generation), and the recomputation must be byte-identical for
    // an identical generation.
    auto service = makeService();
    HttpResponse cold = service->handle(
        postPredict("SKL", "ADD RAX, RBX\nADD RBX, RAX"));
    ASSERT_EQ(cold.status, 200);
    service->swapCatalog(thinCatalog());
    HttpResponse after =
        service->handle(postPredict("SKL", "ADD RAX, RBX\nADD RBX, RAX"));
    EXPECT_FALSE(after.cache_hit);
    EXPECT_EQ(after.body, cold.body);
}

// ---------------------------------------------------------------------
// Analysis coverage split.
// ---------------------------------------------------------------------

TEST(PredictConformance, AnalysisPresentOnlyUnderCatalogCoverage)
{
    auto service = makeService();
    // Covered by the thin catalog: full static analysis alongside
    // the simulation.
    HttpResponse covered = service->handle(
        postPredict("SKL", "ADD RAX, RBX\nXOR RCX, RCX"));
    ASSERT_EQ(covered.status, 200) << covered.body;
    EXPECT_NE(covered.body.find("\"analysis\":{"), std::string::npos)
        << covered.body;
    EXPECT_NE(covered.body.find("\"bottleneck\":"), std::string::npos);

    // IMUL is not in the thin catalog: simulation still answers,
    // analysis degrades to null with the reason.
    HttpResponse uncovered =
        service->handle(postPredict("SKL", "IMUL RCX, RAX"));
    ASSERT_EQ(uncovered.status, 200) << uncovered.body;
    EXPECT_NE(uncovered.body.find("\"analysis\":null"),
              std::string::npos)
        << uncovered.body;
    EXPECT_NE(uncovered.body.find(
                  "not present in the characterization"),
              std::string::npos)
        << uncovered.body;

    // A generation the catalog does not serve at all behaves the
    // same way — /predict works on all nine uarches regardless of
    // catalog contents.
    HttpResponse other_arch =
        service->handle(postPredict("HSW", "ADD RAX, RBX"));
    ASSERT_EQ(other_arch.status, 200) << other_arch.body;
    EXPECT_NE(other_arch.body.find("\"analysis\":null"),
              std::string::npos);
}

} // namespace
} // namespace uops::test
