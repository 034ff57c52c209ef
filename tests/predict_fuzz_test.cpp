/**
 * @file
 * Corpus-driven fuzz/property harness for the untrusted input path:
 * random and mutated bytes, near-miss assembler, and hostile query
 * strings through isa::assemble, the HTTP head parser, and full
 * /predict request handling.
 *
 * Properties checked on every input:
 *  - no crash, hang, or UB (the suite runs under ASan+UBSan in CI);
 *  - the parsers throw FatalError — never anything else — on
 *    malformed input;
 *  - every /predict response is 200 or a structured 4xx JSON error
 *    body; a malformed kernel can never surface as a 5xx.
 *
 * Deterministic by construction (seeded SplitMix64, fixed corpus).
 * UOPS_PREDICT_FUZZ_ITERS scales the iteration count: the default
 * keeps local ctest fast; CI's sanitizer job raises it.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "server/http.h"
#include "server/service.h"
#include "support/rng.h"
#include "test_util.h"

namespace uops::test {
namespace {

using server::HttpRequest;
using server::HttpResponse;

int
iterations()
{
    if (const char *env = std::getenv("UOPS_PREDICT_FUZZ_ITERS"))
        return std::max(1, std::atoi(env));
    return 300;
}

/** Seed assembler lines the mutator starts from. */
const std::vector<std::string> &
seedLines()
{
    static const std::vector<std::string> lines = {
        "ADD RAX, RBX",
        "IMUL RCX, RAX",
        "MOV RAX, [RBX+8]",
        "MOV [RBX+64], RAX",
        "DIV EBX",
        "CMP RAX, 5",
        "JNZ 0",
        "XOR EAX, EAX",
        "MOVAPS XMM0, XMM1",
        "ADD RAX, 127",
        "NOP",
    };
    return lines;
}

/** Near-miss / hostile fragments spliced in by the mutator. */
const std::vector<std::string> &
hostileTokens()
{
    static const std::vector<std::string> tokens = {
        "[",       "]",     "+",        ",",    ",,",
        "[RAX",    "RAX]",  "[+]",      "#",    ";",
        "BOGUS",   "ADD",   "RAX",      "XMM9", "R16",
        "-1",      "0x10",  "99999999999999999999",
        "9999999", "-9999999",
        "ADD RAX", "ADD RAX,", "ADD , RBX",
        "\t",      "\r",    "\x01",     "\xff", "\0",
    };
    return tokens;
}

std::string
randomBytes(Rng &rng, size_t max_len)
{
    std::string out;
    size_t len = rng.nextBelow(max_len + 1);
    out.reserve(len);
    for (size_t i = 0; i < len; ++i)
        out += static_cast<char>(rng.nextBelow(256));
    return out;
}

/** One mutated listing: seed lines joined, then corrupted. */
std::string
mutatedListing(Rng &rng)
{
    const auto &seeds = seedLines();
    std::string listing;
    size_t lines = 1 + rng.nextBelow(4);
    for (size_t i = 0; i < lines; ++i) {
        if (i > 0)
            listing += rng.nextBool(0.5) ? '\n' : ';';
        listing += seeds[rng.nextBelow(seeds.size())];
    }
    size_t mutations = rng.nextBelow(5);
    for (size_t i = 0; i < mutations; ++i) {
        switch (rng.nextBelow(5)) {
          case 0:   // flip one byte
            if (!listing.empty())
                listing[rng.nextBelow(listing.size())] =
                    static_cast<char>(rng.nextBelow(256));
            break;
          case 1: { // splice a hostile token
            const auto &tokens = hostileTokens();
            listing.insert(rng.nextBelow(listing.size() + 1),
                           tokens[rng.nextBelow(tokens.size())]);
            break;
          }
          case 2:   // truncate
            listing.resize(rng.nextBelow(listing.size() + 1));
            break;
          case 3: { // duplicate a chunk
            if (!listing.empty()) {
                size_t from = rng.nextBelow(listing.size());
                size_t len = rng.nextBelow(listing.size() - from + 1);
                listing.insert(rng.nextBelow(listing.size() + 1),
                               listing.substr(from, len));
            }
            break;
          }
          default:  // delete one byte
            if (!listing.empty())
                listing.erase(rng.nextBelow(listing.size()), 1);
            break;
        }
    }
    return listing;
}

/** A small, cheap catalog so the service has a real generation. */
std::shared_ptr<const db::DatabaseCatalog>
fuzzCatalog()
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
fuzzService()
{
    server::QueryService::Options options;
    // Tight admission keeps the worst mutated-but-valid kernel cheap.
    options.admission.max_instructions = 16;
    options.admission.max_listing_bytes = 4096;
    options.engine.num_threads = 2;
    options.engine.cycle_budget = 2'000'000;
    return std::make_unique<server::QueryService>(
        fuzzCatalog(), defaultDb(), options);
}

/** Every /predict response: success or structured 4xx, never 5xx. */
void
checkPredictResponse(const HttpResponse &response,
                     const std::string &input)
{
    ASSERT_TRUE(response.status == 200 ||
                (response.status >= 400 && response.status < 500))
        << "status " << response.status << " for input: " << input
        << "\nbody: " << response.body;
    ASSERT_FALSE(response.body.empty()) << input;
    ASSERT_EQ(response.body.front(), '{') << response.body;
    if (response.status >= 400) {
        EXPECT_NE(response.body.find("\"error\":"),
                  std::string::npos)
            << response.body;
        EXPECT_NE(response.body.find("\"status\":"),
                  std::string::npos)
            << response.body;
    }
}

// ---------------------------------------------------------------------
// isa::assemble on hostile input: FatalError or a kernel, nothing
// else.
// ---------------------------------------------------------------------

TEST(PredictFuzz, AssemblerThrowsOnlyFatalErrors)
{
    Rng rng(0xF0220001ULL);
    int iters = iterations();
    for (int i = 0; i < iters; ++i) {
        std::string listing = (i % 3 == 0)
                                  ? randomBytes(rng, 256)
                                  : mutatedListing(rng);
        try {
            (void)isa::assemble(defaultDb(), listing);
        } catch (const FatalError &) {
            // Expected for malformed input.
        }
        // Any other exception type escapes and fails the test.
    }
}

// ---------------------------------------------------------------------
// HTTP head parsing on random bytes.
// ---------------------------------------------------------------------

TEST(PredictFuzz, RequestHeadParserThrowsOnlyFatalErrors)
{
    Rng rng(0xF0220002ULL);
    int iters = iterations();
    for (int i = 0; i < iters; ++i) {
        std::string head = randomBytes(rng, 200);
        if (rng.nextBool(0.5))
            head = "GET /predict?uarch=" + randomBytes(rng, 40) +
                   " HTTP/1.1\r\nHost: x";
        try {
            (void)server::parseRequestHead(head);
        } catch (const FatalError &) {
        }
        try {
            (void)server::percentDecode(randomBytes(rng, 64));
        } catch (const FatalError &) {
        }
    }
}

// ---------------------------------------------------------------------
// Full /predict request handling.
// ---------------------------------------------------------------------

TEST(PredictFuzz, PredictNeverCrashesAndMapsMalformedInputTo4xx)
{
    auto service = fuzzService();
    Rng rng(0xF0220003ULL);
    const char *uarches[] = {"SKL", "NHM", "HSW", "BDW", "bogus", ""};
    int iters = iterations();
    for (int i = 0; i < iters; ++i) {
        std::string listing = (i % 4 == 0)
                                  ? randomBytes(rng, 512)
                                  : mutatedListing(rng);
        HttpRequest request;
        request.path = "/predict";
        std::string arch =
            uarches[rng.nextBelow(std::size(uarches))];
        if (!arch.empty() || rng.nextBool(0.5))
            request.query["uarch"] = arch;
        if (rng.nextBool(0.7)) {
            request.method = "POST";
            request.target = "/predict";
            request.body = listing;
        } else {
            request.method = "GET";
            request.target = "/predict?uarch=" + arch;
            request.query["asm"] = listing;
        }
        HttpResponse response = service->handle(request);
        checkPredictResponse(response, listing);
    }
}

TEST(PredictFuzz, OversizedKernelsGetStructured413)
{
    auto service = fuzzService();
    // Instruction-count bound.
    std::string long_kernel;
    for (int i = 0; i < 64; ++i)
        long_kernel += "ADD RAX, RBX\n";
    HttpRequest request;
    request.method = "POST";
    request.path = "/predict";
    request.target = "/predict?uarch=SKL";
    request.query["uarch"] = "SKL";
    request.body = long_kernel;
    HttpResponse response = service->handle(request);
    EXPECT_EQ(response.status, 413) << response.body;
    EXPECT_NE(response.body.find("\"rejected_by\":\"admission\""),
              std::string::npos)
        << response.body;
    EXPECT_NE(response.body.find("\"max_instructions\":16"),
              std::string::npos)
        << response.body;

    // Byte-size bound: an enormous listing is rejected before any
    // parsing happens.
    request.body = std::string(1 << 20, 'A');
    response = service->handle(request);
    EXPECT_EQ(response.status, 413) << response.status;
    EXPECT_NE(response.body.find("\"max_listing_bytes\":"),
              std::string::npos)
        << response.body;
}

TEST(PredictFuzz, HugeDisplacementsAreRejectedNotTruncated)
{
    auto service = fuzzService();
    // Displacements beyond the accepted range must be a clean 400 —
    // historically a long->int cast silently truncated them, which
    // made two distinct kernels alias one memory tag.
    for (const char *disp :
         {"99999999999999999999", "4294967297", "2000000", "-2"}) {
        HttpRequest request;
        request.method = "POST";
        request.path = "/predict";
        request.target = "/predict?uarch=SKL";
        request.query["uarch"] = "SKL";
        request.body = std::string("MOV RAX, [RBX+") + disp + "]";
        HttpResponse response = service->handle(request);
        EXPECT_EQ(response.status, 400)
            << disp << ": " << response.body;
    }
}

} // namespace
} // namespace uops::test
