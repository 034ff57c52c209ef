/**
 * @file
 * Concurrency soak for the /predict compute path: N client threads
 * hammer the service with a mixed kernel corpus while another thread
 * hot-swaps catalog generations, exactly the /reload-under-load
 * scenario. Run under TSan to certify the synchronization story
 * (epoch pinning, the kernel memo, the simulation engine's
 * single-flight table, per-worker simulator state).
 *
 * The torn-response check is byte-level: every concurrent response
 * must be byte-identical to one of the per-generation golden bodies
 * rendered by isolated single-threaded services. A response mixing
 * state from two generations (or two requests) cannot pass.
 */

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "obs_util.h"
#include "server/service.h"
#include "test_util.h"

namespace uops::test {
namespace {

using server::HttpRequest;
using server::HttpResponse;

/** Kernels whose responses *differ* across the two generations
 *  (analysis coverage changes), plus generation-independent ones. */
const std::vector<std::string> &
soakCorpus()
{
    static const std::vector<std::string> kernels = {
        "ADD RAX, RBX",
        "ADD RAX, RBX\nADD RBX, RAX",
        "XOR RCX, RCX\nADD RCX, RDX",
        "IMUL RCX, RAX",
        "ADD RAX, RBX\nIMUL RCX, RAX",
        "DIV EBX",
        "MOV RAX, [RBX+8]\nADD RAX, RCX",
        "CMP RAX, RBX\nJNZ 0",
    };
    return kernels;
}

std::shared_ptr<const db::DatabaseCatalog>
catalogWith(std::vector<std::string> mnemonics, int extra_gens)
{
    core::BatchOptions options;
    options.num_threads = 2;
    options.characterizer.filter =
        [mnemonics](const isa::InstrVariant &v) {
            for (const std::string &m : mnemonics)
                if (v.mnemonic() == m)
                    return true;
            return false;
        };
    auto catalog = db::runCatalogSweep(
        defaultDb(), {uarch::UArch::Skylake}, options, nullptr);
    // Distinct generation numbers so the served bodies are
    // distinguishable even where analysis coverage coincides.
    for (int i = 0; i < extra_gens; ++i)
        catalog = db::DatabaseCatalog::splice(*catalog, {});
    return catalog;
}

std::shared_ptr<const db::DatabaseCatalog>
genA()
{
    static const auto catalog = catalogWith({"ADD", "XOR"}, 0);
    return catalog;
}

std::shared_ptr<const db::DatabaseCatalog>
genB()
{
    static const auto catalog =
        catalogWith({"ADD", "XOR", "IMUL"}, 1);
    return catalog;
}

HttpRequest
postPredict(const std::string &listing)
{
    HttpRequest request;
    request.method = "POST";
    request.target = "/predict?uarch=SKL";
    request.path = "/predict";
    request.query["uarch"] = "SKL";
    request.body = listing;
    return request;
}

server::QueryService::Options
soakOptions()
{
    server::QueryService::Options options;
    options.engine.num_threads = 2;
    return options;
}

TEST(PredictSoak, HammeredPredictStaysConsistentAcrossHotSwaps)
{
    // Golden bodies per (kernel, generation), from isolated services.
    std::vector<std::string> golden_a, golden_b;
    {
        server::QueryService service_a(genA(), defaultDb(),
                                       soakOptions());
        server::QueryService service_b(genB(), defaultDb(),
                                       soakOptions());
        for (const std::string &kernel : soakCorpus()) {
            HttpResponse a = service_a.handle(postPredict(kernel));
            HttpResponse b = service_b.handle(postPredict(kernel));
            ASSERT_EQ(a.status, 200) << kernel << "\n" << a.body;
            ASSERT_EQ(b.status, 200) << kernel << "\n" << b.body;
            golden_a.push_back(a.body);
            golden_b.push_back(b.body);
        }
    }

    server::QueryService service(genA(), defaultDb(), soakOptions());

    constexpr int kClientThreads = 4;
    constexpr int kRequestsPerThread = 64;
    constexpr int kSwaps = 24;

    std::atomic<bool> stop_swapping{false};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> errors{0};

    std::thread swapper([&] {
        for (int i = 0; i < kSwaps && !stop_swapping.load(); ++i) {
            service.swapCatalog(i % 2 == 0 ? genB() : genA());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });

    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t) {
        clients.emplace_back([&, t] {
            const auto &corpus = soakCorpus();
            for (int i = 0; i < kRequestsPerThread; ++i) {
                size_t k = static_cast<size_t>(t + i) % corpus.size();
                HttpResponse response =
                    service.handle(postPredict(corpus[k]));
                if (response.status != 200) {
                    ++errors;
                    continue;
                }
                // Epoch pinning: the body must be exactly one
                // generation's rendering, never a blend.
                if (response.body != golden_a[k] &&
                    response.body != golden_b[k])
                    ++mismatches;
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    stop_swapping.store(true);
    swapper.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(errors.load(), 0u);

    // The memo was exercised across epochs; sanity-check it kept
    // counting rather than serving across generations (each swap
    // invalidates by epoch, so insertions >= corpus size).
    auto memo = service.kernelMemoStats();
    EXPECT_GE(memo.insertions, soakCorpus().size());

    // And the requests all landed in the metrics.
    HttpRequest scrape;
    scrape.method = "GET";
    scrape.target = "/metrics";
    scrape.path = "/metrics";
    Exposition parsed = parseExposition(service.handle(scrape).body);
    EXPECT_EQ(endpointSample(parsed, "uops_http_requests_total",
                             "/predict"),
              static_cast<double>(kClientThreads * kRequestsPerThread));
}

TEST(PredictSoak, ReloadEndpointUnderConcurrentPredictLoad)
{
    // Same soak through the public /reload path: reloader installs
    // alternating generations while clients predict.
    server::QueryService service(genA(), defaultDb(), soakOptions());
    std::atomic<int> reloads{0};
    service.setReloader([&reloads](db::RecoveryReport &)
                            -> server::QueryService::CatalogPtr {
            return (reloads.fetch_add(1) % 2 == 0) ? genB() : genA();
        });

    HttpRequest reload;
    reload.method = "POST";
    reload.target = "/reload";
    reload.path = "/reload";

    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&, t] {
            const auto &corpus = soakCorpus();
            for (int i = 0; i < 48; ++i) {
                HttpResponse response = service.handle(postPredict(
                    corpus[static_cast<size_t>(t + i) %
                           corpus.size()]));
                if (response.status != 200)
                    ++failures;
            }
        });
    }
    threads.emplace_back([&] {
        for (int i = 0; i < 12; ++i) {
            HttpResponse response = service.handle(reload);
            if (response.status != 200)
                ++failures;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GE(reloads.load(), 12);
    EXPECT_GT(service.epoch(), 1u);
}

} // namespace
} // namespace uops::test
