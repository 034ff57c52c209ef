/**
 * @file
 * Tests for the work-stealing thread pool and the parallel batch
 * characterization engine: determinism under threading (the parallel
 * sweep must be byte-identical to a sequential one) and per-variant
 * failure accounting.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "core/batch.h"
#include "support/obs/metrics.h"
#include "support/thread_pool.h"
#include "test_util.h"

namespace uops::test {
namespace {

// ---------------------------------------------------------------------
// Thread pool.
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numWorkers(), 4u);

    const size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i, size_t worker) {
        ASSERT_LT(worker, pool.numWorkers());
        ++hits[i];
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, StealingSpreadsUnevenWork)
{
    // One task parks its worker until two tasks submitted after it
    // have run. Submission is round-robin over the two deques, so one
    // of them waits on the parked worker's own deque: only a steal by
    // the other worker runs it. (parallelFor's runners claim indices
    // instead of queueing a task per index, so this uses submit.)
    ThreadPool pool(2);
    std::mutex mutex;
    std::condition_variable cv;
    size_t parked_worker = 2;
    std::vector<size_t> ran_on;
    pool.submit([&](size_t worker) {
        std::unique_lock<std::mutex> lock(mutex);
        parked_worker = worker;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return ran_on.size() == 2; });
    });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return parked_worker < 2; });
    }
    for (int i = 0; i < 2; ++i) {
        pool.submit([&](size_t worker) {
            std::lock_guard<std::mutex> lock(mutex);
            ran_on.push_back(worker);
            cv.notify_all();
        });
    }
    pool.wait();
    ASSERT_LT(parked_worker, 2u);
    ASSERT_EQ(ran_on.size(), 2u);
    EXPECT_NE(ran_on[0], parked_worker);
    EXPECT_NE(ran_on[1], parked_worker);
}

TEST(ThreadPool, SubmitFromWithinTask)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&](size_t) {
            ++count;
            pool.submit([&](size_t) { ++count; });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, TaskExceptionIsRethrownFromWait)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&, i](size_t) {
            ++ran;
            if (i == 3)
                throw std::runtime_error("task 3 failed");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The failure does not cancel the remaining tasks.
    EXPECT_EQ(ran.load(), 8);
    // The error is delivered once; a later wait() is clean.
    pool.submit([&](size_t) { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, MultipleFaultsRethrowEarliestSubmittedDeterministically)
{
    // When several tasks fault in one wave, wait() must rethrow the
    // exception of the earliest-*submitted* task — not whichever
    // worker happened to report first — and count the intentionally
    // swallowed remainder. Repeat to shake out scheduling orders.
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(4);
        for (int i = 0; i < 16; ++i) {
            pool.submit([i](size_t) {
                if (i % 2 == 1)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
        }
        try {
            pool.wait();
            FAIL() << "wait() must rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "task 1");
        }
        // 8 tasks threw; one was rethrown, 7 swallowed by design.
        EXPECT_EQ(pool.droppedErrors(), 7u);
        // The error state is consumed: a later wave is clean.
        std::atomic<int> ran{0};
        pool.submit([&](size_t) { ++ran; });
        pool.wait();
        EXPECT_EQ(ran.load(), 1);
    }
}

TEST(ThreadPool, SingleWorkerRunsAllTasksWithoutRaces)
{
    ThreadPool pool(1);
    std::vector<size_t> order;
    pool.parallelFor(16, [&](size_t i, size_t worker) {
        EXPECT_EQ(worker, 0u);
        order.push_back(i);  // no lock needed: one worker
    });
    ASSERT_EQ(order.size(), 16u);
    std::set<size_t> unique(order.begin(), order.end());
    EXPECT_EQ(unique.size(), 16u);
}

TEST(ThreadPool, ParallelForStartsIndicesInAscendingOrder)
{
    // One worker runs the indices in the order they start. A caller
    // that consumes results in index order (the sweep's reorder
    // buffer) depends on it. The worker is kept busy while
    // parallelFor enqueues, so the order cannot come from a worker
    // that runs each index as soon as it is enqueued.
    ThreadPool pool(1);
    pool.submit([](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    std::vector<size_t> order;
    pool.parallelFor(16, [&](size_t i, size_t) { order.push_back(i); });
    std::vector<size_t> ascending(16);
    for (size_t i = 0; i < ascending.size(); ++i)
        ascending[i] = i;
    EXPECT_EQ(order, ascending);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex)
{
    for (int round = 0; round < 20; ++round) {
        ThreadPool pool(4);
        std::atomic<int> ran{0};
        try {
            pool.parallelFor(16, [&](size_t i, size_t) {
                ++ran;
                if (i % 4 == 3)
                    throw std::runtime_error("index " +
                                             std::to_string(i));
            });
            FAIL() << "parallelFor must rethrow";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 3");
        }
        // Every index ran; 4 threw, one was rethrown.
        EXPECT_EQ(ran.load(), 16);
        EXPECT_EQ(pool.droppedErrors(), 3u);
    }
}

// ---------------------------------------------------------------------
// Batch characterization.
// ---------------------------------------------------------------------

/** A small but diverse slice: GPR ALU, zero idioms, SSE and AVX
 *  vector, divider — AVX variants exist only on SNB+. */
bool
sliceFilter(const isa::InstrVariant &v)
{
    const std::string &m = v.mnemonic();
    return m == "ADD" || m == "XOR" || m == "PXOR" || m == "DIV" ||
           m == "MOVAPS" || m == "VPXOR";
}

core::BatchOptions
sliceOptions(size_t threads)
{
    core::BatchOptions options;
    options.num_threads = threads;
    options.characterizer.filter = sliceFilter;
    return options;
}

const std::vector<uarch::UArch> kArches = {uarch::UArch::Nehalem,
                                           uarch::UArch::Skylake};

TEST(BatchSweep, CoversEveryMeasurableVariantInIdOrder)
{
    auto report = core::runBatchSweep(defaultDb(), kArches,
                                      sliceOptions(2));
    ASSERT_EQ(report.uarches.size(), 2u);
    for (const core::UArchReport &r : report.uarches) {
        core::Characterizer tool(defaultDb(), r.arch);
        size_t expected = 0;
        for (const auto *v : defaultDb().all())
            if (tool.isMeasurable(*v) && sliceFilter(*v))
                ++expected;
        EXPECT_EQ(r.outcomes.size(), expected);
        for (size_t i = 1; i < r.outcomes.size(); ++i)
            EXPECT_LT(r.outcomes[i - 1].variant->id(),
                      r.outcomes[i].variant->id());
        EXPECT_EQ(r.numFailed(), 0u);
    }
    // Skylake supports AVX, so it measures strictly more variants.
    EXPECT_GT(report.uarches[1].outcomes.size(),
              report.uarches[0].outcomes.size());
}

TEST(BatchSweep, ParallelSweepIsByteIdenticalToSequential)
{
    auto sequential = core::runBatchSweep(defaultDb(), kArches,
                                          sliceOptions(1));
    auto parallel = core::runBatchSweep(defaultDb(), kArches,
                                        sliceOptions(4));
    ASSERT_EQ(sequential.numTasks(), parallel.numTasks());
    EXPECT_EQ(sequential.numFailed(), 0u);
    EXPECT_EQ(sequential.toXmlString(), parallel.toXmlString());
}

TEST(BatchSweep, MatchesDirectCharacterizer)
{
    auto report = core::runBatchSweep(defaultDb(), kArches,
                                      sliceOptions(4));
    // The per-uarch payload must agree with a plain Characterizer::run.
    core::Characterizer::Options copts;
    copts.filter = sliceFilter;
    core::Characterizer tool(defaultDb(), uarch::UArch::Skylake, copts);
    auto direct = tool.run();
    EXPECT_EQ(core::exportResultsXml(direct)->toString(),
              core::exportResultsXml(report.uarches[1].toSet())
                  ->toString());
}

TEST(BatchSweep, SinkObservesWorkListOrderUnderThreading)
{
    // The streaming sink must see every outcome exactly once, in the
    // deterministic work-list order (uarch-major, variant-id), no
    // matter how tasks are scheduled — the reorder buffer's contract.
    class RecordingSink : public core::SweepSink
    {
      public:
        std::vector<std::pair<uarch::UArch, const isa::InstrVariant *>>
            seen;
        bool finished = false;
        void
        onVariant(uarch::UArch arch,
                  const core::VariantOutcome &outcome) override
        {
            EXPECT_FALSE(finished);
            seen.emplace_back(arch, outcome.variant);
        }
        void finish() override { finished = true; }
    };

    RecordingSink sink;
    core::BatchOptions options = sliceOptions(4);
    options.sink = &sink;
    auto report = core::runBatchSweep(defaultDb(), kArches, options);

    EXPECT_TRUE(sink.finished);
    ASSERT_EQ(sink.seen.size(), report.numTasks());
    size_t i = 0;
    for (const core::UArchReport &r : report.uarches)
        for (const core::VariantOutcome &outcome : r.outcomes) {
            EXPECT_EQ(sink.seen[i].first, r.arch);
            EXPECT_EQ(sink.seen[i].second, outcome.variant);
            ++i;
        }
}

TEST(BatchSweep, SinkStreamsWhileTheSweepRuns)
{
    // With keep_results = false the sweep promises to hold no more
    // than the reorder window of results, so the first outcome must
    // reach the sink long before the last task finishes.
    class FirstDeliverySink : public core::SweepSink
    {
      public:
        explicit FirstDeliverySink(const std::atomic<size_t> &done)
            : done_(done)
        {
        }
        size_t done_at_first = 0;
        void
        onVariant(uarch::UArch, const core::VariantOutcome &) override
        {
            if (done_at_first == 0)
                done_at_first = done_.load();
        }

      private:
        const std::atomic<size_t> &done_;
    };

    std::atomic<size_t> done{0};
    FirstDeliverySink sink(done);
    core::BatchOptions options = sliceOptions(2);
    options.sink = &sink;
    options.keep_results = false;
    options.on_variant_done = [&](uarch::UArch,
                                  const isa::InstrVariant &,
                                  bool) { ++done; };
    auto report = core::runBatchSweep(defaultDb(), kArches, options);
    ASSERT_GT(report.numTasks(), 8u);
    EXPECT_GE(sink.done_at_first, 1u);
    EXPECT_LT(sink.done_at_first, report.numTasks() / 2);
}

TEST(BatchSweep, SetupSimulatesEachCoreOnce)
{
    // Set-up discovers each uarch's blocking sets; the refresh
    // generations replay their predecessor's runs from the memo-cache
    // only if they are set up after it, not beside it. A filter that
    // accepts no variant leaves set-up alone, whose simulated cycles
    // must not depend on the worker count.
    auto setup_cycles = [](size_t threads) {
        auto counter = [](const char *mode) -> obs::Counter & {
            return obs::Registry::global().counter(
                "uops_sim_cycles_total", "", {{"mode", mode}});
        };
        const uint64_t simulated = counter("simulated").value();
        const uint64_t skipped = counter("fast_forwarded").value();
        core::BatchOptions options;
        options.num_threads = threads;
        options.characterizer.filter = [](const isa::InstrVariant &) {
            return false;
        };
        auto report = core::runBatchSweep(
            defaultDb(), uarch::allUArches(), options);
        EXPECT_EQ(report.numTasks(), 0u);
        EXPECT_EQ(report.uarches.size(), uarch::allUArches().size());
        return std::make_pair(counter("simulated").value() - simulated,
                              counter("fast_forwarded").value() -
                                  skipped);
    };
    const auto one = setup_cycles(1);
    EXPECT_GT(one.first, 0u);
    EXPECT_EQ(setup_cycles(4), one);
}

TEST(BatchSweep, KeepResultsFalseRequiresSink)
{
    core::BatchOptions options = sliceOptions(1);
    options.keep_results = false;
    EXPECT_THROW(core::runBatchSweep(defaultDb(), kArches, options),
                 FatalError);
}

TEST(BatchSweep, ProgressHookSeesEveryTask)
{
    std::atomic<size_t> done{0};
    std::atomic<size_t> ok_count{0};
    core::BatchOptions options = sliceOptions(4);
    options.on_variant_done = [&](uarch::UArch,
                                  const isa::InstrVariant &, bool ok) {
        ++done;
        if (ok)
            ++ok_count;
    };
    auto report = core::runBatchSweep(defaultDb(), kArches, options);
    EXPECT_EQ(done.load(), report.numTasks());
    EXPECT_EQ(ok_count.load(), report.numSucceeded());
}

TEST(BatchSweep, PerVariantFailureIsRecordedNotFatal)
{
    std::atomic<size_t> hook_calls{0};
    core::BatchOptions options = sliceOptions(4);
    options.on_variant_done = [&](uarch::UArch,
                                  const isa::InstrVariant &v, bool) {
        ++hook_calls;
        if (v.mnemonic() == "PXOR")
            throw std::runtime_error("injected failure for " + v.name());
    };
    auto report = core::runBatchSweep(defaultDb(), kArches, options);

    // Exactly once per task, even for variants whose hook threw.
    EXPECT_EQ(hook_calls.load(), report.numTasks());

    size_t failed = 0;
    for (const core::UArchReport &r : report.uarches) {
        for (const core::VariantOutcome &o : r.outcomes) {
            if (o.variant->mnemonic() == "PXOR") {
                ++failed;
                EXPECT_FALSE(o.ok);
                EXPECT_NE(o.error.find("injected failure"),
                          std::string::npos);
            } else {
                EXPECT_TRUE(o.ok) << o.variant->name();
            }
        }
    }
    EXPECT_GT(failed, 0u);
    EXPECT_EQ(report.numFailed(), failed);
    EXPECT_EQ(report.numSucceeded() + failed, report.numTasks());
}

TEST(BatchSweep, XmlReportStructure)
{
    core::BatchOptions options = sliceOptions(2);
    options.on_variant_done = [](uarch::UArch,
                                 const isa::InstrVariant &v, bool) {
        if (v.name() == "ADD_R64_R64")
            throw std::runtime_error("injected");
    };
    auto report = core::runBatchSweep(defaultDb(), kArches, options);

    auto xml = parseXml(report.toXmlString());
    EXPECT_EQ(xml->name(), "uopsBatch");
    EXPECT_EQ(xml->getAttr("uarches"), "2");
    EXPECT_EQ(xml->getAttr("failed"),
              std::to_string(report.numFailed()));

    auto uarch_nodes = xml->childrenNamed("uopsInfo");
    ASSERT_EQ(uarch_nodes.size(), 2u);
    EXPECT_EQ(uarch_nodes[0]->getAttr("architecture"), "NHM");
    EXPECT_EQ(uarch_nodes[1]->getAttr("architecture"), "SKL");
    for (const XmlNode *node : uarch_nodes) {
        auto errors = node->childrenNamed("error");
        ASSERT_EQ(errors.size(), 1u);
        EXPECT_EQ(errors[0]->getAttr("name"), "ADD_R64_R64");
        // Failed variants are excluded from the <instruction> payload.
        for (const XmlNode *instr : node->childrenNamed("instruction"))
            EXPECT_NE(instr->getAttr("name"), "ADD_R64_R64");
    }
}

TEST(BatchSweep, RejectsEmptyUArchList)
{
    EXPECT_THROW(core::runBatchSweep(defaultDb(), {}, {}), FatalError);
}

} // namespace
} // namespace uops::test
