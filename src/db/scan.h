/**
 * @file
 * Predicate-pushdown scan executor over the database's columns.
 *
 * Every query the database answers — /search filters, port-superset
 * lookups, range scans, the diff and analytics merges — is a
 * conjunction of per-column predicates applied to the columnar store.
 * Instead of one hand-written loop per query shape, a query compiles
 * into a PredicateSet and ScanExecutor::run evaluates it in tiers,
 * cheapest first:
 *
 *  0. Constants. A database is one uarch's shard, so a uarch
 *     predicate is resolved once, before anything else: it either
 *     matches the shard (and is dropped) or no row can match.
 *  1. Index short-circuits. String-equality predicates (name,
 *     mnemonic, extension) never scan: they resolve through the
 *     in-memory equal-range indexes and intersect into a sorted
 *     candidate list. A selective throughput/latency range likewise
 *     pre-filters through the sorted order indexes when the window is
 *     small relative to the table.
 *  2. Batched column scans. Whatever predicates remain run over the
 *     shard in 64-row blocks, each predicate producing a 64-bit
 *     selection mask that is ANDed into the block's bitmap (with
 *     early-out once the bitmap is empty). The fixed-width integer
 *     columns (u8 flags, u16 port masks / uop counts / latencies)
 *     use SSE2 compare+movemask kernels — 16 rows per
 *     instruction — with scalar fallbacks that the compiler can
 *     auto-vectorize; matching row ids are extracted from the bitmap
 *     with countr_zero, so the emission loop costs only the matches.
 *
 * Predicates are cheap POD values; a PredicateSet is a fixed-capacity
 * conjunction (no allocation). Text operands are views into
 * caller-owned storage and must outlive run(). Results are row ids in
 * ascending order, truncated to the limit — exactly the order and
 * truncation the hand-written loops produced, so rebuilding Query on
 * top of the executor is byte-identical at the HTTP layer (pinned by
 * tests/scan_test.cpp property tests and the server golden tests).
 */

#ifndef UOPS_DB_SCAN_H
#define UOPS_DB_SCAN_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "db/database.h"
#include "support/cycles.h"
#include "uarch/uarch.h"

namespace uops::db {

/** One typed column predicate. Build via the factories below. */
struct ScanPredicate
{
    enum class Kind : uint8_t {
        kArchEq,        ///< shard uarch == a (a constant per shard)
        kNameEq,        ///< interned name == text
        kMnemonicEq,    ///< interned mnemonic == text
        kExtensionEq,   ///< interned extension == text
        kPortSuperset,  ///< (port_union & a) == a   ("uses all of")
        kPortSubset,    ///< (port_union & ~a) == 0  ("uses only")
        kPortExact,     ///< port_union == a
        kTpRange,       ///< a <= tp_measured.hundredths() <= b
        kLatRange,      ///< a <= max_latency <= b
        kUopRange,      ///< a <= uop_count <= b
        kFlagsAll,      ///< (flags & a) == a
    };

    Kind kind = Kind::kArchEq;
    int64_t a = 0;  ///< value / mask / inclusive lower bound
    int64_t b = 0;  ///< inclusive upper bound (range kinds only)

    /** Equality operand of the string kinds; a view into caller
     *  storage that must outlive the run() call. */
    std::string_view text{};
};

ScanPredicate archIs(uarch::UArch arch);
ScanPredicate nameIs(std::string_view name);
ScanPredicate mnemonicIs(std::string_view mnemonic);
ScanPredicate extensionIs(std::string_view extension);
ScanPredicate portsSuperset(uarch::PortMask mask);
ScanPredicate portsSubset(uarch::PortMask mask);
ScanPredicate portsExact(uarch::PortMask mask);
ScanPredicate tpBetween(std::optional<Cycles> lo,
                        std::optional<Cycles> hi);
ScanPredicate latBetween(std::optional<int> lo, std::optional<int> hi);
ScanPredicate uopsBetween(std::optional<int> lo, std::optional<int> hi);
ScanPredicate hasFlags(uint8_t flags);

/**
 * A fixed-capacity conjunction of predicates. A query needs at most
 * one predicate per column, so the capacity covers every Kind with no
 * heap allocation on the query path.
 */
class PredicateSet
{
  public:
    static constexpr size_t kCapacity = 12;

    /** Append one conjunct. @throws FatalError when full. */
    void add(const ScanPredicate &p);

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const ScanPredicate *begin() const { return preds_.data(); }
    const ScanPredicate *end() const { return preds_.data() + size_; }
    const ScanPredicate &operator[](size_t i) const { return preds_[i]; }

  private:
    std::array<ScanPredicate, kCapacity> preds_{};
    size_t size_ = 0;
};

/** Compile a Query's set fields into the equivalent conjunction.
 *  Views into the query's strings: @p query must outlive run(). */
PredicateSet predicatesFromQuery(const Query &query);

/** What a run actually did — asserted by tests, exposed for tuning. */
struct ScanStats
{
    size_t rows_considered = 0;  ///< rows reaching predicate evaluation
    size_t rows_matched = 0;     ///< rows emitted (<= limit)
    bool used_string_index = false;  ///< equal-range pre-filter hit
    bool used_order_index = false;   ///< tp/lat order-index pre-filter
};

/**
 * Executes PredicateSets against one shard. Stateless and cheap to
 * construct (holds only the reference); safe to use concurrently from
 * any number of threads.
 */
class ScanExecutor
{
  public:
    explicit ScanExecutor(const InstructionDatabase &db) : db_(db) {}

    /**
     * All rows satisfying every predicate, ascending, truncated to
     * @p limit. A string predicate whose operand is not even interned
     * short-circuits to no rows.
     */
    std::vector<uint32_t> run(const PredicateSet &preds,
                              size_t limit = SIZE_MAX,
                              ScanStats *stats = nullptr) const;

  private:
    const InstructionDatabase &db_;
};

} // namespace uops::db

#endif // UOPS_DB_SCAN_H
