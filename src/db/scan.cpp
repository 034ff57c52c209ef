#include "scan.h"

#include <algorithm>
#include <bit>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define UOPS_SCAN_HAVE_AVX512_DISPATCH 1
#define UOPS_SCAN_AVX512_TARGET \
    __attribute__((target("avx512f,avx512bw,avx512vl")))
#endif

#include "support/status.h"

namespace uops::db {

// ---------------------------------------------------------------------
// Predicate construction
// ---------------------------------------------------------------------

ScanPredicate
archIs(uarch::UArch arch)
{
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kArchEq;
    p.a = static_cast<int64_t>(static_cast<uint8_t>(arch));
    return p;
}

namespace {

ScanPredicate
stringEq(ScanPredicate::Kind kind, std::string_view text)
{
    ScanPredicate p;
    p.kind = kind;
    p.text = text;
    return p;
}

ScanPredicate
portPred(ScanPredicate::Kind kind, uarch::PortMask mask)
{
    ScanPredicate p;
    p.kind = kind;
    p.a = mask;
    return p;
}

ScanPredicate
rangePred(ScanPredicate::Kind kind, int64_t lo, int64_t hi)
{
    ScanPredicate p;
    p.kind = kind;
    p.a = lo;
    p.b = hi;
    return p;
}

} // namespace

ScanPredicate
nameIs(std::string_view name)
{
    return stringEq(ScanPredicate::Kind::kNameEq, name);
}

ScanPredicate
mnemonicIs(std::string_view mnemonic)
{
    return stringEq(ScanPredicate::Kind::kMnemonicEq, mnemonic);
}

ScanPredicate
extensionIs(std::string_view extension)
{
    return stringEq(ScanPredicate::Kind::kExtensionEq, extension);
}

ScanPredicate
portsSuperset(uarch::PortMask mask)
{
    return portPred(ScanPredicate::Kind::kPortSuperset, mask);
}

ScanPredicate
portsSubset(uarch::PortMask mask)
{
    return portPred(ScanPredicate::Kind::kPortSubset, mask);
}

ScanPredicate
portsExact(uarch::PortMask mask)
{
    return portPred(ScanPredicate::Kind::kPortExact, mask);
}

ScanPredicate
tpBetween(std::optional<Cycles> lo, std::optional<Cycles> hi)
{
    return rangePred(
        ScanPredicate::Kind::kTpRange,
        lo ? lo->hundredths() : std::numeric_limits<int64_t>::min(),
        hi ? hi->hundredths() : std::numeric_limits<int64_t>::max());
}

ScanPredicate
latBetween(std::optional<int> lo, std::optional<int> hi)
{
    return rangePred(
        ScanPredicate::Kind::kLatRange,
        lo ? *lo : std::numeric_limits<int64_t>::min(),
        hi ? *hi : std::numeric_limits<int64_t>::max());
}

ScanPredicate
uopsBetween(std::optional<int> lo, std::optional<int> hi)
{
    return rangePred(
        ScanPredicate::Kind::kUopRange,
        lo ? *lo : std::numeric_limits<int64_t>::min(),
        hi ? *hi : std::numeric_limits<int64_t>::max());
}

ScanPredicate
hasFlags(uint8_t flags)
{
    ScanPredicate p;
    p.kind = ScanPredicate::Kind::kFlagsAll;
    p.a = flags;
    return p;
}

void
PredicateSet::add(const ScanPredicate &p)
{
    fatalIf(size_ >= kCapacity, "scan: predicate set overflow");
    preds_[size_++] = p;
}

PredicateSet
predicatesFromQuery(const Query &query)
{
    PredicateSet out;
    if (query.arch)
        out.add(archIs(*query.arch));
    if (query.name)
        out.add(nameIs(*query.name));
    if (query.mnemonic)
        out.add(mnemonicIs(*query.mnemonic));
    if (query.extension)
        out.add(extensionIs(*query.extension));
    if (query.uses_ports)
        out.add(portsSuperset(query.uses_ports));
    if (query.ports_subset)
        out.add(portsSubset(*query.ports_subset));
    if (query.ports_exact)
        out.add(portsExact(*query.ports_exact));
    if (query.tp_min || query.tp_max)
        out.add(tpBetween(query.tp_min, query.tp_max));
    if (query.lat_min || query.lat_max)
        out.add(latBetween(query.lat_min, query.lat_max));
    if (query.uops_min || query.uops_max)
        out.add(uopsBetween(query.uops_min, query.uops_max));
    if (query.has_flags)
        out.add(hasFlags(query.has_flags));
    return out;
}

// ---------------------------------------------------------------------
// Compiled predicates and batch kernels
// ---------------------------------------------------------------------

namespace {

using Kind = ScanPredicate::Kind;

/** A predicate bound to its column pointer with operands narrowed to
 *  the column's width (string operands resolved to interned ids, u16
 *  range bounds clamped), so the inner loops touch nothing wide.
 *  Deliberately uninitialized (trivial): run() sets every field its
 *  kind's kernels read, and skipping the zero-fill of the compile
 *  array is measurable on point queries. */
struct Compiled
{
    Kind kind;
    const uint8_t *col8;
    const uint16_t *col16;
    const uint32_t *col32;
    const Cycles *col_cycles;
    uint8_t val8;
    uint16_t mask16;
    uint16_t lo16, hi16;
    uint32_t id32;
    int64_t lo64, hi64;
};

/** Ascending per-row evaluation cost; scans run cheap-first so the
 *  block bitmap empties before the expensive kernels run. */
int
costRank(Kind kind)
{
    switch (kind) {
    case Kind::kArchEq:  // resolved before compilation, never ranked
    case Kind::kFlagsAll: return 1;
    case Kind::kPortExact: return 2;
    case Kind::kPortSuperset: return 3;
    case Kind::kPortSubset: return 4;
    case Kind::kUopRange: return 5;
    case Kind::kLatRange: return 6;
    case Kind::kNameEq:
    case Kind::kMnemonicEq:
    case Kind::kExtensionEq: return 7;
    case Kind::kTpRange: return 8;
    }
    return 9;
}

/** Clamp an int64 inclusive range onto a u16 column's domain; an
 *  unsatisfiable range becomes the canonical empty (1, 0). */
void
clampU16(int64_t lo, int64_t hi, uint16_t &lo16, uint16_t &hi16)
{
    if (lo > hi || hi < 0 || lo > 0xFFFF) {
        lo16 = 1;
        hi16 = 0;
        return;
    }
    lo16 = static_cast<uint16_t>(std::max<int64_t>(lo, 0));
    hi16 = static_cast<uint16_t>(std::min<int64_t>(hi, 0xFFFF));
}

bool
evalScalar(const Compiled &p, uint32_t row)
{
    switch (p.kind) {
    case Kind::kArchEq:
        break;  // resolved before compilation, never evaluated
    case Kind::kFlagsAll:
        return (p.col8[row] & p.val8) == p.val8;
    case Kind::kPortSuperset:
        return (p.col16[row] & p.mask16) == p.mask16;
    case Kind::kPortSubset:
        return (p.col16[row] & static_cast<uint16_t>(~p.mask16)) == 0;
    case Kind::kPortExact:
        return p.col16[row] == p.mask16;
    case Kind::kUopRange:
    case Kind::kLatRange:
        return p.col16[row] >= p.lo16 && p.col16[row] <= p.hi16;
    case Kind::kNameEq:
    case Kind::kMnemonicEq:
    case Kind::kExtensionEq:
        return p.col32[row] == p.id32;
    case Kind::kTpRange: {
        int64_t v = p.col_cycles[row].hundredths();
        return v >= p.lo64 && v <= p.hi64;
    }
    }
    return false;
}

#if defined(__SSE2__)

/** Two 8-lane u16 compare results (0xFFFF / 0) -> 16 mask bits, lane
 *  order preserved (signed saturating pack maps -1 -> 0xFF, 0 -> 0). */
inline uint32_t
packMask16(__m128i lo, __m128i hi)
{
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_packs_epi16(lo, hi)));
}

inline __m128i
loadU16(const uint16_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

#endif // __SSE2__

/** 16 selection bits for rows [base, base+16) of a u16 column. */
template <Kind K>
inline uint32_t
mask16U16(const Compiled &p, uint32_t base)
{
    const uint16_t *src = p.col16 + base;
#if defined(__SSE2__)
    __m128i a = loadU16(src);
    __m128i b = loadU16(src + 8);
    if constexpr (K == Kind::kPortSuperset) {
        const __m128i m = _mm_set1_epi16(static_cast<short>(p.mask16));
        return packMask16(_mm_cmpeq_epi16(_mm_and_si128(a, m), m),
                          _mm_cmpeq_epi16(_mm_and_si128(b, m), m));
    } else if constexpr (K == Kind::kPortSubset) {
        const __m128i inv = _mm_set1_epi16(
            static_cast<short>(~p.mask16));
        const __m128i zero = _mm_setzero_si128();
        return packMask16(
            _mm_cmpeq_epi16(_mm_and_si128(a, inv), zero),
            _mm_cmpeq_epi16(_mm_and_si128(b, inv), zero));
    } else if constexpr (K == Kind::kPortExact) {
        const __m128i m = _mm_set1_epi16(static_cast<short>(p.mask16));
        return packMask16(_mm_cmpeq_epi16(a, m),
                          _mm_cmpeq_epi16(b, m));
    } else {
        // Inclusive range. SSE2 has only signed 16-bit compares, so
        // bias operands by 0x8000 to order unsigned values correctly.
        const __m128i bias = _mm_set1_epi16(
            static_cast<short>(0x8000));
        const __m128i lo = _mm_set1_epi16(
            static_cast<short>(p.lo16 ^ 0x8000));
        const __m128i hi = _mm_set1_epi16(
            static_cast<short>(p.hi16 ^ 0x8000));
        __m128i as = _mm_xor_si128(a, bias);
        __m128i bs = _mm_xor_si128(b, bias);
        __m128i bad_a = _mm_or_si128(_mm_cmpgt_epi16(as, hi),
                                     _mm_cmpgt_epi16(lo, as));
        __m128i bad_b = _mm_or_si128(_mm_cmpgt_epi16(bs, hi),
                                     _mm_cmpgt_epi16(lo, bs));
        return packMask16(bad_a, bad_b) ^ 0xFFFFu;
    }
#else
    uint32_t w = 0;
    for (uint32_t i = 0; i < 16; ++i) {
        bool hit;
        if constexpr (K == Kind::kPortSuperset)
            hit = (src[i] & p.mask16) == p.mask16;
        else if constexpr (K == Kind::kPortSubset)
            hit = (src[i] & static_cast<uint16_t>(~p.mask16)) == 0;
        else if constexpr (K == Kind::kPortExact)
            hit = src[i] == p.mask16;
        else
            hit = src[i] >= p.lo16 && src[i] <= p.hi16;
        w |= static_cast<uint32_t>(hit) << i;
    }
    return w;
#endif
}

/** 16 selection bits for rows [base, base+16) of the u8 flags
 *  column: (flags & val8) == val8. */
inline uint32_t
flagsMask16(const Compiled &p, uint32_t base)
{
    const uint8_t *src = p.col8 + base;
#if defined(__SSE2__)
    __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(src));
    const __m128i m = _mm_set1_epi8(static_cast<char>(p.val8));
    x = _mm_and_si128(x, m);
    return static_cast<uint32_t>(
               _mm_movemask_epi8(_mm_cmpeq_epi8(x, m))) &
           0xFFFFu;
#else
    uint32_t w = 0;
    for (uint32_t i = 0; i < 16; ++i)
        w |= static_cast<uint32_t>((src[i] & p.val8) == p.val8) << i;
    return w;
#endif
}

/**
 * Append the row ids named by @p word's set bits (offset by @p base)
 * at @p p, returning the new end. Raw-pointer writes: the caller has
 * already sized the destination, so each match is one store plus a
 * clear-lowest-bit — no per-element capacity check. (A SIMD
 * table-expansion variant measured slower than this serial loop.)
 */
inline uint32_t *
emitWord(uint64_t word, uint32_t base, uint32_t *p)
{
    while (word) {
        *p++ = base + static_cast<uint32_t>(std::countr_zero(word));
        word &= word - 1;
    }
    return p;
}

/** Selection word for the @p n rows at @p base (n <= 64); bit i set
 *  iff row base+i satisfies @p p. */
uint64_t
evalWord(const Compiled &p, uint32_t base, uint32_t n)
{
    uint64_t w = 0;
    uint32_t k = 0;
    switch (p.kind) {
    case Kind::kArchEq:
        return w;  // resolved before compilation, never evaluated
    case Kind::kFlagsAll:
        for (; k + 16 <= n; k += 16)
            w |= static_cast<uint64_t>(flagsMask16(p, base + k)) << k;
        for (; k < n; ++k)
            w |= static_cast<uint64_t>(
                     (p.col8[base + k] & p.val8) == p.val8)
                 << k;
        return w;
    case Kind::kPortSuperset:
        for (; k + 16 <= n; k += 16)
            w |= static_cast<uint64_t>(
                     mask16U16<Kind::kPortSuperset>(p, base + k))
                 << k;
        for (; k < n; ++k)
            w |= static_cast<uint64_t>(
                     (p.col16[base + k] & p.mask16) == p.mask16)
                 << k;
        return w;
    case Kind::kPortSubset:
        for (; k + 16 <= n; k += 16)
            w |= static_cast<uint64_t>(
                     mask16U16<Kind::kPortSubset>(p, base + k))
                 << k;
        for (; k < n; ++k)
            w |= static_cast<uint64_t>(
                     (p.col16[base + k] &
                      static_cast<uint16_t>(~p.mask16)) == 0)
                 << k;
        return w;
    case Kind::kPortExact:
        for (; k + 16 <= n; k += 16)
            w |= static_cast<uint64_t>(
                     mask16U16<Kind::kPortExact>(p, base + k))
                 << k;
        for (; k < n; ++k)
            w |= static_cast<uint64_t>(p.col16[base + k] == p.mask16)
                 << k;
        return w;
    case Kind::kUopRange:
    case Kind::kLatRange:
        for (; k + 16 <= n; k += 16)
            w |= static_cast<uint64_t>(
                     mask16U16<Kind::kUopRange>(p, base + k))
                 << k;
        for (; k < n; ++k)
            w |= static_cast<uint64_t>(p.col16[base + k] >= p.lo16 &&
                                       p.col16[base + k] <= p.hi16)
                 << k;
        return w;
    case Kind::kNameEq:
    case Kind::kMnemonicEq:
    case Kind::kExtensionEq:
        for (; k < n; ++k)
            w |= static_cast<uint64_t>(p.col32[base + k] == p.id32)
                 << k;
        return w;
    case Kind::kTpRange:
        for (; k < n; ++k) {
            int64_t v = p.col_cycles[base + k].hundredths();
            w |= static_cast<uint64_t>(v >= p.lo64 && v <= p.hi64)
                 << k;
        }
        return w;
    }
    return w;
}

#if defined(UOPS_SCAN_HAVE_AVX512_DISPATCH)

// AVX-512 variants, selected at runtime (the base build stays plain
// SSE2 so the binary runs anywhere). Mask registers map a 64-row
// block onto at most two 32-lane compares, and vpcompressd turns the
// selection word into packed row ids with no per-match dependency
// chain — the two costs that dominate the scalar pipeline.

/** True once the CPU offers the F/BW/VL subset the kernels use. */
bool
haveAvx512()
{
    static const bool have = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw") &&
                             __builtin_cpu_supports("avx512vl");
    return have;
}

/** Selection word for up to 64 rows of a u16 column, one predicate
 *  kind per instantiation; masked loads fault-suppress the tail. */
template <Kind K>
UOPS_SCAN_AVX512_TARGET inline uint64_t
evalU16Avx512(const Compiled &p, uint32_t base, uint32_t n)
{
    uint64_t w = 0;
    for (uint32_t k = 0; k < n; k += 32) {
        const uint32_t m = std::min<uint32_t>(32, n - k);
        const __mmask32 live =
            m == 32 ? ~__mmask32{0}
                    : static_cast<__mmask32>((uint32_t{1} << m) - 1);
        const __m512i v =
            _mm512_maskz_loadu_epi16(live, p.col16 + base + k);
        __mmask32 hit;
        if constexpr (K == Kind::kPortSuperset) {
            const __m512i mask = _mm512_set1_epi16(
                static_cast<short>(p.mask16));
            hit = _mm512_cmpeq_epi16_mask(
                _mm512_and_si512(v, mask), mask);
        } else if constexpr (K == Kind::kPortSubset) {
            const __m512i inv = _mm512_set1_epi16(
                static_cast<short>(~p.mask16));
            hit = _mm512_testn_epi16_mask(v, inv);
        } else if constexpr (K == Kind::kPortExact) {
            hit = _mm512_cmpeq_epi16_mask(
                v, _mm512_set1_epi16(static_cast<short>(p.mask16)));
        } else {
            hit = _mm512_cmple_epu16_mask(
                      _mm512_set1_epi16(static_cast<short>(p.lo16)),
                      v) &
                  _mm512_cmple_epu16_mask(
                      v,
                      _mm512_set1_epi16(static_cast<short>(p.hi16)));
        }
        w |= static_cast<uint64_t>(hit & live) << k;
    }
    return w;
}

/** AVX-512 evalWord: same contract, wider compares. */
UOPS_SCAN_AVX512_TARGET uint64_t
evalWordAvx512(const Compiled &p, uint32_t base, uint32_t n)
{
    const uint64_t live64 =
        n == 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
    switch (p.kind) {
    case Kind::kArchEq:
        return 0;  // resolved before compilation, never evaluated
    case Kind::kFlagsAll: {
        const __mmask64 live = static_cast<__mmask64>(live64);
        const __m512i mask = _mm512_set1_epi8(
            static_cast<char>(p.val8));
        const __m512i v = _mm512_and_si512(
            _mm512_maskz_loadu_epi8(live, p.col8 + base), mask);
        return _mm512_cmpeq_epi8_mask(v, mask) & live64;
    }
    case Kind::kPortSuperset:
        return evalU16Avx512<Kind::kPortSuperset>(p, base, n);
    case Kind::kPortSubset:
        return evalU16Avx512<Kind::kPortSubset>(p, base, n);
    case Kind::kPortExact:
        return evalU16Avx512<Kind::kPortExact>(p, base, n);
    case Kind::kUopRange:
    case Kind::kLatRange:
        return evalU16Avx512<Kind::kUopRange>(p, base, n);
    case Kind::kNameEq:
    case Kind::kMnemonicEq:
    case Kind::kExtensionEq: {
        uint64_t w = 0;
        const __m512i id = _mm512_set1_epi32(
            static_cast<int>(p.id32));
        for (uint32_t k = 0; k < n; k += 16) {
            const uint32_t m = std::min<uint32_t>(16, n - k);
            const __mmask16 live =
                m == 16
                    ? ~__mmask16{0}
                    : static_cast<__mmask16>((uint32_t{1} << m) - 1);
            const __m512i v =
                _mm512_maskz_loadu_epi32(live, p.col32 + base + k);
            w |= static_cast<uint64_t>(
                     _mm512_mask_cmpeq_epi32_mask(live, v, id))
                 << k;
        }
        return w;
    }
    case Kind::kTpRange:
        return evalWord(p, base, n);
    }
    return 0;
}

/** Row ids 0..15 — the per-block index seed for compress stores. */
UOPS_SCAN_AVX512_TARGET inline __m512i
iota16()
{
    return _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4,
                            3, 2, 1, 0);
}

/** emitWord via vpcompressd: each 16-bit chunk of the selection word
 *  compress-stores its matching row ids in one shot, so emission cost
 *  no longer scales with a serial clear-lowest-bit chain. Stores
 *  exactly popcount lanes — no overwrite slack needed. */
UOPS_SCAN_AVX512_TARGET uint32_t *
emitWordAvx512(uint64_t word, uint32_t base, uint32_t *p)
{
    __m512i idx = _mm512_add_epi32(_mm512_set1_epi32(
                                       static_cast<int>(base)),
                                   iota16());
    const __m512i step = _mm512_set1_epi32(16);
    while (word) {
        const __mmask16 m = static_cast<__mmask16>(word);
        _mm512_mask_compressstoreu_epi32(p, m, idx);
        p += std::popcount(static_cast<uint32_t>(m));
        idx = _mm512_add_epi32(idx, step);
        word >>= 16;
    }
    return p;
}

#else // !UOPS_SCAN_HAVE_AVX512_DISPATCH

constexpr bool
haveAvx512()
{
    return false;
}

inline uint64_t
evalWordAvx512(const Compiled &p, uint32_t base, uint32_t n)
{
    return evalWord(p, base, n);
}

inline uint32_t *
emitWordAvx512(uint64_t word, uint32_t base, uint32_t *p)
{
    return emitWord(word, base, p);
}

#endif // UOPS_SCAN_HAVE_AVX512_DISPATCH

} // namespace

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

std::vector<uint32_t>
ScanExecutor::run(const PredicateSet &preds, size_t limit,
                  ScanStats *stats) const
{
    const InstructionDatabase &db = db_;
    const uint32_t n = static_cast<uint32_t>(db.numRecords());
    std::vector<uint32_t> out;
    if (n == 0 || limit == 0)
        return out;

    // One classification pass: which tiers can fire at all. Point
    // queries (arch + a value predicate) skip the index tiers on a
    // single branch each instead of re-walking the conjunction. A
    // shard holds one uarch, so an arch predicate is a constant:
    // true (dropped) or false (no rows).
    bool has_string = false;
    bool has_order_range = false;
    for (const ScanPredicate &p : preds) {
        switch (p.kind) {
        case Kind::kNameEq:
        case Kind::kMnemonicEq:
        case Kind::kExtensionEq:
            has_string = true;
            break;
        case Kind::kTpRange:
        case Kind::kLatRange:
            has_order_range = true;
            break;
        case Kind::kArchEq:
            if (p.a != static_cast<uint8_t>(db.arch()))
                return out;
            break;
        default:
            break;
        }
    }

    // --- Tier 1a: string-equality predicates resolve through the
    // equal-range indexes into one sorted candidate intersection.
    std::vector<uint32_t> candidates;
    bool have_candidates = false;
    bool impossible = false;
    auto narrow = [&](std::vector<uint32_t> rows) {
        if (!have_candidates) {
            candidates = std::move(rows);
            have_candidates = true;
        } else {
            std::vector<uint32_t> merged;
            std::set_intersection(candidates.begin(), candidates.end(),
                                  rows.begin(), rows.end(),
                                  std::back_inserter(merged));
            candidates = std::move(merged);
        }
        impossible |= candidates.empty();
    };

    if (has_string) {
        for (const ScanPredicate &p : preds) {
            switch (p.kind) {
            case Kind::kNameEq: {
                std::optional<uint32_t> row = db.find(p.text);
                narrow(row ? std::vector<uint32_t>{*row}
                           : std::vector<uint32_t>{});
                break;
            }
            case Kind::kMnemonicEq: {
                auto it = db.by_mnemonic_.find(p.text);
                narrow(it != db.by_mnemonic_.end()
                           ? it->second
                           : std::vector<uint32_t>{});
                break;
            }
            case Kind::kExtensionEq: {
                auto it = db.by_extension_.find(p.text);
                narrow(it != db.by_extension_.end()
                           ? it->second
                           : std::vector<uint32_t>{});
                break;
            }
            default:
                break;
            }
        }
        if (stats)
            stats->used_string_index = have_candidates;
        if (impossible)
            return out;
    }

    // --- Tier 1b: a selective tp/lat window pre-filters through the
    // sorted order index — only when it beats scanning the table.
    if (has_order_range && !have_candidates) {
        auto try_order = [&](const std::vector<uint32_t> &order,
                             auto key_fn, auto lo, auto hi) {
            using Key = decltype(lo);
            auto begin = std::lower_bound(
                order.begin(), order.end(), lo,
                [&](uint32_t row, Key v) { return key_fn(row) < v; });
            auto end = std::upper_bound(
                order.begin(), order.end(), hi,
                [&](Key v, uint32_t row) { return v < key_fn(row); });
            size_t window = static_cast<size_t>(end - begin);
            if (window * 4 >= n)
                return;
            std::vector<uint32_t> rows(begin, end);
            std::sort(rows.begin(), rows.end());
            narrow(std::move(rows));
            if (stats)
                stats->used_order_index = true;
        };
        for (const ScanPredicate &p : preds) {
            if (have_candidates)
                break;
            if (p.kind == Kind::kTpRange) {
                try_order(
                    db.tp_order_,
                    [&](uint32_t row) {
                        return db.tp_measured_[row].hundredths();
                    },
                    p.a, p.b);
            } else if (p.kind == Kind::kLatRange) {
                try_order(
                    db.lat_order_,
                    [&](uint32_t row) {
                        return static_cast<int64_t>(
                            db.max_latency_[row]);
                    },
                    p.a, p.b);
            }
        }
        if (impossible)
            return out;
    }

    // --- Compile the predicates (cheap-first), binding
    // columns and narrowing operands. An unresolvable interned-string
    // operand means no row can match.
    std::array<Compiled, PredicateSet::kCapacity> compiled;
    size_t num_compiled = 0;
    for (const ScanPredicate &p : preds) {
        Compiled c;
        c.kind = p.kind;
        switch (p.kind) {
        case Kind::kArchEq:
            continue;  // resolved by the classification pass
        case Kind::kFlagsAll:
            c.col8 = db.flags_.data();
            c.val8 = static_cast<uint8_t>(p.a);
            break;
        case Kind::kPortSuperset:
        case Kind::kPortSubset:
        case Kind::kPortExact:
            c.col16 = db.port_union_.data();
            c.mask16 = static_cast<uint16_t>(p.a);
            break;
        case Kind::kUopRange:
            c.col16 = db.uop_count_.data();
            clampU16(p.a, p.b, c.lo16, c.hi16);
            break;
        case Kind::kLatRange:
            c.col16 = db.max_latency_.data();
            clampU16(p.a, p.b, c.lo16, c.hi16);
            break;
        case Kind::kNameEq:
        case Kind::kMnemonicEq:
        case Kind::kExtensionEq: {
            if (have_candidates)
                continue;  // already consumed by the index tier
            auto it = db.intern_map_.find(p.text);
            if (it == db.intern_map_.end())
                return out;
            c.col32 = p.kind == Kind::kNameEq ? db.name_.data()
                      : p.kind == Kind::kMnemonicEq
                          ? db.mnemonic_.data()
                          : db.ext_.data();
            c.id32 = it->second;
            break;
        }
        case Kind::kTpRange:
            c.col_cycles = db.tp_measured_.data();
            c.lo64 = p.a;
            c.hi64 = p.b;
            break;
        }
        compiled[num_compiled++] = c;
    }
    // Cheap-first insertion sort (stable): at most kCapacity entries,
    // and std::stable_sort's temporary buffer would cost more than
    // the whole scan on small tables.
    for (size_t i = 1; i < num_compiled; ++i) {
        Compiled c = compiled[i];
        size_t j = i;
        for (; j > 0 && costRank(compiled[j - 1].kind) >
                            costRank(c.kind);
             --j)
            compiled[j] = compiled[j - 1];
        compiled[j] = c;
    }

    // --- Candidate path: scalar-evaluate the survivors in row order.
    if (have_candidates) {
        if (stats)
            stats->rows_considered = candidates.size();
        for (uint32_t row : candidates) {
            if (out.size() >= limit)
                break;
            bool hit = true;
            for (size_t i = 0; hit && i < num_compiled; ++i)
                hit = evalScalar(compiled[i], row);
            if (hit)
                out.push_back(row);
        }
        if (stats)
            stats->rows_matched = out.size();
        return out;
    }

    // --- Tier 2: batched 64-row bitmap scan. The unlimited case —
    // every query without an explicit cap — skips the per-match limit
    // check entirely.
    if (stats)
        stats->rows_considered = n;
    const bool avx = haveAvx512();
    if (limit >= n) {
        // Unlimited (the common case): raw-pointer emission into a
        // pre-sized buffer (growth is doubled so huge tables don't
        // pay a full-range zero-fill upfront). emitWord writes at
        // most one slot per set bit, so a 64-slot headroom check per
        // block is the only bound needed.
        out.resize(std::min<size_t>(size_t{n} + 8, size_t{65536}));
        size_t count = 0;
        for (uint32_t base = 0; base < n; base += 64) {
            const uint32_t block =
                std::min<uint32_t>(64, n - base);
            uint64_t word = block == 64 ? ~uint64_t{0}
                                        : ((uint64_t{1} << block) - 1);
            for (size_t i = 0; word && i < num_compiled; ++i)
                word &= avx ? evalWordAvx512(compiled[i], base, block)
                            : evalWord(compiled[i], base, block);
            if (!word)
                continue;
            if (count + 72 > out.size())
                out.resize(std::max(out.size() * 2, count + 72));
            uint32_t *dst = out.data() + count;
            count = static_cast<size_t>(
                (avx ? emitWordAvx512(word, base, dst)
                     : emitWord(word, base, dst)) -
                out.data());
        }
        out.resize(count);
        if (stats)
            stats->rows_matched = count;
        return out;
    }
    out.reserve(std::min<size_t>({limit, size_t{n}, size_t{65536}}));
    for (uint32_t base = 0; base < n; base += 64) {
        const uint32_t block =
            std::min<uint32_t>(64, n - base);
        uint64_t word = block == 64 ? ~uint64_t{0}
                                    : ((uint64_t{1} << block) - 1);
        for (size_t i = 0; word && i < num_compiled; ++i)
            word &= avx ? evalWordAvx512(compiled[i], base, block)
                        : evalWord(compiled[i], base, block);
        while (word) {
            if (out.size() >= limit) {
                if (stats)
                    stats->rows_matched = out.size();
                return out;
            }
            out.push_back(base + static_cast<uint32_t>(
                                     std::countr_zero(word)));
            word &= word - 1;
        }
    }
    if (stats)
        stats->rows_matched = out.size();
    return out;
}

} // namespace uops::db
