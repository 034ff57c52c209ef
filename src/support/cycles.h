/**
 * @file
 * The canonical fixed-point cycle-count type.
 *
 * Algorithm 2 rounds every reported measurement to hundredths of a
 * core cycle, so the set of representable results is discrete by
 * construction. Carrying them as doubles forces every layer that
 * needs exact equality (DB ingest, snapshots, JSON responses) to
 * re-canonicalize through a decimal text round trip; Cycles instead
 * stores the integer number of hundredths and makes equality,
 * ordering, hashing and serialization exact by representation.
 *
 * Formatting is locked to the text form the XML writer has always
 * produced (shortest decimal, at most two fraction digits), so
 * artifacts stay byte-identical: Cycles::round(x).str() ==
 * xmlFormatDouble(roundCycles(x)) for every value in the measurable
 * range (|cycles| < 10^4; beyond that the legacy 6-significant-digit
 * double formatting truncated, which Cycles::str deliberately does
 * not). parse() inverts str() exactly for every representable value.
 */

#ifndef UOPS_SUPPORT_CYCLES_H
#define UOPS_SUPPORT_CYCLES_H

#include <charconv>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "support/status.h"

namespace uops {

class Cycles
{
  public:
    /** Zero cycles. */
    constexpr Cycles() = default;

    /** The raw fixed-point constructor. */
    static constexpr Cycles
    fromHundredths(int64_t hundredths)
    {
        return Cycles(hundredths);
    }

    /**
     * Round a measured cycle count to the reporting granularity of
     * the instruction tables: whole cycles when within @p eps of an
     * integer, hundredths otherwise (fractional throughputs like 0.25
     * stay fractional). This is the paper's Algorithm-2 rounding and
     * the only sanctioned double -> Cycles conversion.
     */
    static Cycles
    round(double cycles, double eps = 0.05)
    {
        // Guard llround's domain: NaN / infinities / values whose
        // hundredths exceed int64 would yield an unspecified result,
        // not an error. Untrusted document text reaches here through
        // the results-XML fallback path, so fail loudly instead.
        fatalIf(!(std::abs(cycles) < 9.0e15),
                "Cycles: value out of fixed-point range: ", cycles);
        double nearest = std::round(cycles);
        if (std::abs(cycles - nearest) <= eps)
            return Cycles(std::llround(nearest) * 100);
        return Cycles(std::llround(cycles * 100.0));
    }

    /**
     * Parse the canonical decimal text form ("4", "2.5", "0.33");
     * exact inverse of str(). Empty optional on any other input —
     * including more than two fraction digits, so callers can detect
     * foreign documents carrying unrounded precision and fall back to
     * round(parseDouble(...)).
     */
    static std::optional<Cycles>
    parse(std::string_view text)
    {
        bool negative = !text.empty() && text.front() == '-';
        if (negative)
            text.remove_prefix(1);
        // The sign was consumed above; from_chars would accept a
        // second '-' into the signed whole part ("--1" -> +1), so
        // the remainder must start with a digit.
        if (text.empty() || text.front() < '0' || text.front() > '9')
            return std::nullopt;
        size_t dot = text.find('.');
        std::string_view whole_text = text.substr(0, dot);
        int64_t whole = 0;
        auto [ptr, ec] =
            std::from_chars(whole_text.data(),
                            whole_text.data() + whole_text.size(), whole);
        if (ec != std::errc() ||
            ptr != whole_text.data() + whole_text.size())
            return std::nullopt;
        int64_t frac = 0;
        if (dot != std::string_view::npos) {
            std::string_view frac_text = text.substr(dot + 1);
            if (frac_text.empty() || frac_text.size() > 2)
                return std::nullopt;
            for (char c : frac_text) {
                if (c < '0' || c > '9')
                    return std::nullopt;
                frac = frac * 10 + (c - '0');
            }
            if (frac_text.size() == 1)
                frac *= 10;
        }
        // Reject exactly the values whose hundredths overflow int64
        // (untrusted document text reaches here) — and only those, so
        // parse() stays a total inverse of str() up to the top
        // representable value.
        constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
        if (whole > kMax / 100 ||
            (whole == kMax / 100 && frac > kMax % 100))
            return std::nullopt;
        int64_t hundredths = whole * 100 + frac;
        return Cycles(negative ? -hundredths : hundredths);
    }

    constexpr int64_t hundredths() const { return hundredths_; }

    /** The nearest double; for downstream arithmetic only — never
     *  feed the result back through round() expecting identity. */
    constexpr double
    toDouble() const
    {
        return static_cast<double>(hundredths_) / 100.0;
    }

    /** Smallest whole-cycle count >= this value (blockRep input). */
    constexpr int
    ceil() const
    {
        int64_t whole = hundredths_ / 100;
        if (hundredths_ > 0 && hundredths_ % 100 != 0)
            ++whole;
        return static_cast<int>(whole);
    }

    /** Canonical decimal text: shortest form, <= 2 fraction digits. */
    std::string
    str() const
    {
        // Unsigned magnitude so even the INT64_MIN sentinel prints
        // without overflowing on negation.
        uint64_t h = hundredths_ < 0
                         ? 0u - static_cast<uint64_t>(hundredths_)
                         : static_cast<uint64_t>(hundredths_);
        std::string out;
        if (hundredths_ < 0)
            out += '-';
        out += std::to_string(h / 100);
        int frac = static_cast<int>(h % 100);
        if (frac != 0) {
            out += '.';
            out += static_cast<char>('0' + frac / 10);
            if (frac % 10 != 0)
                out += static_cast<char>('0' + frac % 10);
        }
        return out;
    }

    friend constexpr auto operator<=>(Cycles, Cycles) = default;

  private:
    explicit constexpr Cycles(int64_t hundredths)
        : hundredths_(hundredths)
    {
    }

    int64_t hundredths_ = 0;
};

inline std::ostream &
operator<<(std::ostream &os, Cycles value)
{
    return os << value.str();
}

} // namespace uops

#endif // UOPS_SUPPORT_CYCLES_H
