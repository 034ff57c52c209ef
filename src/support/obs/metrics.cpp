#include "metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "support/status.h"

namespace uops::obs {

uint64_t
Histogram::bucketUpperBound(size_t i)
{
    panicIf(i >= kBuckets, "Histogram: bucket index out of range");
    return (uint64_t{1} << i) - 1;   // i == 0 -> 0
}

size_t
Histogram::bucketIndex(uint64_t value)
{
    return std::min<size_t>(std::bit_width(value), kBuckets - 1);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot out;
    for (size_t i = 0; i < kBuckets; ++i) {
        out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
        out.count += out.buckets[i];
    }
    out.sum = sum_.load(std::memory_order_relaxed);
    return out;
}

namespace {

bool
validMetricName(std::string_view name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name.substr(1))
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

bool
validLabelName(std::string_view name)
{
    // Label names exclude ':' (reserved for recording rules) and
    // must not collide with the histogram's own "le" label.
    if (!validMetricName(name) ||
        name.find(':') != std::string_view::npos)
        return false;
    return name != "le";
}

/** Canonical sorted order so {a=1,b=2} and {b=2,a=1} are one series. */
LabelSet
canonicalize(LabelSet labels)
{
    std::sort(labels.begin(), labels.end());
    for (size_t i = 0; i + 1 < labels.size(); ++i)
        panicIf(labels[i].first == labels[i + 1].first,
                "metrics: duplicate label '", labels[i].first, "'");
    return labels;
}

/** Escape a label value per the exposition format. */
std::string
escapeLabelValue(std::string_view value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** Escape a HELP string per the exposition format. */
std::string
escapeHelp(std::string_view help)
{
    std::string out;
    out.reserve(help.size());
    for (char c : help) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

/** "{a=\"1\",b=\"2\"}" or "" — optionally with an extra le pair. */
std::string
labelBlock(const LabelSet &labels, const char *le = nullptr)
{
    if (labels.empty() && le == nullptr)
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += key;
        out += "=\"";
        out += escapeLabelValue(value);
        out += '"';
    }
    if (le != nullptr) {
        if (!first)
            out += ',';
        out += "le=\"";
        out += le;
        out += '"';
    }
    out += '}';
    return out;
}

/** Exposition value text: exact integers render without a fraction. */
std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    double integral;
    if (std::modf(v, &integral) == 0.0 &&
        std::abs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
labelKey(const LabelSet &labels)
{
    return labelBlock(labels);
}

} // namespace

Registry::Series &
Registry::seriesFor(const std::string &name, const std::string &help,
                    Kind kind, LabelSet labels)
{
    panicIf(!validMetricName(name), "metrics: invalid metric name '",
            name, "'");
    labels = canonicalize(std::move(labels));
    for (const auto &[key, value] : labels) {
        panicIf(!validLabelName(key), "metrics: invalid label name '",
                key, "' on ", name);
        (void)value;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = families_.try_emplace(name);
    Family &family = it->second;
    if (inserted) {
        family.kind = kind;
        family.help = help;
    } else {
        // Callback vs direct flavors of one kind stay one family.
        auto base = [](Kind k) {
            if (k == Kind::CounterCallback)
                return Kind::Counter;
            if (k == Kind::GaugeCallback)
                return Kind::Gauge;
            return k;
        };
        panicIf(base(family.kind) != base(kind),
                "metrics: '", name, "' re-registered as a different "
                "instrument kind");
    }

    std::string key = labelKey(labels);
    auto [sit, series_inserted] = family.series.try_emplace(key);
    Series &series = sit->second;
    if (series_inserted)
        series.labels = std::move(labels);
    return series;
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  LabelSet labels)
{
    Series &series =
        seriesFor(name, help, Kind::Counter, std::move(labels));
    std::lock_guard<std::mutex> lock(mutex_);
    panicIf(series.callback != nullptr, "metrics: '", name,
            "' already registered as a callback");
    if (!series.counter)
        series.counter = std::make_unique<Counter>();
    return *series.counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                LabelSet labels)
{
    Series &series =
        seriesFor(name, help, Kind::Gauge, std::move(labels));
    std::lock_guard<std::mutex> lock(mutex_);
    panicIf(series.callback != nullptr, "metrics: '", name,
            "' already registered as a callback");
    if (!series.gauge)
        series.gauge = std::make_unique<Gauge>();
    return *series.gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    LabelSet labels)
{
    Series &series =
        seriesFor(name, help, Kind::Histogram, std::move(labels));
    std::lock_guard<std::mutex> lock(mutex_);
    if (!series.histogram)
        series.histogram = std::make_unique<Histogram>();
    return *series.histogram;
}

void
Registry::counterCallback(const std::string &name,
                          const std::string &help, LabelSet labels,
                          Callback callback)
{
    Series &series = seriesFor(name, help, Kind::CounterCallback,
                               std::move(labels));
    std::lock_guard<std::mutex> lock(mutex_);
    series.callback = std::move(callback);
}

void
Registry::gaugeCallback(const std::string &name,
                        const std::string &help, LabelSet labels,
                        Callback callback)
{
    Series &series =
        seriesFor(name, help, Kind::GaugeCallback, std::move(labels));
    std::lock_guard<std::mutex> lock(mutex_);
    series.callback = std::move(callback);
}

std::string
Registry::renderPrometheus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    out.reserve(4096);
    for (const auto &[name, family] : families_) {
        const char *type = "untyped";
        switch (family.kind) {
          case Kind::Counter:
          case Kind::CounterCallback: type = "counter"; break;
          case Kind::Gauge:
          case Kind::GaugeCallback: type = "gauge"; break;
          case Kind::Histogram: type = "histogram"; break;
        }
        out += "# HELP " + name + " " + escapeHelp(family.help) + "\n";
        out += "# TYPE " + name + " " + type + "\n";
        for (const auto &[key, series] : family.series) {
            (void)key;
            if (series.histogram) {
                Histogram::Snapshot snap = series.histogram->snapshot();
                uint64_t cumulative = 0;
                for (size_t i = 0; i < Histogram::kBuckets; ++i) {
                    cumulative += snap.buckets[i];
                    std::string le =
                        i + 1 == Histogram::kBuckets
                            ? "+Inf"
                            : std::to_string(
                                  Histogram::bucketUpperBound(i));
                    out += name + "_bucket" +
                           labelBlock(series.labels, le.c_str()) + " " +
                           std::to_string(cumulative) + "\n";
                }
                out += name + "_sum" + labelBlock(series.labels) + " " +
                       std::to_string(snap.sum) + "\n";
                out += name + "_count" + labelBlock(series.labels) +
                       " " + std::to_string(snap.count) + "\n";
                continue;
            }
            std::string value;
            if (series.callback)
                value = formatValue(series.callback());
            else if (series.counter)
                value = std::to_string(series.counter->value());
            else if (series.gauge)
                value = formatValue(series.gauge->value());
            else
                continue;   // registered but never materialized
            out += name + labelBlock(series.labels) + " " + value +
                   "\n";
        }
    }
    return out;
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

} // namespace uops::obs
