#include "blob_store.h"

#include "server/json.h"
#include "support/hash.h"

namespace uops::server {

void
writeRecordJson(JsonWriter &json, const db::RecordView &view)
{
    json.beginObject();
    json.member("name", std::string_view(view.name()));
    json.member("mnemonic", std::string_view(view.mnemonic()));
    json.member("extension", std::string_view(view.extension()));
    json.member("uarch", std::string_view(
                             uarch::uarchShortName(view.arch())));
    json.member("ports",
                std::string_view(view.portUsage().toString()));
    json.member("uops", view.uopCount());
    json.member("max_latency", view.maxLatency());

    json.key("throughput").beginObject();
    json.member("measured", view.tpMeasured());
    if (auto v = view.tpWithBreakers())
        json.member("with_dep_breakers", *v);
    if (auto v = view.tpSlow())
        json.member("slow_values", *v);
    if (auto v = view.tpFromPorts())
        json.member("from_ports", *v);
    json.endObject();

    json.key("latency").beginArray();
    for (const isa::ResultLatency &pair : view.latencies()) {
        json.beginObject();
        json.member("src_op", pair.src_op);
        json.member("dst_op", pair.dst_op);
        json.member("cycles", pair.cycles);
        if (pair.upper_bound)
            json.member("upper_bound", true);
        if (pair.slow_cycles)
            json.member("slow_cycles", *pair.slow_cycles);
        json.endObject();
    }
    json.endArray();

    if (auto v = view.sameRegCycles())
        json.member("latency_same_reg", *v);
    if (auto v = view.storeRoundTrip())
        json.member("store_load_roundtrip", *v);
    json.endObject();
}

std::string
renderUArchsBody(const db::DatabaseCatalog &catalog)
{
    JsonWriter json;
    json.beginObject();
    json.key("uarchs").beginArray();
    for (uarch::UArch arch : catalog.uarches()) {
        const uarch::UArchInfo &info = uarch::uarchInfo(arch);
        json.beginObject();
        json.member("name", std::string_view(info.short_name));
        json.member("full_name", std::string_view(info.full_name));
        json.member("processor", std::string_view(info.processor));
        json.member("ports", info.num_ports);
        json.member("records", catalog.numRecords(arch));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return std::move(json).str();
}

std::shared_ptr<const BlobStore>
BlobStore::build(const db::DatabaseCatalog &catalog)
{
    auto store = std::shared_ptr<BlobStore>(new BlobStore);
    store->etag_ = hashHex(catalog.contentHash());
    store->uarchs_body_ =
        std::make_shared<const std::string>(renderUArchsBody(catalog));
    return store;
}

} // namespace uops::server
