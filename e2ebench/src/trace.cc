#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <unordered_set>

#include "logic.h"
#include "qp/market/snapshot.h"
#include "qp/pricing/classifier.h"
#include "qp/pricing/work_problem.h"
#include "qp/query/parser.h"
#include "qp/server/query_memo.h"
#include "qp/server/wire.h"

namespace qpbench {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using Scope = SpanRecorder::Scope;

/// Server-side state of one replayed shard.
struct ReplayShard {
  qp::ShardMap::Shard* shard = nullptr;
  std::unique_ptr<qp::QueryMemo> memo;
  /// Texts the memo holds, to tell a memo miss (which parses) from a hit.
  std::unordered_set<std::string> memoized;
};

/// QueryMemo::Get as the server calls it, plus a separately timed
/// ParseQuery on a memo miss. Returns nullptr when the text does not parse.
const qp::QueryMemo::Parsed* ReplayMemo(ReplayShard* rs,
                                        const std::string& text,
                                        qp::QueryMemo::Parsed* scratch,
                                        SpanRecorder* rec) {
  qp::Result<const qp::QueryMemo::Parsed*> parsed =
      qp::Status::Internal("not parsed");
  const bool miss = rs->memoized.count(text) == 0;
  const size_t memo_size = rs->memo->size();
  int32_t memo_span = -1;
  {
    Scope s(rec, Layer::kMemoGet);
    memo_span = s.index();
    parsed = rs->memo->Get(text, scratch);
  }
  if (!parsed.ok()) return nullptr;
  if (rs->memo->size() > memo_size) rs->memoized.insert(text);
  if (miss) {
    // The memo parsed inside Get; time the parser on its own as well.
    Scope s(rec, Layer::kParse);
    rec->MarkRepeat(s.index(), memo_span);
    (void)qp::ParseQuery(rs->shard->seller->catalog().schema(), text);
  }
  return *parsed;
}

/// BatchPricer::Price's path for one parsed query against `snapshot`:
/// cache lookup, and on a miss the engine and the cache store. Returns the
/// quote's price (-1 on error).
int64_t ReplayPrice(ReplayShard* rs, const qp::SnapshotRef& snapshot,
                    const qp::QueryMemo::Parsed* parsed, SpanRecorder* rec) {
  if (parsed == nullptr) return -1;
  const qp::ConjunctiveQuery& query = parsed->query;
  const std::string& fingerprint = parsed->fingerprint;
  std::optional<qp::PriceQuote> cached;
  {
    Scope s(rec, Layer::kCacheLookup);
    cached = rs->shard->cache->Lookup(fingerprint, snapshot->db());
  }
  if (cached) return cached->solution.price;
  // A miss: the steps PricingEngine::Price runs for a connected non-boolean
  // query, called one by one (the work problem only on the GChQ path, over
  // the atoms in GChQ order), then the engine itself.
  std::vector<int32_t> repeats;
  if (query.ConnectedComponents().size() <= 1 && !query.IsBoolean()) {
    qp::QueryClassification cls;
    {
      Scope s(rec, Layer::kClassify);
      repeats.push_back(s.index());
      cls = qp::ClassifyConnectedQuery(query);
    }
    if (cls.cls == qp::PricingClass::kGChQ) {
      Scope s(rec, Layer::kWorkProblem);
      repeats.push_back(s.index());
      qp::ConjunctiveQuery ordered(query.name());
      for (qp::VarId v = 0; v < query.num_vars(); ++v) {
        ordered.AddVar(query.var_name(v));
      }
      for (qp::VarId v : query.head()) ordered.AddHeadVar(v);
      for (int idx : cls.gchq_order) {
        ordered.AddAtom(query.atoms()[idx].rel, query.atoms()[idx].args);
      }
      for (const qp::UnaryPredicate& p : query.predicates()) {
        ordered.AddPredicate(p);
      }
      (void)qp::BuildWorkProblem(snapshot->db(), rs->shard->seller->prices(),
                                 ordered);
    }
  }
  qp::Result<qp::PriceQuote> quote = qp::Status::Internal("not priced");
  {
    Scope s(rec, Layer::kEnginePrice);
    for (int32_t r : repeats) rec->MarkRepeat(r, s.index());
    quote = snapshot->engine().Price(query);
  }
  if (!quote.ok()) return -1;
  if (!quote->solution.approximate) {
    Scope s(rec, Layer::kCacheStore);
    rs->shard->cache->Store(fingerprint, query, snapshot->db(), *quote);
  }
  return quote->solution.price;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kWireDecode: return "server.wire_decode";
    case Layer::kMemoGet: return "server.memo_get";
    case Layer::kParse: return "query.parse";
    case Layer::kAcquire: return "market.acquire";
    case Layer::kCacheLookup: return "pricing.cache_lookup";
    case Layer::kClassify: return "pricing.classify";
    case Layer::kWorkProblem: return "pricing.work_problem";
    case Layer::kEnginePrice: return "pricing.engine_price";
    case Layer::kCacheStore: return "pricing.cache_store";
    case Layer::kWireEncode: return "server.wire_encode";
    case Layer::kInstanceCopy: return "relational.instance_copy";
    case Layer::kInsertBatch: return "market.insert_batch";
    case Layer::kNumLayers: break;
  }
  return "?";
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, Layer layer)
    : recorder_(recorder) {
  if (!recorder_->enabled_) return;
  Span span;
  span.layer = layer;
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  span.request = recorder_->request_;
  index_ = static_cast<int32_t>(recorder_->spans_.size());
  recorder_->spans_.push_back(span);
  recorder_->open_.push_back(index_);
  recorder_->spans_.back().start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_->spans_[index_].end_ns = NowNs();
  recorder_->open_.pop_back();
}

qp::Status SpanRecorder::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return qp::Status::InvalidArgument("cannot write " + path);
  out << "request\tspan\tparent\trepeat_of\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << s.request << '\t' << i << '\t' << s.parent << '\t' << s.repeat_of
        << '\t' << LayerName(s.layer) << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  return out ? qp::Status::Ok() : qp::Status::Internal("short write " + path);
}

std::vector<LayerStats> Summarize(
    const std::vector<SpanRecorder::Span>& spans) {
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const SpanRecorder::Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    if (s.repeat_of >= 0) child_ns[s.repeat_of] += s.end_ns - s.start_ns;
  }
  const size_t n = static_cast<size_t>(Layer::kNumLayers);
  std::vector<LayerStats> stats(n);
  std::vector<std::vector<uint64_t>> durations(n);
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t l = static_cast<size_t>(spans[i].layer);
    const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    durations[l].push_back(dur);
    ++stats[l].spans;
    stats[l].self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  for (size_t l = 0; l < n; ++l) {
    stats[l].p50_ns = Percentile(std::move(durations[l]), 50);
  }
  return stats;
}

qp::Result<uint64_t> Replay(const Params& params,
                            const std::vector<Request>& requests,
                            SpanRecorder* rec) {
  std::vector<std::unique_ptr<qp::Seller>> sellers;
  QP_RETURN_IF_ERROR(BuildSellers(params, &sellers));
  qp::ShardMap shards;
  for (size_t s = 0; s < sellers.size(); ++s) {
    QP_RETURN_IF_ERROR(
        shards.AddShard("shard" + std::to_string(s), std::move(sellers[s])));
  }
  std::vector<ReplayShard> rs(shards.size());
  for (uint32_t s = 0; s < shards.size(); ++s) {
    rs[s].shard = shards.shard(s);
    rs[s].memo = std::make_unique<qp::QueryMemo>(
        &rs[s].shard->seller->catalog().schema());
  }
  // Client-side encodings are made up front: they are not server work.
  std::vector<std::string> payloads;
  for (const Request& r : requests) {
    switch (r.type) {
      case Request::kQuote:
        payloads.push_back(qp::EncodeQuoteRequest({r.shard, *r.texts[0]}));
        break;
      case Request::kBatch: {
        qp::QuoteBatchRequest batch;
        batch.shard = r.shard;
        for (const std::string* t : r.texts) batch.query_texts.push_back(*t);
        payloads.push_back(qp::EncodeQuoteBatchRequest(batch));
        break;
      }
      case Request::kInsert:
        payloads.push_back(
            qp::EncodeInsertRequest({r.shard, r.relation, r.rows}));
        break;
    }
  }

  std::string reply_buf;
  const uint64_t start = NowNs();
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    rec->NextRequest();
    // The timed Instance copy of an insert is destroyed after the request
    // span ends: the server never makes it.
    std::optional<qp::Instance> copy;
    Scope request_span(rec, Layer::kRequest);
    ReplayShard* shard = &rs[r.shard];
    switch (r.type) {
      case Request::kQuote: {
        qp::Result<qp::QuoteRequest> decoded = qp::Status::Internal("");
        {
          Scope s(rec, Layer::kWireDecode);
          decoded = qp::DecodeQuoteRequest(payloads[i]);
        }
        if (!decoded.ok()) return decoded.status();
        qp::QueryMemo::Parsed scratch;
        const qp::QueryMemo::Parsed* parsed =
            ReplayMemo(shard, decoded->query_text, &scratch, rec);
        qp::SnapshotRef snapshot;
        {
          Scope s(rec, Layer::kAcquire);
          snapshot = shard->shard->store->Acquire();
        }
        qp::QuoteReply reply;
        reply.snapshot_version = snapshot->version();
        reply.price = ReplayPrice(shard, snapshot, parsed, rec);
        Scope s(rec, Layer::kWireEncode);
        qp::EncodeQuoteReplyInto(reply, &reply_buf);
        break;
      }
      case Request::kBatch: {
        qp::Result<qp::QuoteBatchRequest> decoded = qp::Status::Internal("");
        {
          Scope s(rec, Layer::kWireDecode);
          decoded = qp::DecodeQuoteBatchRequest(payloads[i]);
        }
        if (!decoded.ok()) return decoded.status();
        qp::SnapshotRef snapshot;
        {
          Scope s(rec, Layer::kAcquire);
          snapshot = shard->shard->store->Acquire();
        }
        qp::QuoteBatchReply reply;
        reply.snapshot_version = snapshot->version();
        std::vector<qp::QueryMemo::Parsed> scratch(decoded->query_texts.size());
        std::vector<const qp::QueryMemo::Parsed*> parsed;
        for (size_t t = 0; t < decoded->query_texts.size(); ++t) {
          parsed.push_back(
              ReplayMemo(shard, decoded->query_texts[t], &scratch[t], rec));
        }
        for (const qp::QueryMemo::Parsed* p : parsed) {
          qp::QuoteBatchReply::Item item;
          item.price = ReplayPrice(shard, snapshot, p, rec);
          reply.items.push_back(std::move(item));
        }
        Scope s(rec, Layer::kWireEncode);
        qp::EncodeQuoteBatchReplyInto(reply, &reply_buf);
        break;
      }
      case Request::kInsert: {
        qp::Result<qp::InsertRequest> decoded = qp::Status::Internal("");
        {
          Scope s(rec, Layer::kWireDecode);
          decoded = qp::DecodeInsertRequest(payloads[i]);
        }
        if (!decoded.ok()) return decoded.status();
        // The whole-Instance copy InsertBatch makes, timed on its own.
        int32_t copy_span = -1;
        {
          Scope s(rec, Layer::kInstanceCopy);
          copy_span = s.index();
          copy.emplace(shard->shard->store->Acquire()->db());
        }
        qp::Result<qp::SnapshotStore::InsertOutcome> outcome =
            qp::Status::Internal("");
        {
          Scope s(rec, Layer::kInsertBatch);
          rec->MarkRepeat(copy_span, s.index());
          outcome = shard->shard->store->InsertBatch(
              {{decoded->relation, decoded->rows}});
        }
        if (!outcome.ok()) return outcome.status();
        qp::InsertReply reply;
        reply.snapshot_version = outcome->version;
        reply.rows_inserted = static_cast<uint32_t>(outcome->rows_inserted);
        Scope s(rec, Layer::kWireEncode);
        qp::EncodeInsertReplyInto(reply, &reply_buf);
        break;
      }
    }
  }
  return NowNs() - start;
}

}  // namespace qpbench
