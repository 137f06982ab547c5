#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "qp/workload/business.h"
#include "qp/workload/hard_market.h"

namespace qpbench {

namespace {

bool IsBusiness(Kind kind) { return kind != Kind::kHardJoin; }

std::string Bid(int b) { return "biz" + std::to_string(b); }

}  // namespace

qp::Status ParseParams(const std::vector<std::string>& args, Params* params) {
  const std::map<std::string, int*> ints = {
      {"shards", &params->shards},
      {"businesses", &params->businesses},
      {"states", &params->states},
      {"counties", &params->counties},
      {"hot_queries", &params->hot_queries},
      {"probe_publishes", &params->probe_publishes},
  };
  const std::map<std::string, double*> doubles = {
      {"seconds", &params->seconds},
      {"rate", &params->rate},
      {"insert_rate", &params->insert_rate},
      {"limit_us", &params->limit_us},
  };
  const std::map<std::string, Kind> kinds = {
      {"hot_read", Kind::kHotRead},
      {"cold_price", Kind::kColdPrice},
      {"write_churn", Kind::kWriteChurn},
      {"hard_join", Kind::kHardJoin},
  };
  for (const std::string& arg : args) {
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return qp::Status::InvalidArgument("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      auto kind = kinds.find(value);
      if (kind == kinds.end()) {
        return qp::Status::InvalidArgument("unknown workload " + value);
      }
      params->name = value;
      params->kind = kind->second;
    } else if (key == "seed") {
      params->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ints.count(key) != 0) {
      *ints.at(key) = std::atoi(value.c_str());
    } else if (doubles.count(key) != 0) {
      *doubles.at(key) = std::atof(value.c_str());
    } else {
      return qp::Status::InvalidArgument("unknown parameter " + key);
    }
  }
  if (params->shards < 1 || params->seconds <= 0 || params->rate <= 0 ||
      (params->has_writer() && params->insert_rate <= 0)) {
    return qp::Status::InvalidArgument("parameters out of range");
  }
  return qp::Status::Ok();
}

qp::Status BuildSellers(const Params& params,
                        std::vector<std::unique_ptr<qp::Seller>>* sellers) {
  sellers->clear();
  const int shards = IsBusiness(params.kind) ? params.shards : 1;
  for (int s = 0; s < shards; ++s) {
    auto seller = std::make_unique<qp::Seller>("shard" + std::to_string(s));
    if (IsBusiness(params.kind)) {
      qp::BusinessMarketParams market;
      market.num_businesses = params.businesses;
      market.num_states = params.states;
      market.counties_per_state = params.counties;
      market.seed = params.seed * 1000 + static_cast<uint64_t>(s);
      QP_RETURN_IF_ERROR(qp::PopulateBusinessMarket(seller.get(), market));
    } else {
      // The H2 instance itself stays the library's default one: branch-and-
      // bound cost differs several-fold between generated instances, which
      // would swamp run-to-run comparisons. The seed drives the inserts.
      qp::HardMarketParams market;
      market.num_query_sets = Workload::kHardSets;
      QP_RETURN_IF_ERROR(qp::PopulateHardJoinMarket(seller.get(), market));
    }
    auto report = seller->Publish();
    if (!report.ok()) return report.status();
    if (!report->consistent) {
      return qp::Status::FailedPrecondition("generated market has arbitrage");
    }
    sellers->push_back(std::move(seller));
  }
  return qp::Status::Ok();
}

Workload::Workload(const Params& params,
                   const std::vector<std::unique_ptr<qp::Seller>>& sellers)
    : params_(params), rng_(params.seed * 7919 + 17) {
  const size_t shards = sellers.size();
  texts_.resize(shards);
  probe_texts_.resize(shards);
  bid_values_.resize(shards);
  state_values_.resize(shards);
  county_values_.resize(shards);
  for (const auto& seller : sellers) planner_.push_back(seller->db());

  if (IsBusiness(params_.kind)) {
    qp::BusinessMarketParams market;
    market.num_states = params_.states;
    const std::vector<std::string> states = qp::BusinessStates(market);
    for (size_t s = 0; s < shards; ++s) {
      for (int b = 0; b < params_.businesses; ++b) {
        bid_values_[s].push_back(Bid(b));
      }
      state_values_[s] = states;
      for (const std::string& st : states) {
        for (int c = 0; c < params_.counties; ++c) {
          county_values_[s].push_back(st + "/c" + std::to_string(c));
        }
      }
    }
  }

  switch (params_.kind) {
    case Kind::kHotRead: {
      // Four shapes, each with its own constants: GChQ joins with a state
      // or county selection, a point selection and a boolean probe.
      for (size_t s = 0; s < shards; ++s) {
        std::vector<std::string> bids = bid_values_[s];
        rng_.Shuffle(bids);
        const size_t rot = rng_.NextBelow(1000);
        for (int i = 0; i < params_.hot_queries; ++i) {
          const size_t k = static_cast<size_t>(i / 4) + rot;
          switch (i % 4) {
            case 0:
              texts_[s].push_back(
                  "Q(b) :- Email(b), InState(b,'" +
                  state_values_[s][k % state_values_[s].size()] + "')");
              break;
            case 1:
              texts_[s].push_back(
                  "Q(b) :- Business(b), InCounty(b,'" +
                  county_values_[s][k % county_values_[s].size()] + "')");
              break;
            case 2:
              texts_[s].push_back("Q(s) :- InState('" + bids[i] + "', s)");
              break;
            default:
              texts_[s].push_back("Q() :- Email('" + bids[i] + "')");
              break;
          }
        }
        for (size_t i = 0; i < texts_[s].size(); ++i) {
          if (i % 4 == 0 || i % 4 == 2) probe_texts_[s].push_back(&texts_[s][i]);
        }
      }
      break;
    }
    case Kind::kColdPrice: {
      // Mostly distinct point selections (GChQ) plus boolean probes, in a
      // seeded order without repeats; the first bids' InState texts are
      // kept apart for the publish probe.
      std::vector<std::string> bids = bid_values_[0];
      rng_.Shuffle(bids);
      constexpr size_t kProbeTexts = 16;
      for (size_t i = 0; i < bids.size(); ++i) {
        texts_[0].push_back("Q(c) :- InCounty('" + bids[i] + "', c)");
        if (i >= kProbeTexts) {
          texts_[0].push_back("Q(s) :- InState('" + bids[i] + "', s)");
        } else {
          cold_probe_texts_.push_back("Q(s) :- InState('" + bids[i] + "', s)");
        }
        if (rng_.NextBelow(9) < 2) {
          texts_[0].push_back("Q() :- Email('" + bids[i] + "')");
        }
      }
      rng_.Shuffle(texts_[0]);
      for (const std::string& t : cold_probe_texts_) {
        probe_texts_[0].push_back(&t);
      }
      break;
    }
    case Kind::kWriteChurn: {
      // A hot set reading the two relations the writer mutates in turn:
      // each publish invalidates half of it.
      std::vector<std::string> bids = bid_values_[0];
      rng_.Shuffle(bids);
      for (int i = 0; i < params_.hot_queries; ++i) {
        texts_[0].push_back(
            (i % 2 == 0 ? "Q(s) :- InState('" : "Q(c) :- InCounty('") +
            bids[i] + (i % 2 == 0 ? "', s)" : "', c)"));
      }
      break;
    }
    case Kind::kHardJoin: {
      for (int set = 0; set < kHardSets; ++set) {
        texts_[0].push_back(qp::HardJoinQueryText(set));
      }
      break;
    }
  }

  // Warm-up: every hot text once (cold_price: a slice of its stream that
  // the measured stream then skips, plus the probe texts).
  if (params_.kind == Kind::kColdPrice) {
    constexpr size_t kColdWarmup = 64;
    const size_t n = std::min(kColdWarmup, texts_[0].size());
    cold_warmup_.assign(texts_[0].end() - n, texts_[0].end());
    texts_[0].resize(texts_[0].size() - n);
    for (const std::string& t : cold_warmup_) warmup_.push_back(Quote(0, &t));
    for (const std::string* t : probe_texts_[0]) warmup_.push_back(Quote(0, t));
  } else {
    for (size_t s = 0; s < shards; ++s) {
      for (const std::string& t : texts_[s]) {
        warmup_.push_back(Quote(static_cast<uint32_t>(s), &t));
      }
    }
  }
}

Role Workload::role(int conn) const {
  return params_.has_writer() && conn == 0 ? Role::kWriter : Role::kQuoter;
}

double Workload::open_rate(int conn) const {
  if (role(conn) == Role::kWriter) return params_.insert_rate;
  return params_.has_writer() ? params_.rate : params_.rate / kConnections;
}

double Workload::open_offset(int conn) const {
  return params_.has_writer() ? 0.0 : static_cast<double>(conn) / kConnections;
}

Request Workload::Quote(uint32_t shard, const std::string* text) const {
  Request r;
  r.type = Request::kQuote;
  r.shard = shard;
  r.texts.push_back(text);
  return r;
}

Request Workload::Next(int conn) {
  const uint64_t k = next_[conn]++;
  switch (params_.kind) {
    case Kind::kHotRead: {
      const uint32_t shards = static_cast<uint32_t>(texts_.size());
      const uint32_t shard = static_cast<uint32_t>((k + conn) % shards);
      const std::vector<std::string>& texts = texts_[shard];
      if (k % kBatchEvery == kBatchEvery - 1) {
        Request r;
        r.type = Request::kBatch;
        r.shard = shard;
        for (int j = 0; j < kBatchSize; ++j) {
          r.texts.push_back(&texts[(k * kBatchSize + j) % texts.size()]);
        }
        return r;
      }
      const size_t half = texts.size() / 2;
      return Quote(shard, &texts[(k / shards + conn * half) % texts.size()]);
    }
    case Kind::kColdPrice: {
      const std::vector<std::string>& texts = texts_[0];
      return Quote(0, &texts[(kConnections * k + conn) % texts.size()]);
    }
    case Kind::kWriteChurn:
      if (role(conn) == Role::kWriter) {
        return FreshInsert(0, k % 2 == 0 ? "InState" : "InCounty");
      }
      return Quote(0, &texts_[0][k % texts_[0].size()]);
    case Kind::kHardJoin:
      if (role(conn) == Role::kWriter) {
        return FreshInsert(0, qp::HardJoinInsertRelation(
                                  static_cast<int>(k % kHardSets)));
      }
      return Quote(0, &texts_[0][k % texts_[0].size()]);
  }
  return Request{};
}

void Workload::NextProbe(Request* insert, Request* quote) {
  const uint64_t i = probe_next_++;
  const uint32_t shard = static_cast<uint32_t>(i % texts_.size());
  *insert = FreshInsert(shard, "InState");
  const std::vector<const std::string*>& probe = probe_texts_[shard];
  *quote = Quote(shard, probe[(i / texts_.size()) % probe.size()]);
}

Request Workload::FreshInsert(uint32_t shard, const std::string& relation) {
  Request r;
  r.type = Request::kInsert;
  r.shard = shard;
  r.relation = relation;
  // Rejection sampling against the planner, which holds the seed rows and
  // every row planned so far: a duplicate would not publish.
  for (int attempt = 0;; ++attempt) {
    if (attempt == 1000000) {
      std::fprintf(stderr, "qpbench: no fresh %s rows left\n", relation.c_str());
      std::abort();
    }
    std::vector<qp::Value> row;
    if (relation == "InState") {
      row = {qp::Value::Str(bid_values_[shard][rng_.NextBelow(
                 bid_values_[shard].size())]),
             qp::Value::Str(state_values_[shard][rng_.NextBelow(
                 state_values_[shard].size())])};
    } else if (relation == "InCounty") {
      row = {qp::Value::Str(bid_values_[shard][rng_.NextBelow(
                 bid_values_[shard].size())]),
             qp::Value::Str(county_values_[shard][rng_.NextBelow(
                 county_values_[shard].size())])};
    } else {
      // S<set>(x, y) of the hard-join market.
      const std::string set = relation.substr(1);
      const uint64_t n = static_cast<uint64_t>(qp::HardMarketParams{}.column_size);
      row = {qp::Value::Str("x" + set + "_" + std::to_string(rng_.NextBelow(n))),
             qp::Value::Str("y" + set + "_" + std::to_string(rng_.NextBelow(n)))};
    }
    auto fresh = planner_[shard].Insert(relation, row);
    if (fresh.ok() && *fresh) {
      r.rows.push_back(std::move(row));
      return r;
    }
  }
}

size_t Workload::distinct_texts() const {
  size_t n = cold_warmup_.size() + cold_probe_texts_.size();
  for (const auto& t : texts_) n += t.size();
  return n;
}

size_t Workload::hot_set_size() const {
  return params_.kind == Kind::kColdPrice ? 0 : texts_[0].size();
}

}  // namespace qpbench
