#include "logic.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "qp/obs/window.h"
#include "qp/pricing/engine.h"
#include "qp/query/parser.h"
#include "qp/util/thread_pool.h"

namespace qpbench {

bool QuoteMatches(int64_t served, bool approximate, int64_t exact) {
  return approximate ? served >= exact : served == exact;
}

VerifyResult Verify(const std::vector<std::unique_ptr<qp::Seller>>& sellers,
                    std::vector<InsertRecord> inserts,
                    const std::vector<QuoteRecord>& quotes, int threads) {
  VerifyResult result;
  auto fail = [&result](const std::string& why) {
    ++result.mismatches;
    if (result.examples.size() < 5) result.examples.push_back(why);
  };
  const size_t shards = sellers.size();

  // Acknowledged inserts per shard, in version order. Every insert must
  // have published exactly one new version: 1, 2, ..., n.
  std::vector<std::vector<const InsertRecord*>> shard_inserts(shards);
  for (const InsertRecord& ins : inserts) {
    if (ins.shard >= shards) {
      fail("insert on unknown shard " + std::to_string(ins.shard));
      continue;
    }
    shard_inserts[ins.shard].push_back(&ins);
  }
  std::vector<uint64_t> known_version(shards, 0);
  for (size_t s = 0; s < shards; ++s) {
    auto& list = shard_inserts[s];
    std::sort(list.begin(), list.end(),
              [](const InsertRecord* a, const InsertRecord* b) {
                return a->version < b->version;
              });
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i]->version != i + 1) {
        fail("shard " + std::to_string(s) + ": insert " + std::to_string(i) +
             " published version " + std::to_string(list[i]->version) +
             ", expected " + std::to_string(i + 1));
        break;
      }
      known_version[s] = i + 1;
    }
  }

  // Distinct (version, text) per shard, with the records that share them.
  using TextGroups =
      std::unordered_map<std::string_view, std::vector<const QuoteRecord*>>;
  std::vector<std::map<uint64_t, TextGroups>> groups(shards);
  for (const QuoteRecord& q : quotes) {
    ++result.quotes_verified;
    if (q.shard >= shards || q.text == nullptr) {
      fail("quote on unknown shard " + std::to_string(q.shard));
      continue;
    }
    if (q.version > known_version[q.shard]) {
      fail("quote at version " + std::to_string(q.version) +
           " that no acknowledged insert published: " + *q.text);
      continue;
    }
    groups[q.shard][q.version][*q.text].push_back(&q);
  }

  qp::ThreadPool pool(std::max(1, threads));
  for (size_t s = 0; s < shards; ++s) {
    const qp::Seller& seller = *sellers[s];
    qp::Instance db = seller.db();
    size_t applied = 0;
    for (const auto& [version, texts] : groups[s]) {
      // Roll the rebuilt shard forward to `version` (versions ascend).
      while (applied < shard_inserts[s].size() &&
             shard_inserts[s][applied]->version <= version) {
        const InsertRecord& ins = *shard_inserts[s][applied++];
        for (const auto& row : ins.rows) {
          auto fresh = db.Insert(ins.relation, row);
          if (!fresh.ok()) fail("replayed insert failed: " + fresh.status().ToString());
        }
      }
      const qp::PricingEngine engine(&db, &seller.prices());
      std::vector<std::string_view> keys;
      for (const auto& [text, records] : texts) keys.push_back(text);
      std::vector<int64_t> exact(keys.size(), 0);
      std::vector<std::string> errors(keys.size());
      pool.ParallelFor(static_cast<int>(keys.size()), [&](int i) {
        auto query = qp::ParseQuery(seller.catalog().schema(), keys[i]);
        if (!query.ok()) {
          errors[i] = query.status().ToString();
          return;
        }
        auto quote = engine.Price(*query);
        if (!quote.ok()) {
          errors[i] = quote.status().ToString();
          return;
        }
        exact[i] = quote->solution.price;
      });
      result.exact_solves += keys.size();
      for (size_t i = 0; i < keys.size(); ++i) {
        for (const QuoteRecord* q : texts.at(keys[i])) {
          if (!errors[i].empty()) {
            fail("reference failed for " + std::string(keys[i]) + ": " +
                 errors[i]);
          } else if (!QuoteMatches(q->price, q->approximate, exact[i])) {
            fail("shard " + std::to_string(s) + " v" +
                 std::to_string(version) + " " + std::string(keys[i]) +
                 ": served " + std::to_string(q->price) +
                 (q->approximate ? " (approximate)" : "") + ", exact " +
                 std::to_string(exact[i]));
          }
        }
      }
    }
  }
  return result;
}

bool RequoteDetector::Observe(uint32_t shard, const std::string& text,
                              uint64_t version, const Invalidated& invalidated) {
  std::string key = std::to_string(shard);
  key += '\x1f';
  key += text;
  auto [it, first_sighting] = last_version_.try_emplace(std::move(key), version);
  if (first_sighting || version <= it->second) return false;
  const uint64_t seen = it->second;
  it->second = version;
  return invalidated(seen, version);
}

double OnTimeShare(const std::vector<Outcome>& outcomes, uint64_t limit_ns) {
  uint64_t on_time = 0;
  for (const Outcome& o : outcomes) {
    if (o.ok && o.latency_ns <= limit_ns) ++on_time;
  }
  return Ratio(static_cast<double>(on_time),
               static_cast<double>(outcomes.size()));
}

std::string CheckSchedule(const ScheduleTrace& trace, uint64_t limit_ns) {
  const uint64_t missed = trace.scheduled > trace.sent_in_time
                              ? trace.scheduled - trace.sent_in_time
                              : 0;
  if (missed > std::max<uint64_t>(2, trace.scheduled / 100)) {
    return "sent " + std::to_string(trace.sent_in_time) + " of " +
           std::to_string(trace.scheduled) + " scheduled requests in time";
  }
  // A backlog that grows through the phase raises the median send lag in
  // every quarter (by a tenth of the limit at least, so noise in a lag of a
  // few microseconds does not count); a stall near the end does not.
  const size_t n = trace.lag_ns.size();
  if (n >= 8) {
    std::vector<uint64_t> quarter(4);
    for (size_t q = 0; q < 4; ++q) {
      quarter[q] = Percentile(
          std::vector<uint64_t>(trace.lag_ns.begin() + q * n / 4,
                                trace.lag_ns.begin() + (q + 1) * n / 4),
          50);
    }
    const uint64_t step = limit_ns / 10;
    if (quarter[3] > limit_ns && quarter[1] >= quarter[0] + step &&
        quarter[2] >= quarter[1] + step && quarter[3] >= quarter[2] + step) {
      return "backlog grew: median send lag per quarter " +
             std::to_string(quarter[0] / 1000) + ", " +
             std::to_string(quarter[1] / 1000) + ", " +
             std::to_string(quarter[2] / 1000) + ", " +
             std::to_string(quarter[3] / 1000) + " us";
    }
  }
  return "";
}

uint64_t Percentile(std::vector<uint64_t> samples, int q) {
  std::sort(samples.begin(), samples.end());
  return qp::NearestRankPercentile(samples, q);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

MetricsSample ParseMetricsJson(std::string_view json) {
  MetricsSample out;
  enum { kNone, kCounters, kGauges, kHistograms } section = kNone;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string_view::npos) eol = json.size();
    const std::string_view line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("\"counters\":") != std::string_view::npos) {
      section = kCounters;
      continue;
    }
    if (line.find("\"gauges\":") != std::string_view::npos) {
      section = kGauges;
      continue;
    }
    if (line.find("\"histograms\":") != std::string_view::npos) {
      section = kHistograms;
      continue;
    }
    const size_t q1 = line.find('"');
    const size_t q2 = q1 == std::string_view::npos ? q1 : line.find('"', q1 + 1);
    if (q2 == std::string_view::npos || section == kNone) continue;
    const std::string name(line.substr(q1 + 1, q2 - q1 - 1));
    const std::string rest(line.substr(q2 + 1));
    auto number_after = [&rest](const char* key) {
      const size_t at = rest.find(key);
      return at == std::string::npos
                 ? 0.0
                 : std::strtod(rest.c_str() + at + std::char_traits<char>::length(key),
                               nullptr);
    };
    switch (section) {
      case kCounters:
        out.counters[name] = number_after(": ");
        break;
      case kGauges:
        out.gauges[name] = number_after(": ");
        break;
      case kHistograms:
        out.hist_count[name] = number_after("\"count\": ");
        out.hist_sum[name] = number_after("\"sum\": ");
        break;
      case kNone:
        break;
    }
  }
  return out;
}

namespace {

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

double MetricsDelta::Counter(const std::string& name) const {
  return Lookup(after_.counters, name) - Lookup(before_.counters, name);
}

double MetricsDelta::CounterPrefix(const std::string& prefix) const {
  double total = 0;
  for (const auto& [name, value] : after_.counters) {
    if (name.rfind(prefix, 0) == 0) total += value - Lookup(before_.counters, name);
  }
  return total;
}

double MetricsDelta::HistCount(const std::string& name) const {
  return Lookup(after_.hist_count, name) - Lookup(before_.hist_count, name);
}

double MetricsDelta::HistSum(const std::string& name) const {
  return Lookup(after_.hist_sum, name) - Lookup(before_.hist_sum, name);
}

double MetricsDelta::HistMean(const std::string& name) const {
  return Ratio(HistSum(name), HistCount(name));
}

double MetricsDelta::GaugeAfter(const std::string& name) const {
  return Lookup(after_.gauges, name);
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace qpbench
