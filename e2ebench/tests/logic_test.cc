// Tests of the benchmark's own bookkeeping. Run with
//   python3 e2ebench/run.py --self-test

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "logic.h"
#include "qp/pricing/engine.h"
#include "qp/query/parser.h"
#include "trace.h"
#include "workload.h"

namespace qpbench {
namespace {

TEST(QuoteMatchesTest, ExactMustBeEqualApproximateMustNotUndercut) {
  EXPECT_TRUE(QuoteMatches(500, false, 500));
  EXPECT_FALSE(QuoteMatches(501, false, 500));
  EXPECT_FALSE(QuoteMatches(499, false, 500));
  EXPECT_TRUE(QuoteMatches(500, true, 500));
  EXPECT_TRUE(QuoteMatches(900, true, 500));
  EXPECT_FALSE(QuoteMatches(499, true, 500));
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_.kind = Kind::kColdPrice;
    params_.businesses = 120;
    params_.states = 8;
    params_.counties = 4;
    params_.seed = 3;
    ASSERT_TRUE(BuildSellers(params_, &sellers_).ok());
  }

  int64_t ExactPrice(const qp::Instance& db, const std::string& text) {
    auto query = qp::ParseQuery(sellers_[0]->catalog().schema(), text);
    EXPECT_TRUE(query.ok());
    qp::PricingEngine engine(&db, &sellers_[0]->prices());
    auto quote = engine.Price(*query);
    EXPECT_TRUE(quote.ok());
    return quote->solution.price;
  }

  Params params_;
  std::vector<std::unique_ptr<qp::Seller>> sellers_;
  const std::string text_ = "Q(b) :- Email(b), InState(b,'WA')";
};

TEST_F(VerifyTest, AcceptsExactAndAdmissibleQuotes) {
  const int64_t exact = ExactPrice(sellers_[0]->db(), text_);
  std::vector<QuoteRecord> quotes = {{0, 0, &text_, exact, false},
                                     {0, 0, &text_, exact + 100, true}};
  VerifyResult r = Verify(sellers_, {}, quotes, 2);
  EXPECT_EQ(r.quotes_verified, 2u);
  EXPECT_EQ(r.exact_solves, 1u);
  EXPECT_EQ(r.mismatches, 0u);
}

TEST_F(VerifyTest, RejectsPerturbedExactPrice) {
  const int64_t exact = ExactPrice(sellers_[0]->db(), text_);
  std::vector<QuoteRecord> quotes = {{0, 0, &text_, exact + 1, false}};
  EXPECT_EQ(Verify(sellers_, {}, quotes, 1).mismatches, 1u);
}

TEST_F(VerifyTest, RejectsApproximatePriceBelowExact) {
  const int64_t exact = ExactPrice(sellers_[0]->db(), text_);
  std::vector<QuoteRecord> quotes = {{0, 0, &text_, exact - 1, true}};
  EXPECT_EQ(Verify(sellers_, {}, quotes, 1).mismatches, 1u);
}

TEST_F(VerifyTest, RebuildsEachVersionFromAcknowledgedInserts) {
  // Find a business outside WA and move it into WA at version 1.
  qp::Instance after = sellers_[0]->db();
  std::vector<qp::Value> row;
  for (int b = 0; b < params_.businesses; ++b) {
    row = {qp::Value::Str("biz" + std::to_string(b)), qp::Value::Str("WA")};
    auto fresh = after.Insert("InState", row);
    ASSERT_TRUE(fresh.ok());
    if (*fresh) break;
  }
  const int64_t before_price = ExactPrice(sellers_[0]->db(), text_);
  const int64_t after_price = ExactPrice(after, text_);
  std::vector<InsertRecord> inserts = {{0, 1, "InState", {row}}};

  std::vector<QuoteRecord> good = {{0, 0, &text_, before_price, false},
                                   {0, 1, &text_, after_price, false}};
  EXPECT_EQ(Verify(sellers_, inserts, good, 2).mismatches, 0u);

  // The version-0 price served at version 1 is stale.
  ASSERT_NE(before_price, after_price);
  std::vector<QuoteRecord> stale = {{0, 1, &text_, before_price, false}};
  EXPECT_EQ(Verify(sellers_, inserts, stale, 2).mismatches, 1u);
  // A quote at a version no acknowledged insert published.
  std::vector<QuoteRecord> unknown = {{0, 2, &text_, after_price, false}};
  EXPECT_EQ(Verify(sellers_, inserts, unknown, 1).mismatches, 1u);
  // An insert that did not publish the next version.
  std::vector<InsertRecord> gap = {{0, 2, "InState", {row}}};
  EXPECT_GE(Verify(sellers_, gap, {}, 1).mismatches, 1u);
}

TEST(OnTimeShareTest, FailedAndRefusedRequestsCountAsLate) {
  const uint64_t limit = 1000;
  std::vector<Outcome> outcomes = {
      {true, 500},    // on time
      {true, 1000},   // on time (at the limit)
      {true, 1500},   // late
      {false, 100},   // failed fast: still late
      {false, 0},     // refused: late
  };
  EXPECT_DOUBLE_EQ(OnTimeShare(outcomes, limit), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(OnTimeShare({}, limit), 0.0);
}

TEST(RequoteDetectorTest, PicksFirstQuoteAfterEachInvalidatingPublish) {
  RequoteDetector d;
  const std::string a = "Q(s) :- InState('biz1', s)";
  const std::string b = "Q(c) :- InCounty('biz1', c)";
  auto always = [](uint64_t, uint64_t) { return true; };
  EXPECT_FALSE(d.Observe(0, a, 0, always));  // baseline
  EXPECT_FALSE(d.Observe(0, a, 0, always));
  EXPECT_FALSE(d.Observe(0, b, 0, always));  // baseline of another query
  EXPECT_TRUE(d.Observe(0, a, 1, always));   // first quote after publish 1
  EXPECT_FALSE(d.Observe(0, a, 1, always));  // later quotes of that version
  EXPECT_TRUE(d.Observe(0, b, 2, always));   // b skipped version 1: one requote
  EXPECT_FALSE(d.Observe(0, b, 2, always));
  EXPECT_TRUE(d.Observe(0, a, 4, always));
  EXPECT_FALSE(d.Observe(0, a, 3, always));  // an older version is not one
  EXPECT_FALSE(d.Observe(1, a, 4, always));  // same text, other shard: baseline
}

TEST(RequoteDetectorTest, IgnoresPublishesOfUnreadRelations) {
  RequoteDetector d;
  const std::string a = "Q(s) :- InState('biz1', s)";
  // Publishes 1 and 2 mutated another relation; publish 3 one `a` reads.
  auto reads_a = [](uint64_t from, uint64_t to) { return from < 3 && 3 <= to; };
  EXPECT_FALSE(d.Observe(0, a, 0, reads_a));
  EXPECT_FALSE(d.Observe(0, a, 1, reads_a));  // newer, but still valid
  EXPECT_FALSE(d.Observe(0, a, 2, reads_a));
  EXPECT_TRUE(d.Observe(0, a, 3, reads_a));   // the invalidated quote
  EXPECT_FALSE(d.Observe(0, a, 3, reads_a));
  EXPECT_FALSE(d.Observe(0, a, 5, reads_a));
}

TEST(CheckScheduleTest, FlagsShortfallAndGrowingBacklog) {
  ScheduleTrace steady;
  steady.scheduled = steady.sent_in_time = 1000;
  steady.lag_ns.assign(1000, 20000);
  EXPECT_EQ(CheckSchedule(steady, 1000000), "");

  ScheduleTrace short_sent = steady;
  short_sent.sent_in_time = 900;
  EXPECT_NE(CheckSchedule(short_sent, 1000000), "");

  ScheduleTrace growing = steady;
  for (size_t i = 0; i < growing.lag_ns.size(); ++i) {
    growing.lag_ns[i] = 20000 + i * 2000;  // up to ~2 ms behind
  }
  EXPECT_NE(CheckSchedule(growing, 1000000), "");

  // A stall through the last quarter is no backlog growing through the
  // phase.
  ScheduleTrace stall = steady;
  for (size_t i = 750; i < 1000; ++i) stall.lag_ns[i] = 5000000 + i;
  EXPECT_EQ(CheckSchedule(stall, 1000000), "");
}

TEST(MetricsTest, DeltasOfCountersAndHistograms) {
  const std::string before =
      "{\n  \"counters\": {\n    \"qp.cache.hits\": 10,\n"
      "    \"qp.engine.dispatch.gchq\": 4\n  },\n"
      "  \"gauges\": {\n    \"qp.cache.size\": 3\n  },\n"
      "  \"histograms\": {\n    \"qp.server.request_ns\": {\"count\": 2, "
      "\"sum\": 3000, \"min\": 1, \"p50\": 1, \"p95\": 1, \"p99\": 1, "
      "\"max\": 1}\n  }\n}\n";
  const std::string after =
      "{\n  \"counters\": {\n    \"qp.cache.hits\": 25,\n"
      "    \"qp.engine.dispatch.clause\": 2,\n"
      "    \"qp.engine.dispatch.gchq\": 7\n  },\n"
      "  \"gauges\": {\n    \"qp.cache.size\": 9\n  },\n"
      "  \"histograms\": {\n    \"qp.server.request_ns\": {\"count\": 6, "
      "\"sum\": 11000, \"min\": 1, \"p50\": 1, \"p95\": 1, \"p99\": 1, "
      "\"max\": 1}\n  }\n}\n";
  const MetricsSample b = ParseMetricsJson(before);
  const MetricsSample a = ParseMetricsJson(after);
  const MetricsDelta d(b, a);
  EXPECT_DOUBLE_EQ(d.Counter("qp.cache.hits"), 15);
  EXPECT_DOUBLE_EQ(d.Counter("qp.missing"), 0);
  EXPECT_DOUBLE_EQ(d.CounterPrefix("qp.engine.dispatch."), 5);
  EXPECT_DOUBLE_EQ(d.HistMean("qp.server.request_ns"), 2000);
  EXPECT_DOUBLE_EQ(d.GaugeAfter("qp.cache.size"), 9);
}

TEST(SummarizeTest, CountsRepeatedWorkOnceInsideTheCallThatDoesIt) {
  using Span = SpanRecorder::Span;
  // A request whose memo lookup parsed inside it; the parse was then timed
  // again on its own, beside it.
  std::vector<Span> spans(4);
  spans[0] = {Layer::kRequest, -1, -1, 1, 0, 100};
  spans[1] = {Layer::kMemoGet, 0, -1, 1, 0, 30};
  spans[2] = {Layer::kParse, 0, 1, 1, 30, 50};
  spans[3] = {Layer::kEnginePrice, 0, -1, 1, 50, 90};
  const std::vector<LayerStats> stats = Summarize(spans);
  auto self = [&stats](Layer l) { return stats[static_cast<size_t>(l)].self_ns; };
  EXPECT_EQ(self(Layer::kRequest), 10u);
  EXPECT_EQ(self(Layer::kMemoGet), 10u);
  EXPECT_EQ(self(Layer::kParse), 20u);
  EXPECT_EQ(self(Layer::kEnginePrice), 40u);
  uint64_t total = 0;
  for (const LayerStats& s : stats) total += s.self_ns;
  EXPECT_EQ(total, 80u);  // the request's 100 ns less the repeated parse
  EXPECT_EQ(stats[static_cast<size_t>(Layer::kMemoGet)].p50_ns, 30u);
}

}  // namespace
}  // namespace qpbench
