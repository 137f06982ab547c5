#ifndef E2EBENCH_LOGIC_H_
#define E2EBENCH_LOGIC_H_

// The benchmark's own bookkeeping, kept free of sockets and processes so
// tests can drive it: the exact-price verifier, the requote detector,
// on-time accounting, the open-loop validity rule and the METRICS-frame
// delta reader.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qp/market/seller.h"
#include "qp/relational/value.h"

namespace qpbench {

// ---- Output verification ----

/// One quote the server answered (a QUOTE reply or one QUOTE_BATCH item).
struct QuoteRecord {
  uint32_t shard = 0;
  uint64_t version = 0;
  const std::string* text = nullptr;  // owned by the Workload
  int64_t price = 0;
  bool approximate = false;
};

/// One acknowledged INSERT and the version its publish created.
struct InsertRecord {
  uint32_t shard = 0;
  uint64_t version = 0;
  std::string relation;
  std::vector<std::vector<qp::Value>> rows;
};

struct VerifyResult {
  uint64_t quotes_verified = 0;
  /// Distinct (shard, version, text) triples re-priced exactly.
  uint64_t exact_solves = 0;
  uint64_t mismatches = 0;
  /// First few mismatches, for the log.
  std::vector<std::string> examples;
};

/// Exact quotes must equal the reference bit for bit; approximate quotes
/// must not undercut it (Lemma 3.1 admissibility).
bool QuoteMatches(int64_t served, bool approximate, int64_t exact);

/// Rebuilds every shard at every version a quote saw, by replaying the
/// acknowledged inserts in version order onto the seed sellers, and
/// re-prices each distinct (shard, version, text) with an unbudgeted
/// PricingEngine on `threads` threads. Insert versions per shard must be
/// exactly 1..n (one publish per insert); anything else, a quote at an
/// unknown version, or a text that fails to parse or price counts as a
/// mismatch.
VerifyResult Verify(const std::vector<std::unique_ptr<qp::Seller>>& sellers,
                    std::vector<InsertRecord> inserts,
                    const std::vector<QuoteRecord>& quotes, int threads);

// ---- Requote detection ----

/// Picks the quote a publish invalidated: the first quote of each query
/// whose reply version is newer than the last version that query was seen
/// at, when a publish in between mutated a relation the query reads. The
/// first sighting of a query only sets its baseline.
class RequoteDetector {
 public:
  /// True when some publish with a version in (from, to] mutated a relation
  /// the query reads.
  using Invalidated = std::function<bool(uint64_t from, uint64_t to)>;

  /// Records a sighting; true when it is a requote.
  bool Observe(uint32_t shard, const std::string& text, uint64_t version,
               const Invalidated& invalidated);

 private:
  std::unordered_map<std::string, uint64_t> last_version_;
};

// ---- Open-loop accounting ----

/// Outcome of one open-loop request.
struct Outcome {
  /// Answered with a reply (not an error or refusal) and, for quotes,
  /// priced correctly.
  bool ok = false;
  /// Reply time minus the scheduled send time.
  uint64_t latency_ns = 0;
};

/// Requests answered OK within `limit_ns` of their scheduled send time,
/// over requests sent. Failed and refused requests count as late.
double OnTimeShare(const std::vector<Outcome>& outcomes, uint64_t limit_ns);

/// One connection's open-loop phase, as the validity rule sees it.
struct ScheduleTrace {
  uint64_t scheduled = 0;     // sends due in the first 90% of the phase
  uint64_t sent_in_time = 0;  // of those, sent before the phase ended
  /// Send lag (actual minus scheduled), in send order.
  std::vector<uint64_t> lag_ns;
};

/// The offered rate was sustained: at most 1% (and at least 2) of the sends
/// due in the first 90% of the phase went out after it ended, and the
/// backlog did not grow through it — the median send lag did not rise by
/// a tenth of the latency limit or more from each quarter of the phase to
/// the next and end above the limit. Returns "" when valid, else the
/// reason.
std::string CheckSchedule(const ScheduleTrace& trace, uint64_t limit_ns);

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
uint64_t Percentile(std::vector<uint64_t> samples, int q);
double Median(std::vector<double> values);

// ---- METRICS frame ----

/// Counters, gauges and histogram count/sum parsed from a METRICS reply.
struct MetricsSample {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, double> hist_count;
  std::map<std::string, double> hist_sum;
};

/// Parses the JSON the server's METRICS frame carries (qp::MetricsToJson).
MetricsSample ParseMetricsJson(std::string_view json);

/// The change between two METRICS readings.
class MetricsDelta {
 public:
  MetricsDelta(const MetricsSample& before, const MetricsSample& after)
      : before_(before), after_(after) {}

  double Counter(const std::string& name) const;
  /// Sum of the deltas of every counter whose name starts with `prefix`.
  double CounterPrefix(const std::string& prefix) const;
  double HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
  /// Histogram mean over the window (0 when it saw no samples).
  double HistMean(const std::string& name) const;
  /// The gauge's value at the end of the window.
  double GaugeAfter(const std::string& name) const;

 private:
  const MetricsSample& before_;
  const MetricsSample& after_;
};

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

}  // namespace qpbench

#endif  // E2EBENCH_LOGIC_H_
