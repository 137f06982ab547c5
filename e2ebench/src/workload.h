#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

// The benchmark's four traffic mixes: the markets the server is built
// from and the request streams the load process sends. Everything here is
// a pure function of Params (seed included), so the server process, the
// load process, the verifier and the traced replay all see the same
// markets and the same requests.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qp/market/seller.h"
#include "qp/relational/instance.h"
#include "qp/util/random.h"
#include "qp/util/status.h"

namespace qpbench {

enum class Kind { kHotRead, kColdPrice, kWriteChurn, kHardJoin };

/// Workload parameters; run.py passes them from workloads.json.
struct Params {
  Kind kind = Kind::kHotRead;
  std::string name = "hot_read";
  uint64_t seed = 1;
  double seconds = 10;
  /// Business markets: shard count and size.
  int shards = 1;
  int businesses = 120;
  int states = 8;
  int counties = 4;
  /// Query texts per shard quoted round-robin (hot_read, write_churn).
  int hot_queries = 32;
  /// Open-loop offered rate of the quoting connections, frames/s in total.
  double rate = 1000;
  /// Fixed INSERT rate of the writer connection (write_churn, hard_join).
  double insert_rate = 0;
  /// Latency limit of on_time_share, microseconds.
  double limit_us = 1000;
  /// Closed-loop insert-then-requote cycles after the read phases, for
  /// workloads without a writer (so every workload reports insert and
  /// requote latency).
  int probe_publishes = 0;

  bool has_writer() const {
    return kind == Kind::kWriteChurn || kind == Kind::kHardJoin;
  }
};

/// Parses `--key=value` flags into `params`; unknown keys are an error.
qp::Status ParseParams(const std::vector<std::string>& args, Params* params);

/// Builds and publishes the workload's sellers, one per shard.
qp::Status BuildSellers(const Params& params,
                        std::vector<std::unique_ptr<qp::Seller>>* sellers);

/// One request of a stream. Query texts point into the Workload that made
/// them and stay valid while it lives.
struct Request {
  enum Type : uint8_t { kQuote = 0, kBatch = 1, kInsert = 2 };
  Type type = kQuote;
  uint32_t shard = 0;
  std::vector<const std::string*> texts;  // kQuote: one; kBatch: several
  std::string relation;                   // kInsert
  std::vector<std::vector<qp::Value>> rows;
};

/// Connection roles. Quoters send quotes (and batches); the writer sends
/// INSERTs of fresh rows.
enum class Role { kQuoter, kWriter };

/// The requests of one workload instance: per-connection deterministic
/// streams, the warm-up set and the publish probe. Not thread-safe; each
/// connection's stream is advanced by one thread only (Next(conn) for
/// different `conn` values touches disjoint state except `planner_`, which
/// only the writer and the probe use, never concurrently).
class Workload {
 public:
  /// `sellers` must outlive the workload (the fresh-row planner starts
  /// from a copy of their databases).
  Workload(const Params& params,
           const std::vector<std::unique_ptr<qp::Seller>>& sellers);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  static constexpr int kConnections = 2;
  /// Every kBatchEvery-th frame of a hot_read connection is a
  /// QUOTE_BATCH of kBatchSize texts.
  static constexpr int kBatchSize = 8;
  static constexpr int kBatchEvery = 16;
  /// Independent H2 sets of the hard_join market.
  static constexpr int kHardSets = 8;

  Role role(int conn) const;
  /// Open-loop rate of `conn`, frames/s.
  double open_rate(int conn) const;
  /// Schedule offset of `conn` in periods (the two quoters interleave).
  double open_offset(int conn) const;
  /// The next request of connection `conn`'s stream.
  Request Next(int conn);

  /// Untimed warm-up requests (hot sets, probe texts), sent before timing.
  const std::vector<Request>& warmup() const { return warmup_; }

  /// One probe cycle: an INSERT of a fresh row and the quote that follows
  /// it (a text reading the mutated relation on the same shard).
  void NextProbe(Request* insert, Request* quote);

  /// Distinct query texts this workload can send (for the size report).
  size_t distinct_texts() const;
  /// Hot-set size (texts quoted round-robin), 0 when there is none.
  size_t hot_set_size() const;

 private:
  Request Quote(uint32_t shard, const std::string* text) const;
  /// A fresh row for `relation` on `shard` (not present in the seed
  /// database nor inserted before by this workload).
  Request FreshInsert(uint32_t shard, const std::string& relation);

  Params params_;
  qp::Rng rng_;
  /// Per-shard copies of the seed databases; inserting a candidate row
  /// here tells whether it is fresh.
  std::vector<qp::Instance> planner_;
  std::vector<std::vector<std::string>> bid_values_;
  std::vector<std::vector<std::string>> state_values_;
  std::vector<std::vector<std::string>> county_values_;

  /// Texts per shard: hot sets (hot_read, write_churn), the cold stream
  /// (cold_price), the H2 sets (hard_join).
  std::vector<std::vector<std::string>> texts_;
  /// Texts of the publish probe per shard (they read InState).
  std::vector<std::vector<const std::string*>> probe_texts_;
  std::vector<std::string> cold_probe_texts_;
  std::vector<std::string> cold_warmup_;
  std::vector<Request> warmup_;
  uint64_t next_[kConnections] = {0, 0};
  uint64_t probe_next_ = 0;
};

}  // namespace qpbench

#endif  // E2EBENCH_WORKLOAD_H_
