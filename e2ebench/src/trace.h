#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// The traced run: spans recorded from outside the program, around calls
// into each layer's public functions, while the workload's requests are
// replayed in-process in the order the server makes those calls.

#include <cstdint>
#include <string>
#include <vector>

#include "qp/util/result.h"
#include "workload.h"

namespace qpbench {

/// Span names, one per layer boundary the replay crosses.
enum class Layer : uint8_t {
  kRequest = 0,
  kWireDecode,
  kMemoGet,
  kParse,
  kAcquire,
  kCacheLookup,
  kClassify,
  kWorkProblem,
  kEnginePrice,
  kCacheStore,
  kWireEncode,
  kInstanceCopy,
  kInsertBatch,
  kNumLayers,
};

const char* LayerName(Layer layer);

/// Keeps spans in memory; a disabled recorder records nothing (the
/// untraced replay runs the same code through it).
class SpanRecorder {
 public:
  struct Span {
    Layer layer = Layer::kRequest;
    int32_t parent = -1;
    /// The span of a call that does this span's work again inside it (the
    /// replay times some inner steps on their own, beside the call that
    /// runs them); -1 when there is none.
    int32_t repeat_of = -1;
    uint32_t request = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Records one span for the lifetime of the scope; nested scopes become
  /// its children.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's index in spans(), -1 when the recorder is disabled.
    int32_t index() const { return index_; }

   private:
    SpanRecorder* recorder_;
    int32_t index_ = -1;
  };

  /// Records that span `call` repeats the work of span `repeat`, so the
  /// self-time summary counts that work once. No-op for -1 indices.
  void MarkRepeat(int32_t repeat, int32_t call) {
    if (repeat >= 0 && call >= 0) spans_[repeat].repeat_of = call;
  }

  /// Starts a new request id for the spans that follow.
  void NextRequest() { ++request_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as tab-separated lines.
  qp::Status WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Per-layer summary of a traced replay.
struct LayerStats {
  uint64_t spans = 0;
  /// Median span duration.
  uint64_t p50_ns = 0;
  /// Span time not covered by child spans nor by spans that repeat work
  /// done inside it, summed; the layers' self times add up to the work
  /// the server does once.
  uint64_t self_ns = 0;
};

std::vector<LayerStats> Summarize(const std::vector<SpanRecorder::Span>& spans);

/// Replays `requests` against a fresh in-process copy of the workload's
/// shards through the layers' public functions. Returns the wall time of
/// the replay loop in nanoseconds, or an error if the market cannot be
/// built.
qp::Result<uint64_t> Replay(const Params& params,
                            const std::vector<Request>& requests,
                            SpanRecorder* recorder);

}  // namespace qpbench

#endif  // E2EBENCH_TRACE_H_
