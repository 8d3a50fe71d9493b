// The traced run's span recorder. Spans are timed from the benchmark's own
// files, around the calls it makes into each layer's public API: the
// service (submit to ack), the engine body (a Connection wrapper around
// every read and write) and the commit (body end to ack). Spans stay in a
// bounded in-memory buffer and are written out when the run ends.
//
// Span tree of one request (ids are fixed per request):
//   0 request  [due,        ack]
//   1 queue    [due,        last body start]   parent 0
//   2 body     [body start, body end]          parent 0
//   3 commit   [body end,   ack]               parent 0
//   4.. op     [op start,   op end]            parent 2 (last attempt only)
// so queue + body + commit == request latency for every request, and a
// layer's self time is its span minus the child spans it covers.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "engine/database.h"
#include "engine/txn.h"

namespace perfbench {

enum class SpanKind : uint8_t { kRequest, kQueue, kBody, kCommit, kRead, kWrite };

struct Span {
  uint32_t req = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  SpanKind kind = SpanKind::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What a traced body records about its attempts. Written only by the
/// thread running the body; read after the request completes.
struct RequestTrace {
  int attempts = 0;
  int64_t body_start_ns = 0;
  int64_t body_end_ns = 0;
  /// Op spans of the last attempt (req/id/parent filled at Finish).
  std::vector<Span> ops;
};

class Tracer {
 public:
  explicit Tracer(size_t span_capacity);

  /// Wraps `body` so each attempt records its start, end and every read and
  /// write into `*rec`, which must outlive the request.
  tdp::engine::TxnBody Wrap(tdp::engine::TxnBody body, RequestTrace* rec);

  /// Closes one completed request that was due at `due_ns` and acked at
  /// `done_ns`: checks the partition identity, feeds the per-layer
  /// distributions and appends the request's spans. Thread-safe.
  void Finish(const RequestTrace& rec, int64_t due_ns, int64_t done_ns,
              bool cross);

  /// Writes the kept spans as CSV (req,id,parent,kind,start_ns,end_ns).
  bool WriteSpans(const std::string& path) const;

  tdp::Histogram body_ns, commit_ns, commit_single_ns, commit_cross_ns,
      read_ns, write_ns;
  /// Summed self time per layer over finished requests.
  std::atomic<int64_t> self_queue_ns{0}, self_body_ns{0}, self_commit_ns{0},
      self_read_ns{0}, self_write_ns{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> retries{0};  ///< Attempts beyond the first.
  /// Requests whose spans were out of order, missing or did not sum to the
  /// request latency.
  std::atomic<uint64_t> identity_violations{0};
  std::atomic<uint64_t> spans_dropped{0};

  uint64_t spans_kept() const;

 private:
  void Append(const Span& s);

  std::vector<Span> spans_;
  std::atomic<size_t> next_span_{0};
  std::atomic<uint32_t> next_req_{0};
};

}  // namespace perfbench
