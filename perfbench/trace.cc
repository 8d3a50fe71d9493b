#include "trace.h"

#include <cstdio>
#include <utility>

#include "common/clock.h"

namespace perfbench {

using tdp::NowNanos;
using tdp::Result;
using tdp::Status;
using tdp::engine::Connection;

namespace {

/// Forwards every operation to the worker's connection and records reads
/// and writes as op spans of the running attempt. SelectForUpdate counts as
/// a write: it takes the exclusive lock a write takes.
class TracedConnection : public Connection {
 public:
  TracedConnection(Connection& inner, RequestTrace* rec)
      : inner_(inner), rec_(rec) {}

  uint64_t current_txn_id() const override { return inner_.current_txn_id(); }

 protected:
  Status DoBegin() override { return inner_.Begin(); }
  Status DoSelect(uint32_t table, uint64_t key) override {
    return Timed(SpanKind::kRead, [&] { return inner_.Select(table, key); });
  }
  Status DoSelectRange(uint32_t table, uint64_t lo, uint64_t hi) override {
    return Timed(SpanKind::kRead,
                 [&] { return inner_.SelectRange(table, lo, hi); });
  }
  Status DoSelectForUpdate(uint32_t table, uint64_t key) override {
    return Timed(SpanKind::kWrite,
                 [&] { return inner_.SelectForUpdate(table, key); });
  }
  Status DoUpdate(uint32_t table, uint64_t key, size_t col,
                  int64_t delta) override {
    return Timed(SpanKind::kWrite,
                 [&] { return inner_.Update(table, key, col, delta); });
  }
  Status DoInsert(uint32_t table, uint64_t key,
                  tdp::storage::Row row) override {
    return Timed(SpanKind::kWrite, [&] {
      return inner_.Insert(table, key, std::move(row));
    });
  }
  Status DoDelete(uint32_t table, uint64_t key) override {
    return Timed(SpanKind::kWrite, [&] { return inner_.Delete(table, key); });
  }
  Status DoCommit() override { return inner_.Commit(); }
  Status DoCommitAsync(CommitAckFn ack) override {
    return inner_.CommitAsync(std::move(ack));
  }
  void DoRollback() override { inner_.Rollback(); }
  Result<int64_t> DoReadColumn(uint32_t table, uint64_t key,
                               size_t col) override {
    return Timed(SpanKind::kRead,
                 [&] { return inner_.ReadColumn(table, key, col); });
  }

 private:
  template <typename F>
  auto Timed(SpanKind kind, F&& op) -> decltype(op()) {
    Span s;
    s.kind = kind;
    s.start_ns = NowNanos();
    auto result = op();
    s.end_ns = NowNanos();
    rec_->ops.push_back(s);
    return result;
  }

  Connection& inner_;
  RequestTrace* const rec_;
};

}  // namespace

Tracer::Tracer(size_t span_capacity) : spans_(span_capacity) {}

tdp::engine::TxnBody Tracer::Wrap(tdp::engine::TxnBody body,
                                  RequestTrace* rec) {
  return [body = std::move(body), rec](Connection& conn) -> Status {
    ++rec->attempts;
    rec->ops.clear();
    rec->body_start_ns = NowNanos();
    TracedConnection traced(conn, rec);
    const Status s = body(traced);
    rec->body_end_ns = NowNanos();
    return s;
  };
}

void Tracer::Finish(const RequestTrace& rec, int64_t due_ns, int64_t done_ns,
                    bool cross) {
  const int64_t queue = rec.body_start_ns - due_ns;
  const int64_t body = rec.body_end_ns - rec.body_start_ns;
  const int64_t commit = done_ns - rec.body_end_ns;
  bool ok = rec.attempts > 0 && queue >= 0 && body >= 0 && commit >= 0 &&
            queue + body + commit == done_ns - due_ns;

  int64_t reads = 0, writes = 0;
  for (const Span& op : rec.ops) {
    ok = ok && op.start_ns >= rec.body_start_ns && op.end_ns >= op.start_ns &&
         op.end_ns <= rec.body_end_ns;
    const int64_t d = op.end_ns - op.start_ns;
    if (op.kind == SpanKind::kRead) {
      reads += d;
      read_ns.Add(d);
    } else {
      writes += d;
      write_ns.Add(d);
    }
  }
  if (!ok) identity_violations.fetch_add(1, std::memory_order_relaxed);

  requests.fetch_add(1, std::memory_order_relaxed);
  if (rec.attempts > 1) {
    retries.fetch_add(static_cast<uint64_t>(rec.attempts - 1),
                      std::memory_order_relaxed);
  }
  body_ns.Add(body);
  commit_ns.Add(commit);
  (cross ? commit_cross_ns : commit_single_ns).Add(commit);
  self_queue_ns.fetch_add(queue, std::memory_order_relaxed);
  self_body_ns.fetch_add(body - reads - writes, std::memory_order_relaxed);
  self_commit_ns.fetch_add(commit, std::memory_order_relaxed);
  self_read_ns.fetch_add(reads, std::memory_order_relaxed);
  self_write_ns.fetch_add(writes, std::memory_order_relaxed);

  const uint32_t req = next_req_.fetch_add(1, std::memory_order_relaxed);
  Append({req, 0, 0, SpanKind::kRequest, due_ns, done_ns});
  Append({req, 1, 0, SpanKind::kQueue, due_ns, rec.body_start_ns});
  Append({req, 2, 0, SpanKind::kBody, rec.body_start_ns, rec.body_end_ns});
  Append({req, 3, 0, SpanKind::kCommit, rec.body_end_ns, done_ns});
  uint32_t id = 4;
  for (const Span& op : rec.ops) {
    Append({req, id++, 2, op.kind, op.start_ns, op.end_ns});
  }
}

void Tracer::Append(const Span& s) {
  const size_t i = next_span_.fetch_add(1, std::memory_order_relaxed);
  if (i < spans_.size()) {
    spans_[i] = s;
  } else {
    spans_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t Tracer::spans_kept() const {
  const size_t n = next_span_.load(std::memory_order_relaxed);
  return n < spans_.size() ? n : spans_.size();
}

bool Tracer::WriteSpans(const std::string& path) const {
  static const char* const kNames[] = {"request", "queue", "body",
                                       "commit",  "read",  "write"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "req,id,parent,kind,start_ns,end_ns\n");
  const uint64_t n = spans_kept();
  for (uint64_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u,%u,%u,%s,%lld,%lld\n", s.req, s.id, s.parent,
                 kNames[static_cast<int>(s.kind)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
