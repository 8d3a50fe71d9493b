// Logical redo records: after-image row operations captured at commit time,
// replayable in LSN order to reconstruct committed state after a crash.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/table.h"

namespace tdp::log {

/// One redo operation. kPut carries the full after-image of the row, so
/// replay is idempotent (pure physical "value logging").
///
/// The k2PC* kinds are *control* markers for cross-shard two-phase commit
/// (docs/sharding.md) — they carry no row data and are never applied to a
/// table. They reuse the row-op wire layout with `table` = the coordinator
/// shard id and `key` = the global transaction id (gtid):
///
///   k2PCPrepare  first op of a non-coordinator participant's PREPARE
///                frame; the frame's remaining ops are the participant's
///                data redo, replayed only if the gtid was decided (or
///                locally committed).
///   k2PCDecide   first op of the coordinator's DECISION frame — the commit
///                point, appended in the same round as the PREPAREs. The
///                coordinator logs no PREPARE: its data redo follows the
///                marker and replays with it (a marker-only decision, an
///                older layout, replays nothing). Then come the sections.
///                No decision frame anywhere => presumed abort.
///   k2PCCommit   sole op of a non-coordinator participant's local COMMIT
///                frame, written after the decision so that shard's own log
///                proves the outcome without consulting the coordinator.
///   k2PCSection  opens one section of a DECISION frame: a copy of one
///                participant's PREPARE data redo follows it, up to the
///                next section or the frame's end. Here `table` is the
///                participant's shard id and `key` the LSN its PREPARE
///                frame got on that shard's log. Recovery replays a section
///                only when the participant's own stream lost the frame.
struct RedoOp {
  enum class Kind {
    kPut,
    kDelete,
    k2PCPrepare,
    k2PCDecide,
    k2PCCommit,
    k2PCSection,
  };
  Kind kind = Kind::kPut;
  uint32_t table = 0;  ///< Coordinator shard id for k2PC* markers.
  uint64_t key = 0;    ///< Gtid for k2PC* markers.
  storage::Row after;  ///< Valid for kPut.
};

/// A committed transaction recovered from the durable log prefix.
struct RecoveredTxn {
  uint64_t txn_id = 0;
  uint64_t lsn = 0;
  std::vector<RedoOp> ops;
};

}  // namespace tdp::log
