#ifndef WTPG_SCHED_TRACE_TRACE_ANALYSIS_H_
#define WTPG_SCHED_TRACE_TRACE_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace_event.h"
#include "trace/trace_recorder.h"

namespace wtpgsched {

// Where a transaction's response time went, reconstructed from its trace
// events. All figures are in simulated seconds and sum (with `other`) to
// `response`, so the breakdown reconciles with RunStats.mean_response_s.
struct TxnBreakdown {
  TxnId txn = kInvalidTxn;
  bool committed = false;
  int restarts = 0;
  double response_s = 0.0;        // arrival -> commit.
  double admission_wait_s = 0.0;  // Parked awaiting admission (all incarnations).
  double lock_wait_s = 0.0;       // Lock request -> step dispatch.
  double execution_s = 0.0;       // Step dispatch -> step return.
  double other_s = 0.0;           // Remainder: CN queueing, commit, restarts.
};

// Aggregate of the per-transaction breakdowns plus decision counts.
struct TraceSummary {
  std::vector<TxnBreakdown> txns;  // Committed transactions only.
  uint64_t arrived = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  // Mean over committed transactions.
  double mean_response_s = 0.0;
  double mean_admission_wait_s = 0.0;
  double mean_lock_wait_s = 0.0;
  double mean_execution_s = 0.0;
  double mean_other_s = 0.0;
  // Event counts by type over the buffered window.
  std::map<std::string, uint64_t> event_counts;
};

// Replays the event stream and computes the wait-time decomposition.
// Transactions whose kArrive fell outside the ring-buffer window are
// skipped (their response time cannot be reconstructed).
TraceSummary SummarizeTrace(const std::vector<TraceEvent>& events);

// Conflict-serializability verdict for the committed projection of a
// recorded history.
struct SerializabilityResult {
  bool serializable = false;
  // One witness cycle (transaction ids) when not serializable.
  std::vector<TxnId> cycle;
  std::string ToString() const;
};

// Post-hoc serialization-order check, the correctness oracle for every
// scheduler except NODC. Builds the conflict graph over committed
// transactions — an edge a -> b for each pair of conflicting kDataAccess
// events (same file, at least one write) where a's access has the earlier
// time, equal times ordered by position in `events` — and tests it for
// acyclicity. Accesses of transactions without a kCommit, and of any
// incarnation other than the committed one (aborted OPT incarnations never
// installed their writes), are ignored. An access's time is when it touches
// the shared database: the scan for reads and in-place writes, the commit
// for OPT's deferred writes.
SerializabilityResult CheckTraceSerializable(
    const std::vector<TraceEvent>& events);

// The truncation rule every consumer of a recorded history applies. A ring
// that overwrote `dropped` events, or a trace file without its end footer,
// holds part of the history only; the missing part can hide a cycle, so it
// supports no verdict. Returns "" for a complete history, else the
// "inconclusive (...)" text to report in place of a verdict. `kept` is the
// number of events at hand.
std::string IncompleteHistoryNote(size_t kept, uint64_t dropped,
                                  bool footer_seen = true);

// CheckTraceSerializable behind the truncation rule, as `wtpg_sim --verify`
// and `wtpg-trace check-serializable` report it.
struct HistoryCheck {
  // "serializable", "NOT serializable; cycle: ...", or "inconclusive (...)".
  std::string text;
  int exit_code = 0;  // 0 serializable, 1 not serializable, 3 inconclusive.
};
HistoryCheck CheckRecordedHistory(const std::vector<TraceEvent>& events,
                                  uint64_t dropped, bool footer_seen = true);
// Same, over an in-memory recorder (Machine::trace()).
HistoryCheck CheckRecordedHistory(const TraceRecorder& trace);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TRACE_TRACE_ANALYSIS_H_
