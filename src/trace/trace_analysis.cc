#include "trace/trace_analysis.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace wtpgsched {

namespace {

// Per-transaction replay state while walking the event stream.
struct TxnState {
  bool arrived = false;  // kArrive seen (inside the buffered window).
  SimTime arrival = 0;
  int restarts = 0;
  SimTime admit_open = -1;  // kArrive / kRestartScheduled awaiting kAdmit.
  SimTime lock_open = -1;   // First kLockRequest of the current step.
  SimTime exec_open = -1;   // kStepDispatch awaiting kStepReturn.
  SimTime admission_wait = 0;
  SimTime lock_wait = 0;
  SimTime execution = 0;
};

// DFS colors for cycle detection.
enum class Color { kWhite, kGray, kBlack };

bool FindCycle(TxnId node,
               const std::unordered_map<TxnId, std::unordered_set<TxnId>>& adj,
               std::unordered_map<TxnId, Color>* color,
               std::vector<TxnId>* stack, std::vector<TxnId>* cycle) {
  (*color)[node] = Color::kGray;
  stack->push_back(node);
  auto it = adj.find(node);
  if (it != adj.end()) {
    for (TxnId next : it->second) {
      Color c = color->count(next) ? (*color)[next] : Color::kWhite;
      if (c == Color::kGray) {
        // Extract the cycle from the stack.
        auto pos = std::find(stack->begin(), stack->end(), next);
        cycle->assign(pos, stack->end());
        return true;
      }
      if (c == Color::kWhite &&
          FindCycle(next, adj, color, stack, cycle)) {
        return true;
      }
    }
  }
  stack->pop_back();
  (*color)[node] = Color::kBlack;
  return false;
}

}  // namespace

TraceSummary SummarizeTrace(const std::vector<TraceEvent>& events) {
  TraceSummary summary;
  std::unordered_map<TxnId, TxnState> state;
  for (const TraceEvent& e : events) {
    summary.event_counts[TraceEventTypeName(e.type)] += 1;
    TxnState& s = state[e.txn];
    switch (e.type) {
      case TraceEventType::kArrive:
        s.arrived = true;
        s.arrival = e.time;
        s.admit_open = e.time;
        ++summary.arrived;
        break;
      case TraceEventType::kRestartScheduled:
        s.admit_open = e.time;
        ++s.restarts;
        break;
      case TraceEventType::kAdmit:
        if (s.admit_open >= 0) {
          s.admission_wait += e.time - s.admit_open;
          s.admit_open = -1;
        }
        break;
      case TraceEventType::kLockRequest:
        if (s.lock_open < 0) s.lock_open = e.time;
        break;
      case TraceEventType::kStepDispatch:
        if (s.lock_open >= 0) {
          s.lock_wait += e.time - s.lock_open;
          s.lock_open = -1;
        }
        s.exec_open = e.time;
        break;
      case TraceEventType::kStepReturn:
        if (s.exec_open >= 0) {
          s.execution += e.time - s.exec_open;
          s.exec_open = -1;
        }
        break;
      case TraceEventType::kAbort:
        // The dead incarnation's open intervals end here; the time counts
        // toward the category that was open when the abort struck.
        if (s.lock_open >= 0) {
          s.lock_wait += e.time - s.lock_open;
          s.lock_open = -1;
        }
        if (s.exec_open >= 0) {
          s.execution += e.time - s.exec_open;
          s.exec_open = -1;
        }
        ++summary.aborted;
        break;
      case TraceEventType::kCommit: {
        ++summary.committed;
        if (!s.arrived) break;  // Arrival fell outside the ring window.
        TxnBreakdown b;
        b.txn = e.txn;
        b.committed = true;
        b.restarts = s.restarts;
        b.response_s = TimeToSeconds(e.time - s.arrival);
        b.admission_wait_s = TimeToSeconds(s.admission_wait);
        b.lock_wait_s = TimeToSeconds(s.lock_wait);
        b.execution_s = TimeToSeconds(s.execution);
        b.other_s = b.response_s - b.admission_wait_s - b.lock_wait_s -
                    b.execution_s;
        summary.txns.push_back(b);
        break;
      }
      default:
        break;
    }
  }
  if (!summary.txns.empty()) {
    const double n = static_cast<double>(summary.txns.size());
    for (const TxnBreakdown& b : summary.txns) {
      summary.mean_response_s += b.response_s;
      summary.mean_admission_wait_s += b.admission_wait_s;
      summary.mean_lock_wait_s += b.lock_wait_s;
      summary.mean_execution_s += b.execution_s;
      summary.mean_other_s += b.other_s;
    }
    summary.mean_response_s /= n;
    summary.mean_admission_wait_s /= n;
    summary.mean_lock_wait_s /= n;
    summary.mean_execution_s /= n;
    summary.mean_other_s /= n;
  }
  return summary;
}

std::string SerializabilityResult::ToString() const {
  if (serializable) return "serializable";
  std::vector<std::string> parts;
  for (TxnId id : cycle) parts.push_back(StrCat("T", id));
  return StrCat("NOT serializable; cycle: ", Join(parts, " -> "));
}

SerializabilityResult CheckTraceSerializable(
    const std::vector<TraceEvent>& events) {
  SerializabilityResult result;
  // txn id -> committed incarnation.
  std::unordered_map<TxnId, int> committed;
  for (const TraceEvent& e : events) {
    if (e.type == TraceEventType::kCommit) committed[e.txn] = e.incarnation;
  }

  // Indices of the committed accesses per file, in time order.
  std::map<FileId, std::vector<size_t>> per_file;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.type != TraceEventType::kDataAccess) continue;
    auto it = committed.find(e.txn);
    if (it == committed.end() || it->second != e.incarnation) continue;
    per_file[e.file].push_back(i);
  }

  std::unordered_map<TxnId, std::unordered_set<TxnId>> adj;
  for (auto& [file, accesses] : per_file) {
    (void)file;
    std::sort(accesses.begin(), accesses.end(), [&](size_t a, size_t b) {
      if (events[a].time != events[b].time) {
        return events[a].time < events[b].time;
      }
      return a < b;
    });
    for (size_t i = 0; i < accesses.size(); ++i) {
      for (size_t j = i + 1; j < accesses.size(); ++j) {
        const TraceEvent& a = events[accesses[i]];
        const TraceEvent& b = events[accesses[j]];
        if (a.txn == b.txn) continue;
        if (Conflicts(a.mode, b.mode)) adj[a.txn].insert(b.txn);
      }
    }
  }

  std::unordered_map<TxnId, Color> color;
  std::vector<TxnId> stack;
  for (const auto& [txn, incarnation] : committed) {
    (void)incarnation;
    Color c = color.count(txn) ? color[txn] : Color::kWhite;
    if (c == Color::kWhite &&
        FindCycle(txn, adj, &color, &stack, &result.cycle)) {
      result.serializable = false;
      return result;
    }
  }
  result.serializable = true;
  return result;
}

std::string IncompleteHistoryNote(size_t kept, uint64_t dropped,
                                  bool footer_seen) {
  if (dropped > 0) {
    const uint64_t recorded = kept + dropped;
    return StrCat("inconclusive (", dropped, " of ", recorded,
                  " events dropped; rerun with --trace-capacity=", recorded,
                  ")");
  }
  if (!footer_seen) {
    return StrCat("inconclusive (no end footer after ", kept,
                  " events; the trace file is cut short)");
  }
  return "";
}

HistoryCheck CheckRecordedHistory(const std::vector<TraceEvent>& events,
                                  uint64_t dropped, bool footer_seen) {
  HistoryCheck check;
  check.text = IncompleteHistoryNote(events.size(), dropped, footer_seen);
  if (!check.text.empty()) {
    check.exit_code = 3;
    return check;
  }
  const SerializabilityResult result = CheckTraceSerializable(events);
  check.text = result.ToString();
  check.exit_code = result.serializable ? 0 : 1;
  return check;
}

HistoryCheck CheckRecordedHistory(const TraceRecorder& trace) {
  return CheckRecordedHistory(trace.Snapshot(), trace.dropped());
}

}  // namespace wtpgsched
