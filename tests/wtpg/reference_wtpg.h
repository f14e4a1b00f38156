#ifndef WTPG_SCHED_TESTS_WTPG_REFERENCE_WTPG_H_
#define WTPG_SCHED_TESTS_WTPG_REFERENCE_WTPG_H_

// Test-only references for the production Wtpg (src/wtpg/wtpg.h). Built
// into wtpg_test only; nothing under src/ links against them.
//
// (a) Copy-based speculation: the clone-and-discard way to answer "what if"
//     questions, through Wtpg's public API. The journal-based in-place
//     speculation (OrientBatch + Rollback) must agree with it exactly.
// (b) NaiveWtpg: an independent model of the WTPG by its definition (paper
//     Section 3.1), sharing no code with the production class. The
//     differential suites drive both with the same operations and compare
//     every verdict and every observable fact of the graph.

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model/types.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {

// (a) Copy-based speculation. CopyTryOrient keeps the clone on success;
// the others read the clone and discard it.
bool CopyTryOrient(Wtpg* g, TxnId from, TxnId to);
bool CopyCanOrient(const Wtpg& g, TxnId from, TxnId to);
double CopyEvaluateGrant(const Wtpg& g, TxnId grantee,
                         const std::vector<TxnId>& orient_to);

// (b) The WTPG by definition. Edges live in a map keyed by the ordered pair
// (a < b); every query walks that map afresh.
//
// OrientBatch(from, targets) checks each target u in order: it fails when
// u is `from` itself or u reaches `from` (orienting from -> u would close a
// cycle); otherwise it orients from -> u, unless that is already the case.
// After a batch that oriented anything, dense mode closes the graph to a
// fixpoint: any unoriented conflict edge (x, y) with a directed path
// x ~> y becomes x -> y. Sparse mode has no pre-materialized conflict
// edges and no closure: a target passing the cycle check gets a zero-weight
// edge materialized on demand, so a failing batch keeps the edges of the
// targets before the one that failed.
class NaiveWtpg {
 public:
  struct Edge {
    double weight_ab = 0.0;  // w(a -> b) for the key (a, b), a < b.
    double weight_ba = 0.0;
    bool oriented = false;
    TxnId from = kInvalidTxn;
  };
  using EdgeMap = std::map<std::pair<TxnId, TxnId>, Edge>;

  void SetSparsePrecedence() { sparse_ = true; }

  void AddNode(TxnId id, double remaining);
  void AddConflictEdge(TxnId a, TxnId b, double weight_ab, double weight_ba);
  void RemoveNode(TxnId id);
  void SetRemaining(TxnId id, double remaining) { remaining_[id] = remaining; }

  bool HasPath(TxnId from, TxnId to) const;
  // Would orienting from -> u for every target close a cycle?
  bool WouldCycle(TxnId from, const std::vector<TxnId>& targets) const;

  // On failure no orientation changes (sparse materializations stay).
  bool OrientBatch(TxnId from, const std::vector<TxnId>& targets);
  // On failure the orientations of the passing prefix stay.
  bool OrientBatchNoRollback(TxnId from, const std::vector<TxnId>& targets);
  // The verdict of OrientBatch, with every orientation undone afterwards.
  bool SpeculateBatch(TxnId from, const std::vector<TxnId>& targets);
  // Sparse mode: orients from -> to, materializing the edge if absent.
  void ForceOrientSparse(TxnId from, TxnId to);

  // Longest T0 -> Tf path over oriented edges, by an uncached DP:
  // dist(v) = max(remaining(v), max over u -> v of dist(u) + w(u -> v)).
  double CriticalPath() const;
  // CriticalPath after OrientBatch(grantee, targets), or kInfiniteCost when
  // the batch fails; the orientations are undone before returning.
  double EvaluateGrant(TxnId grantee, const std::vector<TxnId>& targets);

  // Node id -> remaining declared cost.
  const std::map<TxnId, double>& nodes() const { return remaining_; }
  const EdgeMap& edges() const { return edges_; }

 private:
  // Orients the batch (and the dense closure), appending every newly
  // oriented pair (from, to) to *marked. Stops at the first failing target.
  bool Orient(TxnId from, const std::vector<TxnId>& targets,
              std::vector<std::pair<TxnId, TxnId>>* marked);
  void Unorient(const std::vector<std::pair<TxnId, TxnId>>& marked);
  void SetOriented(TxnId from, TxnId to, bool oriented);

  std::map<TxnId, double> remaining_;
  EdgeMap edges_;
  bool sparse_ = false;
};

// Compares every fact the two graphs share: node set, remaining costs, the
// edge set with weights and orientations, and the critical path.
::testing::AssertionResult SameGraph(const Wtpg& g, const NaiveWtpg& naive);

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TESTS_WTPG_REFERENCE_WTPG_H_
