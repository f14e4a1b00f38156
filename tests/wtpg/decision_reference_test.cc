// Differential testing of the production Wtpg's decision paths — the
// probe-cached WouldCycle, the incremental-closure OrientBatch, journal
// speculation and the memoized critical path — against NaiveWtpg
// (tests/wtpg/reference_wtpg.h), a model of the WTPG by its definition that
// shares no code with the production class. Random conflict graphs are
// driven through random orientation / probe / speculation / mutation
// sequences; every verdict and every observable fact of the graph must
// agree at every step, in dense mode and in sparse precedence mode.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

void BuildRandomPair(Rng* rng, int n, double edge_prob, Wtpg* fast,
                     NaiveWtpg* reference) {
  for (int i = 1; i <= n; ++i) {
    const double remaining = rng->UniformReal(0.0, 10.0);
    fast->AddNode(i, remaining);
    reference->AddNode(i, remaining);
  }
  for (int a = 1; a <= n; ++a) {
    for (int b = a + 1; b <= n; ++b) {
      if (rng->NextDouble() >= edge_prob) continue;
      const double wab = rng->UniformReal(0.0, 10.0);
      const double wba = rng->UniformReal(0.0, 10.0);
      fast->AddConflictEdge(a, b, wab, wba);
      reference->AddConflictEdge(a, b, wab, wba);
    }
  }
}

// Unoriented-neighbor subset of u — the only target lists the schedulers
// ever pass (pending conflicters share an unoriented conflict edge).
std::vector<TxnId> RandomTargets(Rng* rng, const Wtpg& g, TxnId u) {
  std::vector<TxnId> targets;
  for (TxnId nb : g.Neighbors(u)) {
    const Wtpg::Edge* e = g.FindEdge(u, nb);
    if (!e->oriented && rng->NextDouble() < 0.7) targets.push_back(nb);
  }
  return targets;
}

TEST(DecisionReferenceTest, RandomSequencesMatchReference) {
  // Acceptance floor: >= 1000 randomized sequences.
  constexpr int kSequences = 1000;
  constexpr int kOpsPerSequence = 24;
  Rng rng(20260809);
  for (int seq = 0; seq < kSequences; ++seq) {
    Wtpg fast;
    NaiveWtpg reference;
    const int n = static_cast<int>(rng.UniformInt(2, 10));
    BuildRandomPair(&rng, n, /*edge_prob=*/0.45, &fast, &reference);
    TxnId next_id = n + 1;
    for (int op = 0; op < kOpsPerSequence; ++op) {
      const std::vector<TxnId> nodes = fast.Nodes();
      if (nodes.empty()) break;
      const TxnId u = nodes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(nodes.size()) - 1))];
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1: {  // WouldCycle probe (C2PL's deadlock prediction).
          const std::vector<TxnId> targets = RandomTargets(&rng, fast, u);
          ASSERT_EQ(fast.WouldCycle(u, targets),
                    reference.WouldCycle(u, targets))
              << "seq " << seq << " op " << op;
          // Immediately repeated probe: the fast path answers the second
          // one from the per-slot reverse-reachability cache.
          ASSERT_EQ(fast.WouldCycle(u, targets),
                    reference.WouldCycle(u, targets))
              << "seq " << seq << " op " << op;
          break;
        }
        case 2:
        case 3:
        case 4: {  // OrientBatch, committed (the grant path).
          const std::vector<TxnId> targets = RandomTargets(&rng, fast, u);
          ASSERT_EQ(fast.OrientBatchNoRollback(u, targets),
                    reference.OrientBatchNoRollback(u, targets))
              << "seq " << seq << " op " << op;
          break;
        }
        case 5: {  // OrientBatch speculated and rolled back (GOW's probe).
          const std::vector<TxnId> targets = RandomTargets(&rng, fast, u);
          Wtpg::OrientJournal journal;
          const bool ok = fast.OrientBatch(u, targets, &journal);
          ASSERT_EQ(ok, reference.SpeculateBatch(u, targets))
              << "seq " << seq << " op " << op;
          if (ok) fast.Rollback(&journal);
          break;
        }
        case 6: {  // EvaluateGrant (LOW's E()).
          const std::vector<TxnId> targets = RandomTargets(&rng, fast, u);
          const double ef = EvaluateGrant(fast, u, targets);
          const double er = reference.EvaluateGrant(u, targets);
          if (std::isinf(ef) || std::isinf(er)) {
            ASSERT_EQ(std::isinf(ef), std::isinf(er))
                << "seq " << seq << " op " << op;
          } else {
            ASSERT_DOUBLE_EQ(ef, er) << "seq " << seq << " op " << op;
          }
          break;
        }
        case 7: {  // SetRemaining.
          const double remaining = rng.UniformReal(0.0, 10.0);
          fast.SetRemaining(u, remaining);
          reference.SetRemaining(u, remaining);
          break;
        }
        case 8: {  // Commit: remove the node.
          if (fast.num_nodes() <= 2) break;
          fast.RemoveNode(u);
          reference.RemoveNode(u);
          break;
        }
        case 9: {  // Arrival: new node conflicting with a random subset.
          const double remaining = rng.UniformReal(0.0, 10.0);
          fast.AddNode(next_id, remaining);
          reference.AddNode(next_id, remaining);
          for (TxnId other : nodes) {
            if (rng.NextDouble() >= 0.3) continue;
            const double wab = rng.UniformReal(0.0, 10.0);
            const double wba = rng.UniformReal(0.0, 10.0);
            fast.AddConflictEdge(next_id, other, wab, wba);
            reference.AddConflictEdge(next_id, other, wab, wba);
          }
          ++next_id;
          break;
        }
      }
      ASSERT_TRUE(fast.CheckInvariants()) << "seq " << seq << " op " << op;
      ASSERT_TRUE(SameGraph(fast, reference))
          << "seq " << seq << " op " << op;
    }
  }
}

// Sparse precedence mode (C2PL's production configuration): no conflict
// edges are pre-materialized and the forced closure is skipped; edges
// appear on demand — already oriented — at orientation time. The graph and
// the model must agree on every verdict AND on exactly which edges got
// materialized, including by *failing* batches, which materialize the
// passing prefix of targets before bailing out. Agreement with a model that
// closes nothing checks that skipping the closure changes no reachability
// verdict.
std::vector<TxnId> RandomSparseTargets(Rng* rng,
                                       const std::vector<TxnId>& nodes,
                                       TxnId u) {
  std::vector<TxnId> targets;
  for (TxnId v : nodes) {
    if (v != u && rng->NextDouble() < 0.5) targets.push_back(v);
  }
  return targets;
}

TEST(DecisionReferenceTest, SparseRandomSequencesMatchReference) {
  constexpr int kSequences = 400;
  constexpr int kOpsPerSequence = 24;
  Rng rng(19910810);
  for (int seq = 0; seq < kSequences; ++seq) {
    Wtpg fast;
    NaiveWtpg reference;
    fast.SetSparsePrecedence();
    reference.SetSparsePrecedence();
    const int n = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 1; i <= n; ++i) {
      const double remaining = rng.UniformReal(0.0, 10.0);
      fast.AddNode(i, remaining);
      reference.AddNode(i, remaining);
    }
    TxnId next_id = n + 1;
    for (int op = 0; op < kOpsPerSequence; ++op) {
      const std::vector<TxnId> nodes = fast.Nodes();
      if (nodes.empty()) break;
      const TxnId u = nodes[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(nodes.size()) - 1))];
      switch (rng.UniformInt(0, 7)) {
        case 0:
        case 1: {  // WouldCycle over arbitrary competitors, probed twice.
          const std::vector<TxnId> targets =
              RandomSparseTargets(&rng, nodes, u);
          ASSERT_EQ(fast.WouldCycle(u, targets),
                    reference.WouldCycle(u, targets))
              << "seq " << seq << " op " << op;
          ASSERT_EQ(fast.WouldCycle(u, targets),
                    reference.WouldCycle(u, targets))
              << "seq " << seq << " op " << op;
          break;
        }
        case 2:
        case 3: {  // Orientation kept on success; a failing batch rolls
                   // back its marks but keeps the materialized prefix.
          const std::vector<TxnId> targets =
              RandomSparseTargets(&rng, nodes, u);
          Wtpg::OrientJournal journal;
          ASSERT_EQ(fast.OrientBatch(u, targets, &journal),
                    reference.OrientBatch(u, targets))
              << "seq " << seq << " op " << op;
          break;
        }
        case 4: {  // Speculated orientation, rolled back on success.
          const std::vector<TxnId> targets =
              RandomSparseTargets(&rng, nodes, u);
          Wtpg::OrientJournal journal;
          const bool ok = fast.OrientBatch(u, targets, &journal);
          ASSERT_EQ(ok, reference.SpeculateBatch(u, targets))
              << "seq " << seq << " op " << op;
          if (ok) fast.Rollback(&journal);
          break;
        }
        case 5: {  // The removal-compensation primitive. Callers only
                   // force-orient pairs the dense closure would have
                   // oriented, so the target must not reach the source.
          const TxnId v = nodes[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int>(nodes.size()) - 1))];
          if (v == u || fast.HasPath(v, u)) break;
          fast.ForceOrientSparse(u, v);
          reference.ForceOrientSparse(u, v);
          break;
        }
        case 6: {  // Commit/abort: remove the node.
          if (fast.num_nodes() <= 2) break;
          fast.RemoveNode(u);
          reference.RemoveNode(u);
          break;
        }
        case 7: {  // Arrival: sparse admission materializes nothing.
          const double remaining = rng.UniformReal(0.0, 10.0);
          fast.AddNode(next_id, remaining);
          reference.AddNode(next_id, remaining);
          ++next_id;
          break;
        }
      }
      ASSERT_TRUE(fast.CheckInvariants()) << "seq " << seq << " op " << op;
      ASSERT_TRUE(SameGraph(fast, reference))
          << "seq " << seq << " op " << op;
    }
  }
}

}  // namespace
}  // namespace wtpgsched
