// Differential testing of the journal-based in-place speculation against the
// copy-based reference (tests/wtpg/reference_wtpg.h): random conflict graphs
// driven through random orientation / evaluation / mutation sequences must
// produce identical decisions and identical graphs at every step, and a
// failed OrientBatch must roll back byte-identically.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "wtpg/reference_wtpg.h"
#include "wtpg/wtpg.h"

namespace wtpgsched {
namespace {

// Full observable state comparison: nodes, weights, every edge field, and
// the adjacency vectors *in order* (rollback must restore insertion order,
// not just set equality).
void ExpectSameGraph(const Wtpg& a, const Wtpg& b) {
  ASSERT_EQ(a.Nodes(), b.Nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (TxnId id : a.Nodes()) {
    EXPECT_DOUBLE_EQ(a.remaining(id), b.remaining(id)) << "T" << id;
    EXPECT_EQ(a.Neighbors(id), b.Neighbors(id)) << "T" << id;
    EXPECT_EQ(a.OutNeighbors(id), b.OutNeighbors(id)) << "T" << id;
    EXPECT_EQ(a.InNeighbors(id), b.InNeighbors(id)) << "T" << id;
    for (TxnId nb : a.Neighbors(id)) {
      const Wtpg::Edge* ea = a.FindEdge(id, nb);
      const Wtpg::Edge* eb = b.FindEdge(id, nb);
      ASSERT_NE(ea, nullptr);
      ASSERT_NE(eb, nullptr);
      EXPECT_EQ(ea->a, eb->a);
      EXPECT_EQ(ea->b, eb->b);
      EXPECT_DOUBLE_EQ(ea->weight_ab, eb->weight_ab);
      EXPECT_DOUBLE_EQ(ea->weight_ba, eb->weight_ba);
      EXPECT_EQ(ea->oriented, eb->oriented);
      EXPECT_EQ(ea->from, eb->from);
    }
  }
  EXPECT_EQ(a.UnorientedEdges(), b.UnorientedEdges());
}

// Builds the same random conflict graph into both implementations.
void BuildRandomPair(Rng* rng, int n, double edge_prob, Wtpg* journal,
                     Wtpg* reference) {
  for (int i = 1; i <= n; ++i) {
    const double remaining = rng->UniformReal(0.0, 10.0);
    journal->AddNode(i, remaining);
    reference->AddNode(i, remaining);
  }
  for (int a = 1; a <= n; ++a) {
    for (int b = a + 1; b <= n; ++b) {
      if (rng->NextDouble() >= edge_prob) continue;
      const double wab = rng->UniformReal(0.0, 10.0);
      const double wba = rng->UniformReal(0.0, 10.0);
      journal->AddConflictEdge(a, b, wab, wba);
      reference->AddConflictEdge(a, b, wab, wba);
    }
  }
}

TEST(SpeculationDiffTest, RandomSequencesMatchReference) {
  // Acceptance floor: >= 1000 randomized sequences.
  constexpr int kSequences = 1000;
  constexpr int kOpsPerSequence = 24;
  Rng rng(20260806);
  for (int seq = 0; seq < kSequences; ++seq) {
    // Both are production graphs: journal_graph speculates in place,
    // reference_graph answers every speculation on a clone.
    Wtpg journal_graph;
    Wtpg reference_graph;
    const int n = static_cast<int>(rng.UniformInt(2, 10));
    BuildRandomPair(&rng, n, /*edge_prob=*/0.45, &journal_graph,
                    &reference_graph);
    TxnId next_id = n + 1;
    for (int op = 0; op < kOpsPerSequence; ++op) {
      const std::vector<TxnId> nodes = journal_graph.Nodes();
      if (nodes.empty()) break;
      const TxnId u =
          nodes[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int>(nodes.size()) - 1))];
      switch (rng.UniformInt(0, 9)) {
        case 0:
        case 1:
        case 2: {  // TryOrient on a random incident edge.
          const std::vector<TxnId> nbs = journal_graph.Neighbors(u);
          if (nbs.empty()) break;
          const TxnId v = nbs[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int>(nbs.size()) - 1))];
          const bool flip = rng.NextDouble() < 0.5;
          const TxnId from = flip ? v : u;
          const TxnId to = flip ? u : v;
          ASSERT_EQ(journal_graph.TryOrient(from, to),
                    CopyTryOrient(&reference_graph, from, to))
              << "seq " << seq << " op " << op;
          break;
        }
        case 3:
        case 4: {  // CanOrient (must not mutate either graph).
          const std::vector<TxnId> nbs = journal_graph.Neighbors(u);
          if (nbs.empty()) break;
          const TxnId v = nbs[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int>(nbs.size()) - 1))];
          ASSERT_EQ(journal_graph.CanOrient(u, v),
                    CopyCanOrient(reference_graph, u, v))
              << "seq " << seq << " op " << op;
          break;
        }
        case 5:
        case 6: {  // EvaluateGrant against every unoriented neighbor.
          std::vector<TxnId> targets;
          for (TxnId nb : journal_graph.Neighbors(u)) {
            const Wtpg::Edge* e = journal_graph.FindEdge(u, nb);
            if (!e->oriented && rng.NextDouble() < 0.8) {
              targets.push_back(nb);
            }
          }
          const double ej = EvaluateGrant(journal_graph, u, targets);
          const double er = CopyEvaluateGrant(reference_graph, u, targets);
          if (std::isinf(ej) || std::isinf(er)) {
            ASSERT_EQ(std::isinf(ej), std::isinf(er))
                << "seq " << seq << " op " << op;
          } else {
            ASSERT_DOUBLE_EQ(ej, er) << "seq " << seq << " op " << op;
          }
          break;
        }
        case 7: {  // SetRemaining (invalidates memoized distances).
          const double remaining = rng.UniformReal(0.0, 10.0);
          journal_graph.SetRemaining(u, remaining);
          reference_graph.SetRemaining(u, remaining);
          break;
        }
        case 8: {  // Commit: remove the node.
          if (journal_graph.num_nodes() <= 2) break;
          journal_graph.RemoveNode(u);
          reference_graph.RemoveNode(u);
          break;
        }
        case 9: {  // Arrival: new node conflicting with a random subset.
          const double remaining = rng.UniformReal(0.0, 10.0);
          journal_graph.AddNode(next_id, remaining);
          reference_graph.AddNode(next_id, remaining);
          for (TxnId other : nodes) {
            if (rng.NextDouble() >= 0.3) continue;
            const double wab = rng.UniformReal(0.0, 10.0);
            const double wba = rng.UniformReal(0.0, 10.0);
            journal_graph.AddConflictEdge(next_id, other, wab, wba);
            reference_graph.AddConflictEdge(next_id, other, wab, wba);
          }
          ++next_id;
          break;
        }
      }
      ASSERT_DOUBLE_EQ(journal_graph.CriticalPath(),
                       reference_graph.CriticalPath())
          << "seq " << seq << " op " << op;
      ASSERT_TRUE(journal_graph.CheckInvariants())
          << "seq " << seq << " op " << op;
      ASSERT_TRUE(reference_graph.CheckInvariants())
          << "seq " << seq << " op " << op;
      ExpectSameGraph(journal_graph, reference_graph);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SpeculationDiffTest, FailedOrientBatchRollsBackByteIdentical) {
  // Closure-failure regression: 1 -> 2 -> 3 is fixed, so a batch from 3
  // that also targets 4 marks 3 -> 4 before the closure discovers the
  // 3 -> 1 cycle. The rollback must undo the partial marks exactly.
  Wtpg g;
  for (TxnId id : {1, 2, 3, 4}) g.AddNode(id, 1.0);
  g.AddConflictEdge(1, 2, 1.0, 1.0);
  g.AddConflictEdge(2, 3, 1.0, 1.0);
  g.AddConflictEdge(1, 3, 2.0, 2.0);
  g.AddConflictEdge(3, 4, 3.0, 3.0);
  ASSERT_TRUE(g.TryOrient(1, 2));
  ASSERT_TRUE(g.TryOrient(2, 3));  // Closure forces 1 -> 3.
  ASSERT_TRUE(g.IsOriented(1, 3));
  // Warm the memoized distances so rollback must also restore them.
  const double critical_before = g.CriticalPath();
  const Wtpg snapshot = g;

  Wtpg::OrientJournal journal;
  EXPECT_FALSE(g.OrientBatch(3, {4, 1}, &journal));
  EXPECT_TRUE(journal.empty()) << "failed batch must clean its journal";
  ExpectSameGraph(g, snapshot);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), critical_before);
  EXPECT_TRUE(g.CheckInvariants());

  // And a successful batch explicitly rolled back restores it too.
  EXPECT_TRUE(g.OrientBatch(3, {4}, &journal));
  EXPECT_TRUE(g.IsOriented(3, 4));
  EXPECT_GT(journal.size(), 0u);
  g.Rollback(&journal);
  EXPECT_TRUE(journal.empty());
  ExpectSameGraph(g, snapshot);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), critical_before);
  EXPECT_TRUE(g.CheckInvariants());
}

TEST(SpeculationDiffTest, EvaluateGrantLeavesGraphUntouched) {
  Wtpg g;
  for (TxnId id : {1, 2, 3}) g.AddNode(id, 2.0);
  g.AddConflictEdge(1, 2, 1.0, 4.0);
  g.AddConflictEdge(2, 3, 2.0, 5.0);
  const double critical_before = g.CriticalPath();
  const Wtpg snapshot = g;
  // Orients 2 -> 1 (weight w(2->1) = 4) and 2 -> 3 (weight 2): the longest
  // path is T0 -> 2 -> 1 = 2 + 4.
  EXPECT_DOUBLE_EQ(EvaluateGrant(g, 2, {1, 3}), 6.0);
  ExpectSameGraph(g, snapshot);
  EXPECT_DOUBLE_EQ(g.CriticalPath(), critical_before);
  EXPECT_TRUE(g.CheckInvariants());
}

}  // namespace
}  // namespace wtpgsched
