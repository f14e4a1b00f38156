#include "wtpg/reference_wtpg.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace wtpgsched {

bool CopyTryOrient(Wtpg* g, TxnId from, TxnId to) {
  const Wtpg::Edge* e = g->FindEdge(from, to);
  WTPG_CHECK(e != nullptr) << "CopyTryOrient on nonexistent edge";
  if (e->oriented) return e->from == from;
  // A failed closure must leave *g untouched: work on a copy.
  if (g->WouldCycle(from, {to})) return false;
  Wtpg copy = *g;
  if (!copy.OrientBatchNoRollback(from, {to})) return false;
  *g = std::move(copy);
  return true;
}

bool CopyCanOrient(const Wtpg& g, TxnId from, TxnId to) {
  const Wtpg::Edge* e = g.FindEdge(from, to);
  if (e == nullptr) return false;
  if (e->oriented) return e->from == from;
  Wtpg copy = g;
  return copy.OrientBatchNoRollback(from, {to});
}

double CopyEvaluateGrant(const Wtpg& g, TxnId grantee,
                         const std::vector<TxnId>& orient_to) {
  Wtpg copy = g;
  if (!copy.OrientBatchNoRollback(grantee, orient_to)) return kInfiniteCost;
  return copy.CriticalPath();
}

namespace {

std::pair<TxnId, TxnId> Key(TxnId a, TxnId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

void NaiveWtpg::AddNode(TxnId id, double remaining) {
  WTPG_CHECK(remaining_.emplace(id, remaining).second) << "T" << id;
}

void NaiveWtpg::AddConflictEdge(TxnId a, TxnId b, double weight_ab,
                                double weight_ba) {
  Edge edge;
  edge.weight_ab = a < b ? weight_ab : weight_ba;
  edge.weight_ba = a < b ? weight_ba : weight_ab;
  WTPG_CHECK(edges_.emplace(Key(a, b), edge).second);
}

void NaiveWtpg::RemoveNode(TxnId id) {
  remaining_.erase(id);
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->first.first == id || it->first.second == id) {
      it = edges_.erase(it);
    } else {
      ++it;
    }
  }
}

bool NaiveWtpg::HasPath(TxnId from, TxnId to) const {
  std::map<TxnId, std::vector<TxnId>> out;
  for (const auto& [key, edge] : edges_) {
    if (!edge.oriented) continue;
    const TxnId head = edge.from == key.first ? key.second : key.first;
    out[edge.from].push_back(head);
  }
  std::vector<TxnId> stack = {from};
  std::map<TxnId, bool> seen = {{from, true}};
  while (!stack.empty()) {
    const TxnId cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    for (TxnId next : out[cur]) {
      if (!seen[next]) {
        seen[next] = true;
        stack.push_back(next);
      }
    }
  }
  return false;
}

bool NaiveWtpg::WouldCycle(TxnId from,
                           const std::vector<TxnId>& targets) const {
  for (TxnId u : targets) {
    if (HasPath(u, from)) return true;  // Includes u == from.
  }
  return false;
}

void NaiveWtpg::SetOriented(TxnId from, TxnId to, bool oriented) {
  Edge& edge = edges_.at(Key(from, to));
  edge.oriented = oriented;
  edge.from = oriented ? from : kInvalidTxn;
}

bool NaiveWtpg::Orient(TxnId from, const std::vector<TxnId>& targets,
                       std::vector<std::pair<TxnId, TxnId>>* marked) {
  const size_t first = marked->size();
  for (TxnId u : targets) {
    if (HasPath(u, from)) return false;
    auto it = edges_.find(Key(from, u));
    if (it == edges_.end()) {
      WTPG_CHECK(sparse_) << "no edge T" << from << "-T" << u;
      it = edges_.emplace(Key(from, u), Edge{}).first;
    }
    if (it->second.oriented) continue;  // Already from -> u.
    SetOriented(from, u, true);
    marked->emplace_back(from, u);
  }
  if (sparse_ || marked->size() == first) return true;
  // Forced transitive closure, to a fixpoint.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [key, edge] : edges_) {
      if (edge.oriented) continue;
      const auto [x, y] = key;
      const bool xy = HasPath(x, y);
      const bool yx = HasPath(y, x);
      WTPG_CHECK(!(xy && yx)) << "forced closure met a cycle";
      if (!xy && !yx) continue;
      const TxnId tail = xy ? x : y;
      const TxnId head = xy ? y : x;
      SetOriented(tail, head, true);
      marked->emplace_back(tail, head);
      changed = true;
    }
  }
  return true;
}

void NaiveWtpg::Unorient(const std::vector<std::pair<TxnId, TxnId>>& marked) {
  for (const auto& [from, to] : marked) SetOriented(from, to, false);
}

bool NaiveWtpg::OrientBatch(TxnId from, const std::vector<TxnId>& targets) {
  std::vector<std::pair<TxnId, TxnId>> marked;
  if (Orient(from, targets, &marked)) return true;
  Unorient(marked);
  return false;
}

bool NaiveWtpg::OrientBatchNoRollback(TxnId from,
                                      const std::vector<TxnId>& targets) {
  std::vector<std::pair<TxnId, TxnId>> marked;
  return Orient(from, targets, &marked);
}

bool NaiveWtpg::SpeculateBatch(TxnId from, const std::vector<TxnId>& targets) {
  std::vector<std::pair<TxnId, TxnId>> marked;
  const bool ok = Orient(from, targets, &marked);
  Unorient(marked);
  return ok;
}

void NaiveWtpg::ForceOrientSparse(TxnId from, TxnId to) {
  WTPG_CHECK(sparse_);
  Edge& edge = edges_[Key(from, to)];
  if (edge.oriented) {
    WTPG_CHECK(edge.from == from);
    return;
  }
  SetOriented(from, to, true);
}

double NaiveWtpg::CriticalPath() const {
  std::map<TxnId, std::vector<std::pair<TxnId, double>>> in;
  for (const auto& [key, edge] : edges_) {
    if (!edge.oriented) continue;
    const bool ab = edge.from == key.first;
    in[ab ? key.second : key.first].emplace_back(
        edge.from, ab ? edge.weight_ab : edge.weight_ba);
  }
  std::map<TxnId, double> dist;
  const std::function<double(TxnId)> eval = [&](TxnId v) {
    const auto memo = dist.find(v);
    if (memo != dist.end()) return memo->second;
    double best = remaining_.at(v);
    for (const auto& [u, w] : in[v]) best = std::max(best, eval(u) + w);
    dist[v] = best;
    return best;
  };
  double critical = 0.0;
  for (const auto& [id, remaining] : remaining_) {
    critical = std::max(critical, eval(id));
  }
  return critical;
}

double NaiveWtpg::EvaluateGrant(TxnId grantee,
                                const std::vector<TxnId>& targets) {
  std::vector<std::pair<TxnId, TxnId>> marked;
  const bool ok = Orient(grantee, targets, &marked);
  const double critical = ok ? CriticalPath() : kInfiniteCost;
  Unorient(marked);
  return critical;
}

::testing::AssertionResult SameGraph(const Wtpg& g, const NaiveWtpg& naive) {
  std::vector<TxnId> ids;
  for (const auto& [id, remaining] : naive.nodes()) {
    ids.push_back(id);
    if (g.HasNode(id) && g.remaining(id) != remaining) {
      return ::testing::AssertionFailure() << "remaining(T" << id << ")";
    }
  }
  if (g.Nodes() != ids) return ::testing::AssertionFailure() << "node sets";
  if (g.num_edges() != naive.edges().size()) {
    return ::testing::AssertionFailure()
           << g.num_edges() << " edges vs " << naive.edges().size();
  }
  for (const auto& [key, edge] : naive.edges()) {
    const Wtpg::Edge* e = g.FindEdge(key.first, key.second);
    if (e == nullptr) {
      return ::testing::AssertionFailure()
             << "missing edge T" << key.first << "-T" << key.second;
    }
    if (e->a != key.first || e->b != key.second ||
        e->weight_ab != edge.weight_ab || e->weight_ba != edge.weight_ba ||
        e->oriented != edge.oriented || e->from != edge.from) {
      return ::testing::AssertionFailure()
             << "edge T" << key.first << "-T" << key.second << ": oriented "
             << e->oriented << " from T" << e->from << ", expected "
             << edge.oriented << " from T" << edge.from;
    }
  }
  const double critical = g.CriticalPath();
  if (critical != naive.CriticalPath()) {
    return ::testing::AssertionFailure()
           << "critical path " << critical << " vs " << naive.CriticalPath();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace wtpgsched
