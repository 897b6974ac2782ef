// Indegree / ready-set utilities for list schedulers.
//
// A list scheduler repeatedly asks "which nodes have every predecessor
// finished?". Rescanning all pending nodes each round costs O(V^2 * deg)
// over a whole schedule; ReadyTracker answers it incrementally: snapshot
// the indegrees once, then each complete() decrements the counters of the
// node's successors and hands back exactly the nodes that just became
// ready — O(V + E) total across the run.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/digraph.hpp"
#include "util/error.hpp"

namespace pdr::graph {

/// Indegree of every node, indexed by NodeId.
template <typename V, typename E>
std::vector<std::size_t> indegree_counts(const Digraph<V, E>& g) {
  std::vector<std::size_t> indeg(g.node_count(), 0);
  for (NodeId n = 0; n < indeg.size(); ++n) indeg[n] = g.in_degree(n);
  return indeg;
}

/// Incremental ready-set over a DAG snapshot. Construction captures
/// indegrees and successor lists (flattened CSR — one allocation, not one
/// vector per node); complete(n) returns the successors whose last
/// outstanding predecessor was n. Completing every node exactly once
/// visits each edge exactly once; completing a node twice is a checked
/// error, since the second completion would decrement successor indegrees
/// again and surface nodes as ready before their real predecessors
/// finished.
class ReadyTracker {
 public:
  template <typename V, typename E>
  explicit ReadyTracker(const Digraph<V, E>& g) {
    // Indegrees and the successor CSR come from two sequential edge
    // scans instead of a per-node adjacency chase. Per-node out-lists
    // hold ascending edge ids, so scanning edges in id order fills each
    // CSR row in exactly the order for_each_successor would visit.
    const std::size_t cap = g.node_count();
    indeg_.assign(cap, 0);
    completed_.assign(cap, 0);
    succ_offset_.assign(cap + 1, 0);
    g.for_each_edge([&](EdgeId, NodeId from, NodeId to) {
      ++indeg_[to];
      ++succ_offset_[from + 1];
    });
    for (std::size_t n = 0; n < cap; ++n) succ_offset_[n + 1] += succ_offset_[n];
    succ_.resize(succ_offset_[cap]);
    std::vector<std::size_t> cursor(succ_offset_.begin(), succ_offset_.end() - 1);
    g.for_each_edge([&](EdgeId, NodeId from, NodeId to) { succ_[cursor[from]++] = to; });
    for (NodeId n = 0; n < cap; ++n)
      if (indeg_[n] == 0) initial_.push_back(n);
    remaining_ = total_ = cap;
  }

  /// Nodes ready before any completion (indegree 0), in id order.
  const std::vector<NodeId>& initial() const { return initial_; }

  /// Marks `n` complete, appending the successors that just became ready
  /// to `newly_ready` (not cleared — callers reuse one buffer across the
  /// run to stay allocation-free). Each node must be completed exactly
  /// once; a double complete is a PDR_CHECK failure.
  void complete(NodeId n, std::vector<NodeId>& newly_ready) {
    PDR_CHECK(n < indeg_.size(), "ReadyTracker::complete", "node does not exist");
    PDR_CHECK(remaining_ > 0, "ReadyTracker::complete", "all nodes already completed");
    PDR_CHECK(!completed_[n], "ReadyTracker::complete", "node completed twice");
    completed_[n] = 1;
    --remaining_;
    for (std::size_t i = succ_offset_[n]; i < succ_offset_[n + 1]; ++i) {
      const NodeId s = succ_[i];
      PDR_CHECK(indeg_[s] > 0, "ReadyTracker::complete",
                "successor completed before its predecessor");
      if (--indeg_[s] == 0) newly_ready.push_back(s);
    }
  }

  /// Marks `n` complete; returns the successors that just became ready.
  std::vector<NodeId> complete(NodeId n) {
    std::vector<NodeId> newly_ready;
    complete(n, newly_ready);
    return newly_ready;
  }

  /// True once `n` has been completed.
  bool is_completed(NodeId n) const { return n < completed_.size() && completed_[n] != 0; }

  /// Per-node "distance to sink" over the snapshot — the same values as
  /// Digraph::critical_path_remainder (max over identical successor sets
  /// is permutation-independent), computed from the tracker's flattened
  /// CSR so a scheduler that already built a tracker pays no second
  /// adjacency chase. Requires a pristine tracker: the counters must
  /// still hold the snapshot indegrees, so call before any complete().
  template <typename Weight>
  std::vector<double> critical_path_remainder(const Weight& weight) const {
    PDR_CHECK(remaining_ == total_, "ReadyTracker::critical_path_remainder",
              "tracker already partially consumed");
    std::vector<std::size_t> indeg(indeg_);
    std::vector<NodeId> order;
    order.reserve(total_);
    order.insert(order.end(), initial_.begin(), initial_.end());
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId n = order[head];
      for (std::size_t i = succ_offset_[n]; i < succ_offset_[n + 1]; ++i)
        if (--indeg[succ_[i]] == 0) order.push_back(succ_[i]);
    }
    PDR_CHECK(order.size() == total_, "ReadyTracker::critical_path_remainder",
              "graph has a cycle");
    std::vector<double> dist(indeg_.size(), 0.0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId n = *it;
      double best = 0.0;
      for (std::size_t i = succ_offset_[n]; i < succ_offset_[n + 1]; ++i)
        best = std::max(best, dist[succ_[i]]);
      dist[n] = weight(n) + best;
    }
    return dist;
  }

  /// Nodes not yet completed.
  std::size_t remaining() const { return remaining_; }
  bool done() const { return remaining_ == 0; }

 private:
  std::vector<std::size_t> indeg_;
  std::vector<char> completed_;
  std::vector<std::size_t> succ_offset_;  ///< CSR row offsets into succ_
  std::vector<NodeId> succ_;              ///< flattened successor lists
  std::vector<NodeId> initial_;
  std::size_t remaining_ = 0;
  std::size_t total_ = 0;  ///< nodes in the snapshot
};

}  // namespace pdr::graph
