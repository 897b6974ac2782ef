// Generic directed graph with typed vertex and edge payloads.
//
// Both AAA graphs (the data-flow algorithm graph and the architecture
// graph) are instances of Digraph. Vertices and edges are addressed by
// dense integer ids 0..count-1 that stay valid for the life of the graph:
// nodes and edges are only ever added.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace pdr::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

template <typename V, typename E>
class Digraph {
 public:
  struct Node {
    V value;
    std::vector<EdgeId> out;
    std::vector<EdgeId> in;
  };
  struct Edge {
    E value;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
  };

  NodeId add_node(V value) {
    nodes_.push_back(Node{std::move(value), {}, {}});
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  EdgeId add_edge(NodeId from, NodeId to, E value) {
    PDR_CHECK(valid(from) && valid(to), "Digraph::add_edge", "endpoint does not exist");
    edges_.push_back(Edge{std::move(value), from, to});
    const auto id = static_cast<EdgeId>(edges_.size() - 1);
    nodes_[from].out.push_back(id);
    nodes_[to].in.push_back(id);
    return id;
  }

  bool valid(NodeId n) const { return n < nodes_.size(); }
  bool valid_edge(EdgeId e) const { return e < edges_.size(); }

  V& operator[](NodeId n) {
    PDR_CHECK(valid(n), "Digraph", "node does not exist");
    return nodes_[n].value;
  }
  const V& operator[](NodeId n) const {
    PDR_CHECK(valid(n), "Digraph", "node does not exist");
    return nodes_[n].value;
  }
  E& edge(EdgeId e) {
    PDR_CHECK(valid_edge(e), "Digraph", "edge does not exist");
    return edges_[e].value;
  }
  const E& edge(EdgeId e) const {
    PDR_CHECK(valid_edge(e), "Digraph", "edge does not exist");
    return edges_[e].value;
  }

  NodeId edge_from(EdgeId e) const {
    PDR_CHECK(valid_edge(e), "Digraph", "edge does not exist");
    return edges_[e].from;
  }
  NodeId edge_to(EdgeId e) const {
    PDR_CHECK(valid_edge(e), "Digraph", "edge does not exist");
    return edges_[e].to;
  }

  /// Out-edges of n, in ascending id order.
  const std::vector<EdgeId>& out_edges(NodeId n) const { return nodes_.at(n).out; }
  /// In-edges of n, in ascending id order.
  const std::vector<EdgeId>& in_edges(NodeId n) const { return nodes_.at(n).in; }

  // Allocation-free adjacency iteration for scheduler inner loops.
  template <typename F>
  void for_each_in_edge(NodeId n, F&& f) const {
    for (EdgeId e : nodes_.at(n).in) f(e);
  }
  /// Visits successor node ids (duplicates if parallel edges exist).
  template <typename F>
  void for_each_successor(NodeId n, F&& f) const {
    for (EdgeId e : nodes_.at(n).out) f(edges_[e].to);
  }
  template <typename F>
  void for_each_predecessor(NodeId n, F&& f) const {
    for (EdgeId e : nodes_.at(n).in) f(edges_[e].from);
  }

  /// Visits every edge as (id, from, to) in edge-id order — one
  /// sequential pass over edge storage. Per-node adjacency lists hold
  /// ascending edge ids, so grouping this stream by endpoint reproduces
  /// exactly the order the per-node visitors produce; bulk builders
  /// (indegree tables, CSR flattening) use it to avoid chasing a random
  /// list per node.
  template <typename F>
  void for_each_edge(F&& f) const {
    for (EdgeId e = 0; e < edges_.size(); ++e) f(e, edges_[e].from, edges_[e].to);
  }

  /// Visits every node as (id, value) in id order — one sequential pass
  /// over node storage, without the per-access check that operator[]
  /// performs. Bulk builders use it to snapshot value-pointer tables for
  /// scheduler inner loops.
  template <typename F>
  void for_each_node(F&& f) const {
    for (NodeId n = 0; n < nodes_.size(); ++n) f(n, nodes_[n].value);
  }

  std::size_t in_degree(NodeId n) const { return nodes_.at(n).in.size(); }
  std::size_t out_degree(NodeId n) const { return nodes_.at(n).out.size(); }

  /// Successor node ids of n (with duplicates if parallel edges exist).
  std::vector<NodeId> successors(NodeId n) const {
    std::vector<NodeId> out;
    out.reserve(nodes_.at(n).out.size());
    for_each_successor(n, [&](NodeId s) { out.push_back(s); });
    return out;
  }
  std::vector<NodeId> predecessors(NodeId n) const {
    std::vector<NodeId> out;
    out.reserve(nodes_.at(n).in.size());
    for_each_predecessor(n, [&](NodeId p) { out.push_back(p); });
    return out;
  }

  /// Node count: also the bound for dense NodeId-indexed side tables.
  std::size_t node_count() const { return nodes_.size(); }
  /// Edge count: also the bound for dense EdgeId-indexed side tables.
  std::size_t edge_count() const { return edges_.size(); }

  /// All node ids in insertion order.
  std::vector<NodeId> node_ids() const {
    std::vector<NodeId> out(nodes_.size());
    std::iota(out.begin(), out.end(), NodeId{0});
    return out;
  }
  std::vector<EdgeId> edge_ids() const {
    std::vector<EdgeId> out(edges_.size());
    std::iota(out.begin(), out.end(), EdgeId{0});
    return out;
  }

  /// Kahn topological order; empty optional if the graph has a cycle.
  std::optional<std::vector<NodeId>> topological_order() const {
    // Indegrees from one sequential edge scan, not a list chase per node.
    std::vector<std::size_t> indeg(nodes_.size(), 0);
    for_each_edge([&](EdgeId, NodeId, NodeId to) { ++indeg[to]; });
    std::vector<NodeId> ready;
    for (NodeId n = 0; n < nodes_.size(); ++n)
      if (indeg[n] == 0) ready.push_back(n);
    std::vector<NodeId> order;
    order.reserve(nodes_.size());
    for (std::size_t head = 0; head < ready.size(); ++head) {
      const NodeId n = ready[head];
      order.push_back(n);
      for_each_successor(n, [&](NodeId s) {
        if (--indeg[s] == 0) ready.push_back(s);
      });
    }
    if (order.size() != nodes_.size()) return std::nullopt;
    return order;
  }

  bool is_acyclic() const { return topological_order().has_value(); }

  /// Longest path length with per-node weights; requires acyclic graph.
  /// Returns per-node "distance to sink" (node weight included), i.e. the
  /// critical-path remainder used by list schedulers. `weight` is any
  /// NodeId -> double callable, invoked once per node (statically
  /// dispatched — a million-node graph pays no std::function indirection).
  template <typename Weight>
  std::vector<double> critical_path_remainder(const Weight& weight) const {
    auto order = topological_order();
    PDR_CHECK(order.has_value(), "Digraph::critical_path_remainder", "graph has a cycle");
    std::vector<double> dist(nodes_.size(), 0.0);
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
      const NodeId n = *it;
      double best = 0.0;
      for_each_successor(n, [&](NodeId s) { best = std::max(best, dist[s]); });
      dist[n] = weight(n) + best;
    }
    return dist;
  }

  /// All nodes reachable from n (excluding n itself unless on a cycle).
  std::vector<NodeId> reachable_from(NodeId n) const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<NodeId> stack{n};
    std::vector<NodeId> out;
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      for_each_successor(cur, [&](NodeId s) {
        if (!seen[s]) {
          seen[s] = true;
          out.push_back(s);
          stack.push_back(s);
        }
      });
    }
    return out;
  }

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace pdr::graph
