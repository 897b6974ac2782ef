#include "aaa/algorithm_graph.hpp"

#include <set>

#include "util/error.hpp"

namespace pdr::aaa {

NodeId AlgorithmGraph::add_operation(Operation op) {
  PDR_CHECK(!op.name.empty(), "AlgorithmGraph", "operation name must not be empty");
  PDR_CHECK(!find(op.name).has_value(), "AlgorithmGraph",
            "duplicate operation name '" + op.name + "'");
  std::string name = op.name;
  const NodeId n = g_.add_node(std::move(op));
  index_.emplace(std::move(name), n);
  validated_.clear();
  ++version_;
  return n;
}

NodeId AlgorithmGraph::add_compute(const std::string& name, const std::string& kind,
                                   const synth::Params& params) {
  return add_operation(Operation{name, kind, params, OpClass::Compute, {}});
}

NodeId AlgorithmGraph::add_sensor(const std::string& name, const std::string& kind) {
  return add_operation(Operation{name, kind, {}, OpClass::Sensor, {}});
}

NodeId AlgorithmGraph::add_actuator(const std::string& name, const std::string& kind) {
  return add_operation(Operation{name, kind, {}, OpClass::Actuator, {}});
}

NodeId AlgorithmGraph::add_conditioned(const std::string& name,
                                       std::vector<Alternative> alternatives) {
  PDR_CHECK(alternatives.size() >= 2, "AlgorithmGraph::add_conditioned",
            "conditioned vertex '" + name + "' needs at least 2 alternatives");
  Operation op;
  op.name = name;
  op.kind = alternatives.front().kind;
  op.cls = OpClass::Compute;
  op.alternatives = std::move(alternatives);
  return add_operation(std::move(op));
}

void AlgorithmGraph::add_dependency(NodeId from, NodeId to, Bytes bytes) {
  PDR_CHECK(from != to, "AlgorithmGraph::add_dependency", "self dependency");
  g_.add_edge(from, to, DataDep{bytes});
  validated_.clear();
  ++version_;
}

void AlgorithmGraph::add_dependency(const std::string& from, const std::string& to, Bytes bytes) {
  add_dependency(by_name(from), by_name(to), bytes);
}

NodeId AlgorithmGraph::by_name(const std::string& name) const {
  const auto n = find(name);
  PDR_CHECK(n.has_value(), "AlgorithmGraph::by_name", "no operation named '" + name + "'");
  return *n;
}

std::optional<NodeId> AlgorithmGraph::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void AlgorithmGraph::validate() const {
  if (validated_.test()) return;
  PDR_CHECK(g_.node_count() > 0, "AlgorithmGraph::validate", "graph is empty");
  PDR_CHECK(g_.is_acyclic(), "AlgorithmGraph::validate", "data-flow graph has a cycle");
  for (NodeId n : g_.node_ids()) {
    const Operation& op = g_[n];
    if (op.cls == OpClass::Sensor)
      PDR_CHECK(g_.in_edges(n).empty(), "AlgorithmGraph::validate",
                "sensor '" + op.name + "' has incoming dependencies");
    if (op.cls == OpClass::Actuator)
      PDR_CHECK(g_.out_edges(n).empty(), "AlgorithmGraph::validate",
                "actuator '" + op.name + "' has outgoing dependencies");
    if (op.conditioned()) {
      PDR_CHECK(op.alternatives.size() >= 2, "AlgorithmGraph::validate",
                "conditioned vertex '" + op.name + "' has fewer than 2 alternatives");
      std::set<std::string> names;
      for (const auto& alt : op.alternatives) {
        PDR_CHECK(names.insert(alt.name).second, "AlgorithmGraph::validate",
                  "conditioned vertex '" + op.name + "' repeats alternative '" + alt.name + "'");
      }
    }
  }
  validated_.set();
}

std::string AlgorithmGraph::to_dot() const {
  std::vector<graph::DotNode> nodes;
  std::vector<graph::DotEdge> edges;
  for (NodeId n : g_.node_ids()) {
    const Operation& op = g_[n];
    graph::DotNode dn;
    dn.id = op.name;
    dn.label = op.name + "\\n[" + op.kind + "]";
    if (op.conditioned()) {
      dn.shape = "doubleoctagon";
      dn.label = op.name;
      for (const auto& alt : op.alternatives) dn.label += "\\n" + alt.name;
    } else if (op.cls == OpClass::Sensor) {
      dn.shape = "invtriangle";
    } else if (op.cls == OpClass::Actuator) {
      dn.shape = "triangle";
    }
    nodes.push_back(std::move(dn));
  }
  for (graph::EdgeId e : g_.edge_ids()) {
    graph::DotEdge de;
    de.from = g_[g_.edge_from(e)].name;
    de.to = g_[g_.edge_to(e)].name;
    de.label = std::to_string(g_.edge(e).bytes) + "B";
    edges.push_back(std::move(de));
  }
  return graph::to_dot("algorithm", nodes, edges);
}

}  // namespace pdr::aaa

// Emits every member of the graph template into this library, so that
// tools/check_reachable.py sees the members no shipped binary calls.
template class pdr::graph::Digraph<pdr::aaa::Operation, pdr::aaa::DataDep>;
