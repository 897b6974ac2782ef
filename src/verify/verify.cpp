#include "verify/verify.hpp"

#include <algorithm>
#include <utility>

#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "lint/lint.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::verify {

namespace {

using aaa::ItemKind;
using aaa::ScheduledItem;
using lint::Rule;
using lint::Severity;

constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

std::string span(const aaa::Schedule& s, std::size_t i) {
  return strprintf("'%s' [%lld..%lld ns]", s.label(i).c_str(), static_cast<long long>(s.start(i)),
                   static_cast<long long>(s.end(i)));
}

Violation make_pair_violation(Rule rule, Severity severity, std::string resource,
                              const ScheduledItem& first, const ScheduledItem& second,
                              std::string message, std::string hint) {
  Violation v;
  v.rule = rule;
  v.severity = severity;
  v.resource = std::move(resource);
  v.first = first;
  v.second = second;
  v.pair = true;
  v.message = std::move(message);
  v.hint = std::move(hint);
  return v;
}

Violation make_single_violation(Rule rule, Severity severity, std::string resource,
                                const ScheduledItem& item, std::string message,
                                std::string hint) {
  Violation v;
  v.rule = rule;
  v.severity = severity;
  v.resource = std::move(resource);
  v.first = item;
  v.pair = false;
  v.message = std::move(message);
  v.hint = std::move(hint);
  return v;
}

/// Sweep-line overlap detection over one resource's timeline: sort by
/// start and test each item against the furthest-reaching earlier item.
/// Tracking the max-end item (not merely the previous one) catches
/// overlaps an adjacent-pair scan misses — with A[0,10) B[1,2) C[3,4),
/// B and C each collide with A, never with each other.
template <typename OnOverlap>
void sweep_overlaps(const aaa::Schedule& s, std::vector<std::size_t> items,
                    OnOverlap&& on_overlap) {
  std::stable_sort(items.begin(), items.end(), [&](std::size_t a, std::size_t b) {
    if (s.start(a) != s.start(b)) return s.start(a) < s.start(b);
    return s.end(a) < s.end(b);
  });
  std::size_t reach = kNoItem;
  for (const std::size_t item : items) {
    if (reach != kNoItem && std::max(s.start(reach), s.start(item)) < std::min(s.end(reach), s.end(item)))
      on_overlap(reach, item);
    if (reach == kNoItem || s.end(item) > s.end(reach)) reach = item;
  }
}

/// The constraints-file region name an FpgaRegion operator maps to (the
/// floorplan region when set, the operator name otherwise).
const std::string& constraint_region_name(const aaa::OperatorNode& op) {
  return op.region.empty() ? op.name : op.region;
}

struct Analyzer {
  const aaa::Schedule& schedule;
  const aaa::AlgorithmGraph& algorithm;
  const aaa::ArchitectureGraph& architecture;
  const VerifyOptions& options;
  Certificate cert;

  // Timelines, grouped once up front. Per-resource timelines are direct
  // SymbolId-indexed arrays filled in one pass over the schedule columns —
  // no string-keyed map rebuild. `resources_by_name` lists the occupied
  // symbols in name order, so violations are still emitted in the order
  // the old name-keyed map iterated.
  std::vector<std::vector<std::size_t>> per_resource;  ///< by resource SymbolId
  std::vector<util::SymbolId> resources_by_name;       ///< occupied resources, name-sorted
  std::vector<std::size_t> reconfigs;                  ///< port timeline
  std::vector<std::size_t> compute_of;                 ///< by algorithm NodeId
  std::map<graph::EdgeId, std::vector<std::size_t>> transfers_of;

  const std::vector<std::size_t>* timeline(std::string_view resource) const {
    const util::SymbolId sym = schedule.symbols.find(resource);
    if (sym == util::kNoSymbol || sym >= per_resource.size() || per_resource[sym].empty())
      return nullptr;
    return &per_resource[sym];
  }

  void group() {
    per_resource.assign(schedule.symbols.size(), {});
    compute_of.assign(algorithm.digraph().node_count(), kNoItem);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      per_resource[schedule.resource_sym(i)].push_back(i);
      if (schedule.kind(i) == ItemKind::Reconfig) reconfigs.push_back(i);
      if (schedule.kind(i) == ItemKind::Compute && schedule.op(i) < compute_of.size())
        compute_of[schedule.op(i)] = i;
      if (schedule.kind(i) == ItemKind::Transfer && schedule.edge(i) != graph::kNoEdge)
        transfers_of[schedule.edge(i)].push_back(i);
    }
    for (util::SymbolId sym = 0; sym < per_resource.size(); ++sym)
      if (!per_resource[sym].empty()) resources_by_name.push_back(sym);
    std::sort(resources_by_name.begin(), resources_by_name.end(),
              [&](util::SymbolId a, util::SymbolId b) {
                return schedule.symbols.name(a) < schedule.symbols.name(b);
              });
    for (const util::SymbolId sym : resources_by_name) {
      auto& list = per_resource[sym];
      std::stable_sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
        if (schedule.start(a) != schedule.start(b)) return schedule.start(a) < schedule.start(b);
        return schedule.end(a) < schedule.end(b);
      });
    }
  }

  /// PDR100 / PDR101 / PDR107 on operators, PDR104 on media.
  void check_resource_overlaps() {
    for (const util::SymbolId sym : resources_by_name) {
      const std::string resource(schedule.symbols.name(sym));
      const auto node = architecture.find(resource);
      const bool on_operator = node.has_value() && architecture.is_operator(*node);
      sweep_overlaps(schedule, per_resource[sym], [&](std::size_t first, std::size_t second) {
        if (schedule.kind(first) == ItemKind::Compute &&
            schedule.kind(second) == ItemKind::Reconfig) {
          cert.violations.push_back(make_pair_violation(
              Rule::ReconfigDuringExecute, Severity::Error, resource, schedule.item(first),
              schedule.item(second),
              "reconfiguration " + span(schedule, second) + " rewrites region '" + resource +
                  "' while " + span(schedule, first) + " is still executing in it",
              "hoist the load no earlier than the instant the region is idle"));
        } else if (schedule.kind(first) == ItemKind::Reconfig &&
                   schedule.kind(second) == ItemKind::Compute) {
          cert.violations.push_back(make_pair_violation(
              Rule::ExecuteDuringReconfig, Severity::Error, resource, schedule.item(first),
              schedule.item(second),
              "operation " + span(schedule, second) + " starts while region '" + resource +
                  "' is still being rewritten by " + span(schedule, first),
              "delay the operation until the load completes"));
        } else if (schedule.kind(first) == ItemKind::Reconfig &&
                   schedule.kind(second) == ItemKind::Reconfig) {
          // Same-region load overlap is a port double-booking; the port
          // sweep below owns that witness (PDR105).
        } else if (on_operator) {
          cert.violations.push_back(make_pair_violation(
              Rule::OperatorOverlap, Severity::Error, resource, schedule.item(first),
              schedule.item(second),
              "items " + span(schedule, first) + " and " + span(schedule, second) +
                  " overlap on operator '" + resource + "'",
              "operators have no internal parallelism (paper section 3)"));
        } else {
          cert.violations.push_back(make_pair_violation(
              Rule::MediumTransferOverlap, Severity::Error, resource, schedule.item(first),
              schedule.item(second),
              "transfers " + span(schedule, first) + " and " + span(schedule, second) +
                  " overlap on exclusive medium '" + resource + "'",
              "media carry one transfer at a time; serialize or reroute"));
        }
      });
    }
  }

  /// PDR105: every load in the schedule shares the one configuration port.
  void check_port_bookings() {
    sweep_overlaps(schedule, reconfigs, [&](std::size_t first, std::size_t second) {
      cert.violations.push_back(make_pair_violation(
          Rule::PortDoubleBooking, Severity::Error, "configuration port", schedule.item(first),
          schedule.item(second),
          "loads " + span(schedule, first) + " (region '" + std::string(schedule.resource(first)) +
              "') and " + span(schedule, second) + " (region '" +
              std::string(schedule.resource(second)) + "') overlap on the configuration port",
          "the device has one ICAP/SelectMAP port; loads must serialize"));
    });
    std::vector<std::size_t> sorted = reconfigs;
    std::stable_sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      if (schedule.start(a) != schedule.start(b)) return schedule.start(a) < schedule.start(b);
      if (schedule.end(a) != schedule.end(b)) return schedule.end(a) < schedule.end(b);
      return schedule.resource(a) < schedule.resource(b);
    });
    for (const std::size_t i : sorted) cert.port_bookings.push_back(schedule.item(i));
  }

  /// PDR102 / PDR103 / PDR108 plus the residency timeline.
  void check_residency() {
    for (aaa::NodeId w : architecture.operators_of_kind(aaa::OperatorKind::FpgaRegion)) {
      const aaa::OperatorNode& region_op = architecture.op(w);
      const std::string& rname = region_op.name;
      std::string loaded;
      TimeNs loaded_from = 0;
      std::size_t loaded_by = kNoItem;
      if (const auto pre = options.preloaded.find(rname); pre != options.preloaded.end())
        loaded = pre->second;

      const std::vector<std::size_t>* list = timeline(rname);
      const std::vector<std::size_t> empty;
      for (const std::size_t i : list == nullptr ? empty : *list) {
        if (schedule.kind(i) == ItemKind::Reconfig) {
          const std::string module(schedule.module_name(i));
          if (!loaded.empty())
            cert.residencies.push_back(
                ResidencyInterval{rname, loaded, loaded_from, schedule.start(i)});
          if (options.constraints != nullptr) {
            const aaa::ModuleConstraint* mc = options.constraints->find_module(module);
            if (mc != nullptr && mc->region != constraint_region_name(region_op))
              cert.violations.push_back(make_single_violation(
                  Rule::ForeignModuleLoad, Severity::Error, rname, schedule.item(i),
                  "load " + span(schedule, i) + " configures module '" + module +
                      "' into region '" + rname + "', but the constraints declare it for region '" +
                      mc->region + "'",
                  "a partial bitstream only fits the region it was implemented for"));
          }
          loaded = module;
          loaded_from = schedule.end(i);
          loaded_by = i;
        } else if (schedule.kind(i) == ItemKind::Compute &&
                   schedule.variant_sym(i) != util::kEmptySymbol) {
          const std::string variant(schedule.variant(i));
          if (loaded.empty()) {
            cert.violations.push_back(make_single_violation(
                Rule::UseBeforeConfigure, Severity::Error, rname, schedule.item(i),
                "operation " + span(schedule, i) + " executes variant '" + variant +
                    "' but region '" + rname + "' was never configured",
                "schedule a load (or declare the module preloaded) before first use"));
          } else if (variant != loaded) {
            std::string message = "operation " + span(schedule, i) + " needs variant '" + variant +
                                  "' but region '" + rname + "' holds module '" + loaded + "'";
            if (loaded_by != kNoItem) message += ", resident since " + span(schedule, loaded_by);
            Violation v =
                loaded_by != kNoItem
                    ? make_pair_violation(Rule::StaleModuleExecution, Severity::Error, rname,
                                          schedule.item(loaded_by), schedule.item(i),
                                          std::move(message),
                                          "reconfigure the region before the operation starts")
                    : make_single_violation(Rule::StaleModuleExecution, Severity::Error, rname,
                                            schedule.item(i), std::move(message),
                                            "reconfigure the region before the operation starts");
            cert.violations.push_back(std::move(v));
          }
        }
      }
      if (!loaded.empty()) {
        TimeNs horizon = std::max(schedule.makespan, loaded_from);
        cert.residencies.push_back(ResidencyInterval{rname, loaded, loaded_from, horizon});
      }
    }
  }

  /// PDR106: data produced for a dependency sits in an endpoint region's
  /// buffers while that region's frames are rewritten. The executive
  /// keeps those buffers in the static part, so this certifies as a
  /// warning — but the witness documents exactly which load the data must
  /// survive.
  void check_data_crossings() {
    const auto& g = algorithm.digraph();
    for (graph::EdgeId e : g.edge_ids()) {
      const graph::NodeId pn = g.edge_from(e);
      const graph::NodeId cn = g.edge_to(e);
      const std::size_t producer = pn < compute_of.size() ? compute_of[pn] : kNoItem;
      const std::size_t consumer = cn < compute_of.size() ? compute_of[cn] : kNoItem;
      if (producer == kNoItem || consumer == kNoItem) continue;

      // Data leaves the producer's region when its first transfer hop
      // starts and reaches the consumer's region when the last hop ends;
      // same-operator dependencies never leave the region.
      TimeNs departure = schedule.start(consumer);
      TimeNs arrival = schedule.end(producer);
      if (const auto tf = transfers_of.find(e); tf != transfers_of.end()) {
        for (const std::size_t hop : tf->second) {
          departure = std::min(departure, schedule.start(hop));
          arrival = std::max(arrival, schedule.end(hop));
        }
      }

      const auto region_kind = [&](std::string_view resource) {
        const auto node = architecture.find(std::string(resource));
        return node.has_value() && architecture.is_operator(*node) &&
               architecture.op(*node).kind == aaa::OperatorKind::FpgaRegion;
      };

      // Producer side: output lingers in [producer.end, departure).
      if (region_kind(schedule.resource(producer))) {
        for (const std::size_t load : reconfigs) {
          if (schedule.resource_sym(load) != schedule.resource_sym(producer)) continue;
          if (std::max(schedule.start(load), schedule.end(producer)) >=
              std::min(schedule.end(load), departure))
            continue;
          const std::string rname(schedule.resource(producer));
          cert.violations.push_back(make_pair_violation(
              Rule::DataCrossesReconfig, Severity::Warning, rname, schedule.item(producer),
              schedule.item(load),
              "output of " + span(schedule, producer) + " for '" + g[cn].name +
                  "' is still in region '" + rname + "' when load " + span(schedule, load) +
                  " rewrites it",
              "the executive must buffer the edge in the static part across the load"));
        }
      }

      // Consumer side: input waits in [arrival, consumer.start). The load
      // that brings in the consumer's own variant is the normal on-demand
      // pattern; only a load of some *other* module displaces the data.
      if (region_kind(schedule.resource(consumer))) {
        for (const std::size_t load : reconfigs) {
          if (schedule.resource_sym(load) != schedule.resource_sym(consumer)) continue;
          if (schedule.variant_sym(consumer) != util::kEmptySymbol &&
              schedule.module_sym(load) == schedule.variant_sym(consumer))
            continue;
          if (std::max(schedule.start(load), arrival) >=
              std::min(schedule.end(load), schedule.start(consumer)))
            continue;
          const std::string rname(schedule.resource(consumer));
          cert.violations.push_back(make_pair_violation(
              Rule::DataCrossesReconfig, Severity::Warning, rname, schedule.item(load),
              schedule.item(consumer),
              "input of " + span(schedule, consumer) + " from '" + g[pn].name +
                  "' arrives in region '" + rname + "' before load " + span(schedule, load) +
                  " rewrites it",
              "the executive must buffer the edge in the static part across the load"));
        }
      }
    }
  }
};

}  // namespace

TimeNs Violation::overlap_from() const {
  return pair ? std::max(first.start, second.start) : first.start;
}

TimeNs Violation::overlap_to() const {
  return pair ? std::min(first.end, second.end) : first.end;
}

std::string Violation::to_string() const {
  return strprintf("%s [%s]: %s", lint::rule_id(rule), resource.c_str(), message.c_str());
}

bool Certificate::certified() const { return error_count() == 0; }

std::size_t Certificate::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [](const Violation& v) { return v.severity == Severity::Error; }));
}

std::string Certificate::first_error() const {
  for (const auto& v : violations)
    if (v.severity == Severity::Error) return v.to_string();
  return "";
}

lint::Report Certificate::to_report() const {
  lint::Report report;
  for (const auto& v : violations) {
    const std::string where =
        v.resource == "configuration port" ? v.resource : "resource " + v.resource;
    report.add(v.rule, v.severity, where, v.message, v.hint);
  }
  return report;
}

std::map<std::string, std::vector<std::string>> Certificate::expected_loads() const {
  std::map<std::string, std::vector<std::string>> loads;
  for (const auto& booking : port_bookings) loads[booking.resource].push_back(booking.module);
  return loads;
}

std::string Certificate::summary() const {
  if (!certified()) return strprintf("REJECTED (%zu errors): ", error_count()) + first_error();
  return strprintf("certified: %zu residency intervals, %zu port bookings, %zu warning(s)",
                   residencies.size(), port_bookings.size(),
                   violations.size() - error_count());
}

Certificate verify_schedule(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
                            const aaa::ArchitectureGraph& architecture,
                            const VerifyOptions& options) {
  Analyzer analyzer{schedule, algorithm, architecture, options, {}, {}, {}, {}, {}, {}};
  analyzer.group();
  analyzer.check_resource_overlaps();
  analyzer.check_port_bookings();
  analyzer.check_residency();
  analyzer.check_data_crossings();
  return std::move(analyzer.cert);
}

lint::Report check_project_text(const std::string& text, bool deep) {
  aaa::Project project;
  try {
    project = aaa::parse_project(text);
  } catch (const Error& e) {
    lint::Report report;
    report.add(Rule::ParseError, Severity::Error, "project file",
               std::string("parse failed: ") + e.what(), "");
    return report;
  }

  lint::Report report;
  try {
    const aaa::Adequation adequation(project.algorithm, project.architecture,
                                     project.durations);
    const aaa::Schedule schedule = adequation.run();
    report.merge(lint::check_schedule(schedule, project.algorithm, project.architecture));
    if (deep)
      report.merge(
          verify_schedule(schedule, project.algorithm, project.architecture).to_report());
    const aaa::Executive executive =
        aaa::generate_executive(schedule, project.algorithm, project.architecture);
    report.merge(lint::check_executive(executive));
  } catch (const Error& e) {
    report.add(Rule::ParseError, Severity::Error, "adequation",
               std::string("adequation failed: ") + e.what(),
               "every operation needs a feasible operator and a duration entry");
  }
  return report;
}

}  // namespace pdr::verify
