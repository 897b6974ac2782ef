#include "lint/schedule_rules.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace pdr::lint {

namespace {

using aaa::ItemKind;
using aaa::Schedule;

std::string span(const Schedule& s, std::size_t i) {
  return strprintf("'%s' [%lld..%lld ns]", s.label(i).c_str(), static_cast<long long>(s.start(i)),
                   static_cast<long long>(s.end(i)));
}

/// Classifies one overlapping pair on a region/operator; `first` starts
/// no later than `second`.
void report_overlap(Report& report, const Schedule& s, const std::string& resource,
                    std::size_t first, std::size_t second) {
  if (s.kind(first) == ItemKind::Compute && s.kind(second) == ItemKind::Reconfig) {
    report.add(Rule::PrefetchIntoBusyRegion, Severity::Error, "resource " + resource,
               "reconfiguration " + span(s, second) + " starts while " + span(s, first) +
                   " still occupies region '" + resource + "'",
               "a prefetch may only be hoisted to an instant the region is free");
  } else if (s.kind(first) == ItemKind::Reconfig && s.kind(second) == ItemKind::Compute) {
    report.add(Rule::ComputeDuringReconfig, Severity::Error, "resource " + resource,
               "operation " + span(s, second) + " starts while region '" + resource +
                   "' is still reconfiguring (" + span(s, first) + ")",
               "delay the operation until the reconfiguration completes");
  } else {
    report.add(Rule::ResourceOverlap, Severity::Error, "resource " + resource,
               "items " + span(s, first) + " and " + span(s, second) + " overlap on resource '" +
                   resource + "'",
               "every operator and medium executes sequentially (paper section 3)");
  }
}

/// Residency interval of one module in one region: from the end of the
/// reconfiguration that loaded it to the start of the next one.
struct Residency {
  std::string module;
  std::string region;
  TimeNs from = 0;
  TimeNs to = 0;
};

}  // namespace

Report check_schedule(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
                      const aaa::ArchitectureGraph& architecture,
                      const aaa::ConstraintSet* constraints) {
  Report report;

  // PDR047 + per-resource grouping. Resources are visited in name order
  // (as the old string-keyed map iterated), keeping finding order stable.
  std::map<std::string_view, std::vector<std::size_t>> per_resource;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule.end(i) < schedule.start(i))
      report.add(Rule::NegativeDuration, Severity::Error,
                 "resource " + std::string(schedule.resource(i)),
                 "item " + span(schedule, i) + " ends before it starts", "");
    per_resource[schedule.resource(i)].push_back(i);
  }

  // PDR040 / PDR043 / PDR045: overlap on one resource, classified.
  for (auto& [resource, list] : per_resource) {
    std::stable_sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return schedule.start(a) < schedule.start(b);
    });
    const std::string rname(resource);
    for (std::size_t i = 1; i < list.size(); ++i)
      if (schedule.start(list[i]) < schedule.end(list[i - 1]))
        report_overlap(report, schedule, rname, list[i - 1], list[i]);
  }

  // PDR041: every dependency's consumer starts after its producer ends,
  // with a transfer in between when placed apart. Scheduler-produced
  // transfer rows carry the algorithm-graph edge they serve, so presence
  // is answered from a dense edge-id bitmap; rows without an edge id
  // (hand-built schedules) fall back to a (src,dst) name-pair match.
  // The fallback resolves names through the rows themselves, not
  // symbols.find(): the scheduler records operation labels with the
  // interner's unindexed append path, so text lookup cannot see them.
  constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);
  const auto& g = algorithm.digraph();
  std::vector<std::size_t> compute_of(g.node_count(), kNoItem);
  std::vector<char> edge_served(g.edge_count(), 0);
  std::vector<std::pair<std::string_view, std::string_view>> transfer_pairs;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule.kind(i) == ItemKind::Compute) {
      const graph::NodeId n = schedule.op(i);
      if (n < compute_of.size()) compute_of[n] = i;
    } else if (schedule.kind(i) == ItemKind::Transfer) {
      const graph::EdgeId te = schedule.edge(i);
      if (te < edge_served.size())
        edge_served[te] = 1;
      else
        transfer_pairs.emplace_back(schedule.src(i), schedule.dst(i));
    }
  }
  std::sort(transfer_pairs.begin(), transfer_pairs.end());
  const auto has_transfer = [&](graph::EdgeId e, std::string_view src, std::string_view dst) {
    if (edge_served[e]) return true;
    return std::binary_search(transfer_pairs.begin(), transfer_pairs.end(),
                              std::make_pair(src, dst));
  };
  for (graph::EdgeId e : g.edge_ids()) {
    const graph::NodeId p = g.edge_from(e);
    const graph::NodeId c = g.edge_to(e);
    const std::size_t ip = p < compute_of.size() ? compute_of[p] : kNoItem;
    const std::size_t ic = c < compute_of.size() ? compute_of[c] : kNoItem;
    if (ip == kNoItem || ic == kNoItem) {
      const std::string& missing = ip == kNoItem ? g[p].name : g[c].name;
      report.add(Rule::DependencyViolation, Severity::Error, "operation " + missing,
                 "operation '" + missing + "' was never scheduled",
                 "every algorithm vertex must appear in the schedule");
      continue;
    }
    if (schedule.start(ic) < schedule.end(ip))
      report.add(Rule::DependencyViolation, Severity::Error, "operation " + g[c].name,
                 "operation '" + g[c].name + "' starts at " + std::to_string(schedule.start(ic)) +
                     " ns, before its input '" + g[p].name + "' finishes at " +
                     std::to_string(schedule.end(ip)) + " ns",
                 "");
    if (schedule.resource_sym(ip) != schedule.resource_sym(ic) && g.edge(e).bytes > 0) {
      if (!has_transfer(e, g[p].name, g[c].name))
        report.add(Rule::DependencyViolation, Severity::Error, "operation " + g[c].name,
                   "dependency '" + g[p].name + "' -> '" + g[c].name +
                       "' crosses operators with no transfer scheduled",
                   "route the buffer over a connecting medium");
    }
  }

  // PDR042: a region computes only the variant its last reconfiguration
  // loaded (or a consistent preloaded one before any reconfiguration).
  for (aaa::NodeId w : architecture.operators_of_kind(aaa::OperatorKind::FpgaRegion)) {
    const std::string& rname = architecture.op(w).name;
    const auto it = per_resource.find(std::string_view(rname));
    if (it == per_resource.end()) continue;
    util::SymbolId loaded = util::kEmptySymbol;
    bool any_reconfig = false;
    util::SymbolId preloaded_variant = util::kEmptySymbol;
    for (const std::size_t i : it->second) {
      if (schedule.kind(i) == ItemKind::Reconfig) {
        loaded = schedule.module_sym(i);
        any_reconfig = true;
      } else if (schedule.kind(i) == ItemKind::Compute &&
                 schedule.variant_sym(i) != util::kEmptySymbol) {
        const std::string variant(schedule.variant(i));
        if (!any_reconfig) {
          if (preloaded_variant == util::kEmptySymbol) preloaded_variant = schedule.variant_sym(i);
          if (schedule.variant_sym(i) != preloaded_variant)
            report.add(Rule::WrongModuleLoaded, Severity::Error, "resource " + rname,
                       "region '" + rname + "' computes variant '" + variant + "' and variant '" +
                           std::string(schedule.name(preloaded_variant)) +
                           "' with no reconfiguration between",
                       "insert a reconfiguration or fix the variant selection");
        } else if (schedule.variant_sym(i) != loaded) {
          report.add(Rule::WrongModuleLoaded, Severity::Error, "resource " + rname,
                     "region '" + rname + "' computes variant '" + variant + "' while module '" +
                         std::string(schedule.name(loaded)) + "' is loaded",
                     "reconfigure the region to '" + variant + "' first");
        }
      }
    }
  }

  // PDR046: reconfigurations serialize on the single configuration port.
  std::vector<std::size_t> reconfigs;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    if (schedule.kind(i) == ItemKind::Reconfig) reconfigs.push_back(i);
  std::stable_sort(reconfigs.begin(), reconfigs.end(), [&](std::size_t a, std::size_t b) {
    return schedule.start(a) < schedule.start(b);
  });
  for (std::size_t i = 1; i < reconfigs.size(); ++i)
    if (schedule.start(reconfigs[i]) < schedule.end(reconfigs[i - 1]))
      report.add(Rule::PortOverlap, Severity::Error, "configuration port",
                 "reconfigurations " + span(schedule, reconfigs[i - 1]) + " and " +
                     span(schedule, reconfigs[i]) + " overlap on the configuration port",
                 "the device has one configuration port; loads must serialize");

  // PDR044: mutually-exclusive modules resident at the same time.
  if (constraints != nullptr && !constraints->exclusions.empty()) {
    std::vector<Residency> residencies;
    for (auto& [resource, list] : per_resource) {
      std::size_t current = static_cast<std::size_t>(-1);
      for (const std::size_t i : list) {
        if (schedule.kind(i) != ItemKind::Reconfig) continue;
        if (current != static_cast<std::size_t>(-1))
          residencies.push_back(Residency{std::string(schedule.module_name(current)),
                                          std::string(resource), schedule.end(current),
                                          schedule.start(i)});
        current = i;
      }
      if (current != static_cast<std::size_t>(-1))
        residencies.push_back(Residency{std::string(schedule.module_name(current)),
                                        std::string(resource), schedule.end(current),
                                        std::max(schedule.makespan, schedule.end(current))});
    }
    for (const auto& [a, b] : constraints->exclusions) {
      for (const Residency& ra : residencies) {
        if (ra.module != a) continue;
        for (const Residency& rb : residencies) {
          if (rb.module != b || ra.region == rb.region) continue;
          const TimeNs lo = std::max(ra.from, rb.from);
          const TimeNs hi = std::min(ra.to, rb.to);
          if (lo < hi)
            report.add(Rule::ExclusionOverlap, Severity::Error,
                       "exclude " + a + " " + b,
                       strprintf("excluded modules '%s' (region %s) and '%s' (region %s) are "
                                 "both resident during [%lld..%lld ns]",
                                 a.c_str(), ra.region.c_str(), b.c_str(), rb.region.c_str(),
                                 static_cast<long long>(lo), static_cast<long long>(hi)),
                       "serialize their residency or drop the exclusion");
        }
      }
    }
  }

  // PDR048: a region with an SEU-exposure budget must be rewritten (by a
  // scheduled reconfiguration, which rewrites every frame and thus acts
  // as a scrub) at least once per budget interval over the whole
  // schedule. A longer gap leaves upsets unrepaired past the budget.
  if (constraints != nullptr) {
    for (const auto& rc : constraints->regions) {
      if (rc.seu_budget_ms < 0) continue;
      const TimeNs budget = static_cast<TimeNs>(rc.seu_budget_ms) * 1'000'000;
      std::vector<TimeNs> rewrites;
      const auto it = per_resource.find(std::string_view(rc.name));
      if (it != per_resource.end())
        for (const std::size_t i : it->second)
          if (schedule.kind(i) == ItemKind::Reconfig) rewrites.push_back(schedule.end(i));
      std::sort(rewrites.begin(), rewrites.end());
      TimeNs last = 0;
      TimeNs worst = 0;
      TimeNs worst_from = 0;
      for (const TimeNs t : rewrites) {
        if (t - last > worst) {
          worst = t - last;
          worst_from = last;
        }
        last = std::max(last, t);
      }
      const TimeNs horizon = std::max(schedule.makespan, last);
      if (horizon - last > worst) {
        worst = horizon - last;
        worst_from = last;
      }
      if (worst > budget)
        report.add(Rule::ScrubPeriodExceedsBudget, Severity::Warning, "region " + rc.name,
                   strprintf("region '%s' goes %.3f ms without a rewrite (starting at "
                             "%lld ns); its SEU-exposure budget is %d ms",
                             rc.name.c_str(), static_cast<double>(worst) / 1e6,
                             static_cast<long long>(worst_from), rc.seu_budget_ms),
                   "shorten the scrub period or schedule a reconfiguration inside the window");
    }
  }

  return report;
}

}  // namespace pdr::lint
