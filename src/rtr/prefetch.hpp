// Configuration prefetch policies.
//
// "The run-time reconfiguration manager ... uses prefetching technic to
// minimize reconfiguration latency of runtime reconfiguration."
// (abstract). Three policies are provided and benchmarked:
//
//  - NonePrefetch: on-demand loading only (the baseline); the manager
//    ignores announcements.
//  - ScheduleLookahead ("schedule"): stage on announce. The application
//    driver, following the static schedule, tells the manager which
//    module a region needs next (ReconfigManager::announce), and the
//    manager stages it as soon as the port is free. The policy itself
//    never predicts.
//  - HistoryPredictor: first-order Markov predictor over the observed
//    module sequence per region, optionally seeded by the constraints
//    file's `relation a then b` hints.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "aaa/constraints.hpp"
#include "obs/metrics.hpp"

namespace pdr::rtr {

class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;

  /// Module to speculatively load into `region` after `current` finished
  /// being the active module; nullopt = do not prefetch.
  virtual std::optional<std::string> predict(const std::string& region,
                                             const std::string& current) = 0;

  /// Observes an actual (demanded) module activation.
  virtual void observe(const std::string& region, const std::string& module) = 0;

  virtual const char* name() const = 0;

  /// Mirrors observation/prediction counts into `metrics` under
  /// "rtr.prefetch." (nullptr = off).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 protected:
  /// Increments "rtr.prefetch.<event>" when a metrics sink is attached.
  void count_event(const char* event) const {
    if (metrics_ != nullptr) metrics_->counter(std::string("rtr.prefetch.") + event).add();
  }

 private:
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Baseline: never prefetch.
class NonePrefetch final : public PrefetchPolicy {
 public:
  std::optional<std::string> predict(const std::string&, const std::string&) override {
    return std::nullopt;
  }
  void observe(const std::string&, const std::string&) override {}
  const char* name() const override { return "none"; }
};

/// Stage on announce: prefetches only what the driver announces, never
/// predicts on its own.
class ScheduleLookahead final : public PrefetchPolicy {
 public:
  std::optional<std::string> predict(const std::string&, const std::string&) override {
    return std::nullopt;
  }
  void observe(const std::string&, const std::string&) override { count_event("observations"); }
  const char* name() const override { return "schedule"; }
};

/// First-order Markov predictor: counts module -> next-module transitions
/// per region; predicts the argmax successor of the current module.
class HistoryPredictor final : public PrefetchPolicy {
 public:
  HistoryPredictor() = default;

  /// Seeds transition counts from `relation a then b` constraint hints.
  explicit HistoryPredictor(const aaa::ConstraintSet& constraints);

  std::optional<std::string> predict(const std::string& region, const std::string& current) override;
  void observe(const std::string& region, const std::string& module) override;
  const char* name() const override { return "history"; }

  int transition_count(const std::string& from, const std::string& to) const;

 private:
  std::map<std::string, std::string> last_;                    ///< region -> last module
  std::map<std::pair<std::string, std::string>, int> counts_;  ///< (from, to) -> count
};

/// Factory from the constraints file's `prefetch` directive.
std::unique_ptr<PrefetchPolicy> make_prefetch_policy(const aaa::ConstraintSet& constraints);

}  // namespace pdr::rtr
