#include "rtr/prefetch.hpp"

#include "util/error.hpp"

namespace pdr::rtr {

HistoryPredictor::HistoryPredictor(const aaa::ConstraintSet& constraints) {
  for (const auto& [a, b] : constraints.relations) counts_[{a, b}] += 1;
}

std::optional<std::string> HistoryPredictor::predict(const std::string& region,
                                                     const std::string& current) {
  (void)region;
  std::optional<std::string> best;
  int best_count = 0;
  for (const auto& [key, count] : counts_) {
    if (key.first != current) continue;
    if (count > best_count) {
      best_count = count;
      best = key.second;
    }
  }
  if (best.has_value()) count_event("predictions");
  return best;
}

void HistoryPredictor::observe(const std::string& region, const std::string& module) {
  count_event("observations");
  const auto it = last_.find(region);
  if (it != last_.end() && it->second != module) counts_[{it->second, module}] += 1;
  last_[region] = module;
}

int HistoryPredictor::transition_count(const std::string& from, const std::string& to) const {
  const auto it = counts_.find({from, to});
  return it == counts_.end() ? 0 : it->second;
}

std::unique_ptr<PrefetchPolicy> make_prefetch_policy(const aaa::ConstraintSet& constraints) {
  switch (constraints.prefetch) {
    case aaa::PrefetchChoice::None: return std::make_unique<NonePrefetch>();
    case aaa::PrefetchChoice::Schedule: return std::make_unique<ScheduleLookahead>();
    case aaa::PrefetchChoice::History: return std::make_unique<HistoryPredictor>(constraints);
  }
  raise("make_prefetch_policy", "unknown prefetch choice");
}

}  // namespace pdr::rtr
