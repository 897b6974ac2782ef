#include "flow/artifact_store.hpp"

namespace pdr::flow {

std::uint64_t ArtifactStore::runs(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(stage);
  return it == stats_.end() ? 0 : it->second.runs;
}

std::uint64_t ArtifactStore::hits(const std::string& stage) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(stage);
  return it == stats_.end() ? 0 : it->second.hits;
}

std::size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ArtifactStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  stats_.clear();
}

void ArtifactStore::export_metrics(obs::MetricsRegistry& metrics) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [stage, stats] : stats_) {
    obs::Counter& runs = metrics.counter("flow.cache." + stage + ".runs");
    obs::Counter& hits = metrics.counter("flow.cache." + stage + ".hits");
    // Counters are monotonic: bump by the delta since the last export.
    if (static_cast<double>(stats.runs) > runs.value())
      runs.add(static_cast<double>(stats.runs) - runs.value());
    if (static_cast<double>(stats.hits) > hits.value())
      hits.add(static_cast<double>(stats.hits) - hits.value());
  }
}

std::shared_ptr<ArtifactStore> default_store() {
  static std::shared_ptr<ArtifactStore> store = std::make_shared<ArtifactStore>();
  return store;
}

}  // namespace pdr::flow
