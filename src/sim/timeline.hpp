// Execution timeline (Gantt) recording.
//
// Both the executive player and the transmitter simulation record spans
// here; examples render the ASCII Gantt, benches read the busy statistics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/units.hpp"

namespace pdr::sim {

enum class SpanKind : std::uint8_t { Compute, Transfer, Reconfig, Stall };

const char* span_kind_name(SpanKind kind);

struct Span {
  std::string resource;
  std::string label;
  SpanKind kind = SpanKind::Compute;
  TimeNs start = 0;
  TimeNs end = 0;
};

class Timeline {
 public:
  void add(std::string resource, std::string label, SpanKind kind, TimeNs start, TimeNs end);

  const std::vector<Span>& spans() const { return spans_; }
  TimeNs horizon() const { return horizon_; }

  /// Busy time per resource (sum of span lengths, stalls excluded).
  std::map<std::string, TimeNs> busy() const;

  /// Total time in spans of one kind.
  TimeNs total(SpanKind kind) const;

  /// Replays every span into `tracer` (track = resource, category =
  /// `category_prefix` + span kind name), merging this timeline into a
  /// process-wide Chrome trace.
  void export_to(obs::Tracer& tracer, const std::string& category_prefix = "") const;

  /// Standalone SVG Gantt rendering (one lane per resource, spans colored
  /// by kind, hover titles with label and times) — viewable in any
  /// browser, the artifact a schedule review passes around.
  std::string to_svg(int width_px = 900) const;

 private:
  std::vector<Span> spans_;
  TimeNs horizon_ = 0;
};

}  // namespace pdr::sim
