#include "sim/timeline.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::sim {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Compute: return "compute";
    case SpanKind::Transfer: return "transfer";
    case SpanKind::Reconfig: return "reconfig";
    case SpanKind::Stall: return "stall";
  }
  return "?";
}

void Timeline::add(std::string resource, std::string label, SpanKind kind, TimeNs start,
                   TimeNs end) {
  PDR_CHECK(end >= start, "Timeline::add", "span ends before it starts");
  horizon_ = std::max(horizon_, end);
  spans_.push_back(Span{std::move(resource), std::move(label), kind, start, end});
}

std::map<std::string, TimeNs> Timeline::busy() const {
  std::map<std::string, TimeNs> out;
  for (const auto& s : spans_)
    if (s.kind != SpanKind::Stall) out[s.resource] += s.end - s.start;
  return out;
}

TimeNs Timeline::total(SpanKind kind) const {
  TimeNs t = 0;
  for (const auto& s : spans_)
    if (s.kind == kind) t += s.end - s.start;
  return t;
}

std::string Timeline::to_svg(int width_px) const {
  PDR_CHECK(width_px >= 100, "Timeline::to_svg", "width too small");
  std::vector<std::string> resources;
  for (const auto& s : spans_)
    if (std::find(resources.begin(), resources.end(), s.resource) == resources.end())
      resources.push_back(s.resource);

  constexpr int kLane = 28;
  constexpr int kLabelWidth = 110;
  constexpr int kHeader = 24;
  const int height = kHeader + kLane * static_cast<int>(resources.size()) + 8;
  const double horizon = std::max<TimeNs>(horizon_, 1);
  const double plot_w = static_cast<double>(width_px - kLabelWidth - 10);

  auto color_of = [](SpanKind kind) {
    switch (kind) {
      case SpanKind::Compute: return "#4c9f70";
      case SpanKind::Transfer: return "#4878a8";
      case SpanKind::Reconfig: return "#c05a3a";
      case SpanKind::Stall: return "#b8b8b8";
    }
    return "#000000";
  };

  std::string svg = strprintf(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" "
      "font-family=\"monospace\" font-size=\"11\">\n",
      width_px, height);
  svg += strprintf("  <text x=\"4\" y=\"14\">timeline, horizon %.3f ms</text>\n", to_ms(horizon_));
  for (std::size_t r = 0; r < resources.size(); ++r) {
    const int y = kHeader + static_cast<int>(r) * kLane;
    svg += strprintf("  <text x=\"4\" y=\"%d\">%s</text>\n", y + 17, resources[r].c_str());
    svg += strprintf(
        "  <line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#dddddd\"/>\n", kLabelWidth,
        y + kLane - 2, width_px - 10, y + kLane - 2);
  }
  for (const auto& s : spans_) {
    const auto lane = static_cast<std::size_t>(
        std::find(resources.begin(), resources.end(), s.resource) - resources.begin());
    const double x = kLabelWidth + plot_w * static_cast<double>(s.start) / horizon;
    const double w =
        std::max(1.0, plot_w * static_cast<double>(s.end - s.start) / horizon);
    const int y = kHeader + static_cast<int>(lane) * kLane + 3;
    svg += strprintf(
        "  <rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\">"
        "<title>%s [%s] %.3f-%.3f ms</title></rect>\n",
        x, y, w, kLane - 8, color_of(s.kind), s.label.c_str(), span_kind_name(s.kind),
        to_ms(s.start), to_ms(s.end));
  }
  svg += "</svg>\n";
  return svg;
}

void Timeline::export_to(obs::Tracer& tracer, const std::string& category_prefix) const {
  for (const auto& s : spans_)
    tracer.span(s.resource, s.label, category_prefix + span_kind_name(s.kind), s.start, s.end);
}

}  // namespace pdr::sim
