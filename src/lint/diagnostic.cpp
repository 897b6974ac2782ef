#include "lint/diagnostic.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace pdr::lint {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strprintf("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

// Canonical diagnostic order: rule code, then location, then message,
// then hint. Both renderers sort with it (to_text additionally groups by
// severity first), so a report's output is a pure function of its
// diagnostic *set* — never of rule-execution or merge order. `pdrflow
// check --deep` relies on this for byte-stable JSON diffs across --jobs.
bool canonical_less(const Diagnostic& a, const Diagnostic& b) {
  if (a.rule != b.rule) return static_cast<int>(a.rule) < static_cast<int>(b.rule);
  if (a.where != b.where) return a.where < b.where;
  if (a.message != b.message) return a.message < b.message;
  return a.hint < b.hint;
}

std::vector<const Diagnostic*> sorted_view(const std::vector<Diagnostic>& diags,
                                           bool severity_first) {
  std::vector<const Diagnostic*> sorted;
  sorted.reserve(diags.size());
  for (const auto& d : diags) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [severity_first](const Diagnostic* a, const Diagnostic* b) {
                     if (severity_first && a->severity != b->severity)
                       return static_cast<int>(a->severity) > static_cast<int>(b->severity);
                     return canonical_less(*a, *b);
                   });
  return sorted;
}

}  // namespace

std::string Diagnostic::to_string() const {
  std::string out = std::string(severity_name(severity)) + " " + rule_id(rule);
  if (!where.empty()) out += " [" + where + "]";
  out += ": " + message;
  if (!hint.empty()) out += " (hint: " + hint + ")";
  return out;
}

void Report::add(Diagnostic diag) { diags_.push_back(std::move(diag)); }

void Report::add(Rule rule, Severity severity, std::string where, std::string message,
                 std::string hint) {
  add(Diagnostic{rule, severity, std::move(where), std::move(message), std::move(hint)});
}

void Report::merge(Report other) {
  for (auto& d : other.diags_) diags_.push_back(std::move(d));
}

std::size_t Report::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [severity](const Diagnostic& d) { return d.severity == severity; }));
}

bool Report::has(Rule rule) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [rule](const Diagnostic& d) { return d.rule == rule; });
}

std::string Report::to_text() const {
  if (diags_.empty()) return "";
  std::string out;
  for (const Diagnostic* d : sorted_view(diags_, /*severity_first=*/true))
    out += d->to_string() + "\n";
  out += strprintf("%zu error(s), %zu warning(s)\n", errors(), warnings());
  return out;
}

std::string Report::to_json() const {
  const std::vector<const Diagnostic*> sorted = sorted_view(diags_, /*severity_first=*/false);
  std::string out = "{\"diagnostics\":[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const Diagnostic& d = *sorted[i];
    if (i > 0) out += ",";
    out += strprintf(
        "\n  {\"code\":\"%s\",\"severity\":\"%s\",\"where\":\"%s\",\"message\":\"%s\","
        "\"hint\":\"%s\"}",
        rule_id(d.rule), severity_name(d.severity), json_escape(d.where).c_str(),
        json_escape(d.message).c_str(), json_escape(d.hint).c_str());
  }
  out += strprintf("\n],\"errors\":%zu,\"warnings\":%zu}\n", errors(), warnings());
  return out;
}

}  // namespace pdr::lint
