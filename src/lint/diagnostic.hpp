// Structured diagnostics emitted by the pdr::lint rule checkers.
//
// A Diagnostic pins one design-rule violation to a location (a region,
// module, resource or file position), with a stable rule code, a
// severity, a human message and a fix hint. A Report collects them and
// renders text (one line per diagnostic, compiler style) or JSON (for
// tooling; same shape as `pdrflow check --json`).
#pragma once

#include <string>
#include <vector>

#include "lint/rule_codes.hpp"

namespace pdr::lint {

struct Diagnostic {
  Rule rule = Rule::ParseError;
  Severity severity = Severity::Error;
  std::string where;    ///< location: "region D1", "module qpsk", "line 12", ...
  std::string message;  ///< what is wrong
  std::string hint;     ///< how to fix it (may be empty)

  /// "error PDR001 [region D1]: duplicate region 'D1' (hint: ...)".
  std::string to_string() const;
};

class Report {
 public:
  void add(Diagnostic diag);
  void add(Rule rule, Severity severity, std::string where, std::string message,
           std::string hint = "");

  /// Appends every diagnostic of another report.
  void merge(Report other);

  bool empty() const { return diags_.empty(); }

  std::size_t count(Severity severity) const;
  std::size_t errors() const { return count(Severity::Error); }
  std::size_t warnings() const { return count(Severity::Warning); }

  /// True if any diagnostic carries `rule`.
  bool has(Rule rule) const;

  /// Severity-sorted (errors first) compiler-style listing plus a final
  /// "N error(s), M warning(s)" summary line; "" when clean. Within one
  /// severity, diagnostics are ordered by (code, where, message, hint):
  /// the listing depends only on the diagnostic set, never on the order
  /// the rule checkers ran or reports were merged.
  std::string to_text() const;

  /// {"diagnostics":[{code,severity,where,message,hint},...],
  ///  "errors":N,"warnings":M}. Diagnostics are canonically ordered by
  /// (code, where, message, hint) so the document is byte-stable for a
  /// given diagnostic set — the contract `pdrflow check --json` diffs
  /// build on.
  std::string to_json() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace pdr::lint
