// pdr::lint — static design-rule checking for whole input files.
//
// Entry points for `pdrflow check` and tests: hand in the text of a
// constraints file (§4 DSL) and get back a Report covering every
// applicable rule family:
//
//   constraints file:  constraint rules  -> Modular Design flow
//                      -> floorplan/capacity rules over the result
//
// Project files are checked by verify::check_project_text, which runs
// these families' schedule and executive rules and, with --deep, the
// interval certification on top.
//
// Parse and flow failures are reported as PDR000 diagnostics instead of
// exceptions, so a single run always yields a complete report.
#pragma once

#include <string>

#include "lint/constraint_rules.hpp"
#include "lint/diagnostic.hpp"
#include "lint/executive_rules.hpp"
#include "lint/floorplan_rules.hpp"
#include "lint/schedule_rules.hpp"

namespace pdr::lint {

enum class InputKind : std::uint8_t { Constraints, Project };

/// Classifies an input file: a leading `project`, `algorithm`,
/// `architecture` or `durations` directive marks a project file;
/// everything else is treated as a constraints file.
InputKind sniff_input(const std::string& text);

/// Checks a constraints file end to end: parse (unvalidated), constraint
/// rules, and — when the constraints are error-free — the Modular Design
/// flow with floorplan/capacity rules over its output.
Report check_constraints_text(const std::string& text);

}  // namespace pdr::lint
