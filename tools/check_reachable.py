#!/usr/bin/env python3
"""Link-time reachability guard for the pdr:: libraries.

Lists the out-of-line `pdr::` functions that the static libraries define
but that no shipped binary contains, and fails on any of them that is not
on the allowlist below. An allowlist entry that no longer names an
unreached function also fails, so the list cannot go stale.

The binaries must be linked from objects compiled at -O0 with
-ffunction-sections -fdata-sections and linked with -Wl,--gc-sections:
the linker then drops exactly the functions no caller reaches. At -O2 a
function inlined into every caller of its own translation unit is
dropped as well and would read as unreachable.

Usage:
    check_reachable.py --lib-dir BUILD/src [--lib-dir ...] BINARY...

Every libpdr_*.a under each --lib-dir is scanned. Stdlib only; needs
binutils `nm`.
"""

import argparse
import pathlib
import re
import subprocess
import sys

# Functions that only tests reach, kept on purpose. Keys are qualified
# names without the parameter list (all overloads of a name share an
# entry); values give the reason in one line. Two kinds belong here:
#  - oracles: independent checks of a path the binaries run;
#  - test probes: read-only views of state the binaries produce, or
#    test-only hooks that set up or drive such a path.
ALLOWLIST = {
    # Oracles.
    "pdr::rtr::ReconfigManager::enable_certified_replay":
        "oracle: asserts the manager's loads against a verify certificate",
    "pdr::sim::ExecutivePlayer::set_initial_residency":
        "oracle: seeds the executive player, verify's differential oracle",
    "pdr::sim::ExecutivePlayer::set_survive_reconfig_failures":
        "oracle: lets the executive player observe failed reconfigurations",
    "pdr::sim::ExecutivePlayer::set_variant_selector":
        "oracle: runtime variant choices for the executive player",
    "pdr::aaa::Schedule::period_lower_bound":
        "oracle: bound the executive player's measured period must respect",
    "pdr::bench::graph_fingerprint":
        "oracle: golden fingerprints pin the generators' determinism",
    "pdr::fabric::to_clb_cols":
        "oracle: inverse of the slice-column conversion, round-trip checked",
    "pdr::fault::write_fault_spec":
        "oracle: writer the fault-spec parser round-trip test pins",

    # Test probes: hooks that build or drive inputs for a production path.
    "pdr::aaa::Schedule::push_item":
        "test probe: appends hand-made rows (lint/verify hazard fixtures)",
    "pdr::aaa::Schedule::erase_item":
        "test probe: deletes rows to build hazardous schedules",
    "pdr::aaa::Schedule::erase_items_if":
        "test probe: deletes rows to build hazardous schedules",
    "pdr::rtr::ReconfigManager::blank":
        "test probe: blanks a region to provoke lost residency",
    "pdr::rtr::ScheduleLookahead::feed":
        "test probe: hands the lookahead policy a known request sequence",
    "pdr::sim::EventQueue::schedule":
        "test probe: unlabeled overload the simulator tests queue events with",
    "pdr::flow::ArtifactStore::clear":
        "test probe: resets the process-wide artifact store between tests",
    "pdr::util::Interner::operator=":
        "test probe: drives the arena rebinding the copy constructor shares",

    # Test probes: read-only views.
    "pdr::aaa::ConstraintSet::find_region": "test probe: parsed region by name",
    "pdr::aaa::Schedule::items": "test probe: string-faced view of the schedule rows",
    "pdr::aaa::Schedule::on_resource": "test probe: rows placed on one resource",
    "pdr::fabric::ConfigPort::bandwidth_bytes_per_s": "test probe: port timing model",
    "pdr::fabric::Floorplan::reconfigurable_regions": "test probe: floorplan query",
    "pdr::fault::CampaignReport::total_corrupted_frames": "test probe: campaign tally",
    "pdr::flow::ArtifactStore::hits": "test probe: per-stage cache hits",
    "pdr::flow::ArtifactStore::size": "test probe: cached artifact count",
    "pdr::lint::Report::has": "test probe: did a rule fire",
    "pdr::netlist::Netlist::total_primitives": "test probe: elaborated netlist size",
    "pdr::obs::Tracer::count": "test probe: events per category",
    "pdr::obs::Tracer::total_duration": "test probe: span time per category",
    "pdr::rtr::BitstreamStore::total_bytes": "test probe: stored bitstream bytes",
    "pdr::rtr::HistoryPredictor::transition_count": "test probe: learned transitions",
    "pdr::rtr::ScheduleLookahead::pending": "test probe: lookahead queue depth",
    "pdr::sim::Timeline::busy": "test probe: busy time per resource",
    "pdr::sim::Timeline::total": "test probe: time per span kind",
    "pdr::svc::FleetCache::resident": "test probe: fleet cache residency",
    "pdr::synth::Placer::free_static_columns": "test probe: placer capacity",
    "pdr::verify::Certificate::expected_loads": "test probe: certified load sequence",
    "pdr::verify::Certificate::summary": "test probe: certificate verdict line",
    "pdr::verify::Violation::overlap_from": "test probe: hazard witness interval",
    "pdr::verify::Violation::overlap_to": "test probe: hazard witness interval",
}


def demangled_text_symbols(path, kinds):
    """Returns the demangled names of defined symbols of the given nm kinds."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(parts[2])
    return names


def qualified_name(signature):
    """`pdr::a::f[abi:cxx11](int) const` -> `pdr::a::f` (drops ABI tags,
    cuts at the top-level '(')."""
    signature = re.sub(r"\[abi:[^\]]*\]", "", signature)
    depth = 0
    for i, ch in enumerate(signature):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0 and not signature.startswith("(anonymous", i):
            return signature[:i]
    return signature


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--lib-dir", action="append", required=True, type=pathlib.Path,
                        help="directory searched recursively for libpdr_*.a")
    parser.add_argument("binaries", nargs="+", type=pathlib.Path,
                        help="the shipped executables")
    args = parser.parse_args()

    archives = sorted(a for d in args.lib_dir for a in d.rglob("libpdr_*.a"))
    if not archives:
        print("check_reachable: no libpdr_*.a found", file=sys.stderr)
        return 2
    for binary in args.binaries:
        if not binary.is_file():
            print(f"check_reachable: missing binary {binary}", file=sys.stderr)
            return 2

    # Global text symbols only: weak symbols are inline functions and
    # template instances, emitted wherever they are used.
    defined = set()
    for archive in archives:
        defined |= {s for s in demangled_text_symbols(archive, "T") if s.startswith("pdr::")}
    present = set()
    for binary in args.binaries:
        present |= demangled_text_symbols(binary, "TtWw")

    unreached = sorted(defined - present)
    unreached_names = {qualified_name(s) for s in unreached}
    violations = [s for s in unreached if qualified_name(s) not in ALLOWLIST]
    stale = sorted(name for name in ALLOWLIST if name not in unreached_names)

    print(f"check_reachable: {len(defined)} library functions, "
          f"{len(defined) - len(unreached)} reached from {len(args.binaries)} binaries, "
          f"{len(unreached) - len(violations)} allowlisted")
    for s in violations:
        print(f"  UNREACHED {s}")
    for name in stale:
        print(f"  STALE ALLOWLIST ENTRY {name} (reached, or no longer defined)")
    if violations or stale:
        print("check_reachable: give each unreached function a production caller, "
              "delete it, or allowlist it with a reason", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
