#!/usr/bin/env python3
"""Link-time reachability guard for the pdr:: libraries.

Lists the `pdr::` functions that the static libraries define but that no
shipped binary contains, and fails on any of them that is not on the
allowlist below. An allowlist entry that no longer names an unreached
function also fails, so the list cannot go stale.

The binaries must be linked from objects compiled at -O0 with
-ffunction-sections -fdata-sections -fkeep-inline-functions and linked
with -Wl,--gc-sections: the linker then drops exactly the functions no
caller reaches. At -O2 a function inlined into every caller of its own
translation unit is dropped as well and would read as unreachable.

Both out-of-line functions (global text symbols) and header code (weak
symbols: inline functions, members of the explicitly instantiated class
templates) are checked. For weak symbols, compiler-generated
constructors, destructors, assignments and lambda bodies are skipped.
A template member counts as reached when any one of its instantiations
is reached.

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
    "pdr::sim::EventQueue::schedule":
        "test probe: unlabeled overload the simulator tests queue events with",
    "pdr::flow::ArtifactStore::clear":
        "test probe: resets the process-wide artifact store between tests",
    "pdr::util::Interner::operator=":
        "test probe: drives the arena rebinding the copy constructor shares",
    "pdr::aaa::Schedule::set_start": "test probe: schedule surgery for hazard fixtures",
    "pdr::aaa::Schedule::set_end": "test probe: schedule surgery for hazard fixtures",
    "pdr::aaa::Schedule::set_label": "test probe: schedule surgery for hazard fixtures",
    "pdr::aaa::Schedule::set_module": "test probe: schedule surgery for hazard fixtures",
    "pdr::dsp::Crc32::reset": "test probe: reuses one CRC engine across test vectors",
    "pdr::graph::Digraph::edge": "test probe: mutable edge payload (the const overload is reached)",
    "pdr::graph::ReadyTracker::complete":
        "test probe: allocating overload of the reached buffer-filling complete()",
    "pdr::mccdma::Transmitter::set_fixed_point":
        "test probe: switches to the Q15 datapath the float path is checked against",
    "pdr::obs::Gauge::add": "test probe: gauge arithmetic",
    "pdr::obs::Tracer::clear": "test probe: resets a tracer between cases",
    "pdr::Rng::normal": "test probe: scaled overload; the binaries draw standard normals",
    "pdr::sim::EventQueue::schedule_in": "test probe: relative-time overload of schedule",
    "pdr::sim::ExecutivePlayer::set_observability": "test probe: traces a player run",

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
    "pdr::sim::Timeline::busy": "test probe: busy time per resource",
    "pdr::sim::Timeline::total": "test probe: time per span kind",
    "pdr::svc::FleetCache::resident": "test probe: fleet cache residency",
    "pdr::synth::Placer::free_static_columns": "test probe: placer capacity",
    "pdr::verify::Certificate::expected_loads": "test probe: certified load sequence",
    "pdr::verify::Certificate::summary": "test probe: certificate verdict line",
    "pdr::verify::Violation::overlap_from": "test probe: hazard witness interval",
    "pdr::verify::Violation::overlap_to": "test probe: hazard witness interval",
    "pdr::dsp::ConvolutionalCode::constraint_length": "test probe: code parameter",
    "pdr::dsp::Prbs::period": "test probe: sequence period",
    "pdr::dsp::Q15::saturate": "test probe: Q15 arithmetic the fixed-point tests pin",
    "pdr::dsp::operator*": "test probe: Q15 arithmetic the fixed-point tests pin",
    "pdr::dsp::operator+": "test probe: Q15 arithmetic the fixed-point tests pin",
    "pdr::dsp::operator-": "test probe: Q15 arithmetic the fixed-point tests pin",
    "pdr::dsp::log2_pow2": "test probe: FFT stage count",
    "pdr::fabric::BitstreamWriter::bytes": "test probe: const view of the written stream",
    "pdr::fabric::ClbCols::operator==": "test probe: unit-typed column comparison",
    "pdr::fabric::SliceCols::operator==": "test probe: unit-typed column comparison",
    "pdr::fabric::ConfigMemory::upsets": "test probe: injected upset count",
    "pdr::fabric::ConfigPort::aborted_loads": "test probe: port tally",
    "pdr::fabric::ConfigPort::loads": "test probe: port tally",
    "pdr::fabric::ConfigPort::total_bytes": "test probe: port tally",
    "pdr::fabric::DeviceModel::total_luts": "test probe: device capacity",
    "pdr::fabric::Region::width_slice_cols": "test probe: region width in slice columns",
    "pdr::graph::Digraph::in_degree": "test probe: adjacency query",
    "pdr::graph::Digraph::out_degree": "test probe: adjacency query",
    "pdr::graph::Digraph::predecessors": "test probe: adjacency query",
    "pdr::graph::Digraph::reachable_from": "test probe: adjacency query",
    "pdr::graph::ReadyTracker::is_completed": "test probe: ready-set state",
    "pdr::graph::ReadyTracker::remaining": "test probe: ready-set state",
    "pdr::mccdma::AdaptiveController::switches": "test probe: controller switch count",
    "pdr::mccdma::ChannelEstimator::pilot_chips": "test probe: pilot sequence",
    "pdr::mccdma::Transmitter::fixed_point": "test probe: datapath in use",
    "pdr::mccdma::TransmitterSystem::manager": "test probe: the system's manager state",
    "pdr::netlist::Netlist::submodules": "test probe: elaborated hierarchy",
    "pdr::obs::Tracer::empty": "test probe: did anything record",
    "pdr::obs::Tracer::events": "test probe: recorded events",
    "pdr::rtr::BitstreamCache::entries": "test probe: cache tally",
    "pdr::rtr::BitstreamCache::evictions": "test probe: cache tally",
    "pdr::rtr::BitstreamCache::hit_rate": "test probe: cache tally",
    "pdr::rtr::BitstreamCache::hits": "test probe: cache tally",
    "pdr::rtr::BitstreamCache::misses": "test probe: cache tally",
    "pdr::rtr::BitstreamCache::used": "test probe: cache tally",
    "pdr::rtr::BitstreamStore::count": "test probe: stored bitstream count",
    "pdr::rtr::ReconfigManager::cache": "test probe: the manager's on-chip cache",
    "pdr::sim::EventQueue::now": "test probe: simulated clock",
    "pdr::sim::EventQueue::pending": "test probe: queued event count",
    "pdr::sim::Timeline::horizon": "test probe: end of the recorded spans",
    "pdr::sim::Timeline::spans": "test probe: recorded spans",
    "pdr::util::ArgParser::positional_count": "test probe: parsed positional count",
}


def demangled_symbols(path, kinds):
    """Returns the demangled names of defined symbols of the given nm kinds."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(parts[2])
    return names


_OPERATOR = re.compile(r"\boperator(\(\)|[^\w\s(]+| (?=\w))")


def normalized(signature):
    """Reduces a demangled function symbol to the identity the check
    counts: ABI tags, every template argument list and a template
    instance's return type are dropped, the parameter list is kept.
    `void pdr::g::Digraph<int, int>::f<char>(unsigned int) const` ->
    `pdr::g::Digraph::f(unsigned int) const`. Every instantiation of a
    template member thus shares one identity."""
    s = re.sub(r"\[abi:[^\]]*\]", "", signature)
    out = []
    depth = 0
    in_params = False
    i = 0
    while i < len(s):
        if depth == 0:
            m = _OPERATOR.match(s, i)
            if m and (i == 0 or not (s[i - 1].isalnum() or s[i - 1] == "_")):
                out.append(m.group(0).replace(" ", "\0"))  # `operator bool` is one token
                i = m.end()
                if s.startswith(" <", i):
                    i += 1  # `operator<< <T>`: the space only separates the tokens
                continue
            if s.startswith("(anonymous namespace)", i):
                out.append("(anonymous\0namespace)")
                i += len("(anonymous namespace)")
                continue
        ch = s[i]
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            if ch == "(" and not in_params:
                # The first top-level '(' opens the parameter list: what
                # precedes it, up to its last space, is a return type.
                head = "".join(out)
                out = [head[head.rfind(" ") + 1:]]
                in_params = True
            out.append(ch)
        i += 1
    return "".join(out).replace("\0", " ")


def qualified_name(identity):
    """`pdr::a::f(int) const` -> `pdr::a::f` (cuts at the parameter list)."""
    depth = 0
    for i, ch in enumerate(identity):
        if ch == "(" and depth == 0 and not identity.startswith("(anonymous", i) \
                and not identity.endswith("operator", 0, i):
            return identity[:i]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
    return identity


def is_compiler_noise(identity):
    """Weak symbols the compiler emits on its own: default, copy and move
    constructors and assignments, destructors, and lambda bodies."""
    if "::{lambda" in identity:
        return True
    name = qualified_name(identity)
    scope, _, last = name.rpartition("::")
    params = identity[len(name):].removesuffix(" const")
    special = ("()", f"({scope} const&)", f"({scope}&&)")
    if last == "operator=":
        return params in special[1:]
    return last.startswith("~") or (scope.endswith("::" + last) and params in special)


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

    # Out-of-line functions are global text symbols (T). Inline functions
    # and template instances are weak (W): they show up only when the
    # libraries are compiled with -fkeep-inline-functions and the class
    # templates are explicitly instantiated.
    defined = {"T": set(), "W": set()}
    for archive in archives:
        for kind, names in defined.items():
            for s in demangled_symbols(archive, kind):
                identity = normalized(s)
                if not identity.startswith("pdr::"):
                    continue  # includes std:: instances returning a pdr:: type
                if kind == "W" and is_compiler_noise(identity):
                    continue
                names.add(identity)
    present = set()
    for binary in args.binaries:
        present |= {normalized(s) for s in demangled_symbols(binary, "TtWw")}

    every = defined["T"] | defined["W"]
    unreached = sorted(every - present)
    unreached_names = {qualified_name(s) for s in unreached}
    violations = [s for s in unreached if qualified_name(s) not in ALLOWLIST]
    stale = sorted(name for name in ALLOWLIST if name not in unreached_names)

    print(f"check_reachable: {len(defined['T'])} out-of-line and "
          f"{len(defined['W'])} inline/template library functions, "
          f"{len(every) - len(unreached)} reached from {len(args.binaries)} binaries, "
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
