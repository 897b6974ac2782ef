#!/usr/bin/env python3
"""End-to-end benchmark of the pdrflow CLI.

    python3 perfbench/run.py --workload flow-20k --seed 1 --seconds 20 --trace 0

Builds `pdrflow` and `perfbench_tool` from the checkout's sources (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), generates the
workload's inputs from --seed, then runs the real CLI as a user would: one
child process at a time, `--jobs 2`: one untimed warm-up pass over the
workload's ops, then timed passes for at least --seconds and at least two
passes. Every op's output is checked; crashes and
failed checks count as failed ops and the run keeps going. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 also
replays one pass in-process with a span around every layer call
(`perfbench_tool trace`), writes the spans as Chrome trace-event JSON next to
the inputs, prints a per-layer table on stderr and reports the per-layer
metrics. perfbench/README.md maps each metric to its layer and workload.
"""

import argparse
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOBS = 2             # --jobs of every CLI child (a 4-core machine, one child at a time)
MIN_PASSES = 2       # timed passes; with the warm-up pass every op runs at least three times
SETUP_MIN_REPEATS = 5  # setup_s is the median of at least this many input generations,
SETUP_MIN_S = 3.0      # and of as many as fit in this long (machine speed drifts over seconds)
CHILD_TIMEOUT_S = 60

# Workload sizes. "full" keeps one pass over a workload's ops at about two
# seconds, so a run's goodput is the median of many passes; "smoke" keeps
# every workload's shape (and the layered project's known PDR065 failure) at
# a size the benchmark's tests run in seconds.
SCALES = {
    "full": {"flow_ops": 20_000, "explore_ops": 2_000,
             "sparse": (200, 5_000, 250), "faulted": (64, 12_000, 200)},
    "smoke": {"flow_ops": 2_000, "explore_ops": 400,
              "sparse": (10, 400, 100), "faulted": (8, 600, 100)},
}
EXPLORE_POINTS = 432  # 3 strategies x 2 prefetch x 3x3 preloads (2 regions) x 2^3 selections


class BenchError(Exception):
    """Set-up failure: the benchmark cannot produce a result."""


def sub_seed(seed, name):
    """Per-input seed, a pure function of (workload seed, input name)."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{name}".encode()).digest()[:4], "little") + 1


# --- inputs and ops ----------------------------------------------------------

@dataclass
class Project:
    name: str
    shape: str
    ops: int
    width: int
    regions: int
    conditioned: int = 0  # 0 = the generator's default spacing


@dataclass
class Requests:
    name: str
    devices: int
    requests: int
    horizon_ms: int


@dataclass
class Op:
    kind: str          # check | adequation | explore | floorplan | serve
    label: str
    path: Path         # the op's input file
    expect: int        # check/adequation: algorithm ops; explore: points; serve: requests
    flags: list = field(default_factory=list)
    pdr065_expected: bool = False  # known defect 1: this op's failure may be PDR065 only


def fault_spec_text(seed, horizon_ms):
    """The serve-faulted campaign: SEUs on D1, port aborts, corrupted qam16
    fetches and a qam16 store outage over the middle fifth of the horizon.
    The seed drives the campaign's random streams; the window is fixed so
    every seed sees the same overload shape."""
    return (f"seed {sub_seed(seed, 'faults')}\nhorizon_ms {horizon_ms}\n"
            "seu D1 rate 400\nport abort_prob 0.05\nfetch corrupt qam16 prob 0.2\n"
            f"store damage qam16 at_ms {horizon_ms * 2 // 5}\n"
            f"store repair qam16 at_ms {horizon_ms * 3 // 5}\n")


def workload(name, scale, work):
    """Returns (inputs, fault_specs, ops) of one workload; paths under `work`."""
    s = SCALES[scale]
    if name == "flow-20k":
        n = s["flow_ops"]
        projects = [Project("layered", "layered", n, 20, 4), Project("random", "random", n, 20, 4),
                    Project("streaming", "streaming", n, 8, 4)]
        ops = []
        for p in projects:
            path = work / f"{p.name}.project"
            layered = p.shape == "layered"
            ops.append(Op("check", p.name, path, n, ["--deep"], pdr065_expected=layered))
            ops.append(Op("adequation", p.name, path, n, pdr065_expected=layered))
        return projects, {}, ops
    if name == "explore-2k":
        n = s["explore_ops"]
        projects = [Project("layered", "layered", n, 20, 2, conditioned=3),
                    Project("random", "random", n, 20, 2, conditioned=3)]
        ops = []
        for p in projects:
            path = work / f"{p.name}.project"
            ops.append(Op("explore", p.name, path, EXPLORE_POINTS, ["--max-points", "4096"]))
            ops.append(Op("floorplan", p.name, path, 0))
        return projects, {}, ops
    if name in ("serve-sparse", "serve-faulted"):
        kind = name.split("-")[1]
        devices, count, horizon = s[kind]
        log = Requests(kind, devices, count, horizon)
        flags = []
        specs = {}
        if kind == "faulted":
            spec = work / "faulted.faults"
            specs[spec] = horizon
            flags = ["--queue", "4", "--faults", str(spec)]
        return [log], specs, [Op("serve", kind, work / f"{kind}.requests", count, flags)]
    raise BenchError(f"unknown workload '{name}'")


# --- build and set-up --------------------------------------------------------

def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "pdrflow_cli.cpp").is_file():
        raise BenchError(f"no pdrflow sources under {ROOT}")
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4", "--target", "pdrflow",
                    "perfbench_tool"], check=True, stdout=log, stderr=log)
    return build_dir / "tools" / "pdrflow", build_dir / "perfbench_tool"


def generate(tool, inputs, specs, work, seed):
    """Writes every input file once; returns the tool's per-input summaries."""
    summaries = {}
    for item in inputs:
        if isinstance(item, Project):
            argv = [str(tool), "project", str(work / f"{item.name}.project"), "--shape", item.shape,
                    "--ops", str(item.ops), "--width", str(item.width), "--regions",
                    str(item.regions), "--seed",
                    str(sub_seed(seed, item.name))]
            if item.conditioned:
                argv += ["--conditioned", str(item.conditioned)]
        else:
            argv = [str(tool), "requests", str(work / f"{item.name}.requests"), "--devices",
                    str(item.devices), "--requests", str(item.requests), "--horizon-ms",
                    str(item.horizon_ms), "--seed",
                    str(sub_seed(seed, item.name))]
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"input generation failed: {done.stderr.strip()}")
        summaries[item.name] = json.loads(done.stdout)
    for path, horizon in specs.items():
        path.write_text(fault_spec_text(seed, horizon))
    return summaries


def setup(tool, inputs, specs, work, seed):
    """Generates the inputs repeatedly; returns the median seconds."""
    times = []
    summaries = {}
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        summaries = generate(tool, inputs, specs, work, seed)
        times.append(time.perf_counter() - t0)
    for item in inputs:
        got = summaries[item.name]
        want = item.ops if isinstance(item, Project) else item.requests
        have = got["ops"] if isinstance(item, Project) else got["requests"]
        if have != want or (isinstance(item, Project) and item.conditioned
                            and got["conditioned"] != item.conditioned):
            raise BenchError(f"generated {item.name} does not match its spec: {got}")
    return statistics.median(times)


# --- one CLI child -----------------------------------------------------------

def run_child(argv, out_path, err_path):
    """Runs one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Result:
    op: Op
    ok: bool
    wall: float
    rss_mb: float
    items: int = 0        # successful work units (0 when the op failed)
    attempted_items: int = 0
    known_defect: bool = False
    reason: str = ""
    values: dict = field(default_factory=dict)


PDR065_LINE = re.compile(rb"error PDR065 \[buffer \S+ on [^\]]+\]: .*")
DRC_FAILED = b"pdrflow: schedule/executive failed the design-rule check"


def only_pdr065(text):
    """True when `text` is a lint report whose every line is a PDR065 error
    (known defect 1), closed by a matching `N error(s), 0 warning(s)` tally;
    adequation's stderr may end with the CLI's design-rule failure line."""
    lines = text.splitlines()
    if lines and lines[-1] == DRC_FAILED:
        lines.pop()
    if len(lines) < 2 or lines[-1] != b"%d error(s), 0 warning(s)" % (len(lines) - 1):
        return False
    return all(PDR065_LINE.fullmatch(line) for line in lines[:-1])


def report_errors(text):
    """The `N error(s)` tally of a lint report, 0 for a clean verdict."""
    m = re.search(rb"^(\d+) error\(s\), \d+ warning\(s\)$", text, re.M)
    return int(m.group(1)) if m else 0


SERVE_DISPOSITIONS = ("completed", "degraded", "failed", "timed_out", "rejected_queue_full",
                      "rejected_breaker_open", "shed")


def check_output(op, rc, out_path, err_path, res):
    """Fills `res` from the op's exit code and output; returns the stdout
    digest (None when there is nothing to compare across passes)."""
    err = err_path.read_bytes()
    if op.kind == "check":
        out = out_path.read_bytes()
        res.known_defect = op.pdr065_expected and rc == 1 and only_pdr065(out)
        res.values["errors"] = report_errors(out)
        if rc != 0 or out != f"{op.path}: clean (0 diagnostics)\n".encode():
            res.reason = f"check --deep verdict not clean (exit {rc})"
            return None
        res.items = op.expect
        return hashlib.sha256(out).hexdigest()
    if op.kind == "adequation":
        res.known_defect = op.pdr065_expected and rc == 1 and only_pdr065(err)
        if rc != 0:
            res.reason = f"exit {rc}"
            return None
        with open(out_path, "rb") as f:
            head = f.readline().decode(errors="replace")
        m = re.match(r"project '[^']*': (\d+) operations on \d+ operators", head)
        if not m or int(m.group(1)) != op.expect:
            res.reason = f"op count not echoed: {head.strip()!r}"
            return None
        res.items = op.expect
        res.values["stdout_bytes"] = out_path.stat().st_size
        return file_digest(out_path)
    if op.kind == "explore":
        text = out_path.read_text(errors="replace")
        m = re.search(rb"explore: (\d+) points, jobs=\d+, \d+ ms wall, (\d+) pruned, (\d+) failed",
                      err)
        front = re.search(r"^\| 1 +\| +([0-9.]+) +\|", text, re.M)
        if rc != 0 or not m or not front or int(m.group(1)) != op.expect:
            res.reason = f"exit {rc}, tally {m.group(0) if m else None}, front {bool(front)}"
            return None
        res.items = op.expect
        res.values.update(points=int(m.group(1)), pruned_points=int(m.group(2)),
                          failed_points=int(m.group(3)))
        res.values["makespan_ms"] = float(front.group(1)) / 1e3
        return hashlib.sha256(text.encode()).hexdigest()
    if op.kind == "floorplan":
        m = re.search(rb"floorplan: \d+ region\(s\), (\d+) rounds, (\d+) schedules evaluated", err)
        if m:
            res.attempted_items = int(m.group(2))
        if rc != 0 or not m:
            res.reason = f"exit {rc} (lint-dirty or uncertified plan)"
            return None
        res.items = int(m.group(2))
        res.values.update(rounds=int(m.group(1)), evals=int(m.group(2)))
        return hashlib.sha256(out_path.read_bytes()).hexdigest()
    if op.kind == "serve":
        text = out_path.read_text(errors="replace")
        counts = {d: int(v) for d, v in re.findall(r"^  (\w+) +(\d+)$", text, re.M)
                  if d in SERVE_DISPOSITIONS}
        rows = re.findall(r"^  #\d+ .*-> (\w+)(.*)$", text, re.M)
        row_counts = {d: 0 for d in SERVE_DISPOSITIONS}
        stalls = []
        for disposition, rest in rows:
            row_counts[disposition] = row_counts.get(disposition, 0) + 1
            if disposition in ("completed", "degraded"):
                stalls.append(float(re.search(r"stall +([0-9.]+) us", rest).group(1)) / 1e3)
        if (rc != 0 or len(counts) != len(SERVE_DISPOSITIONS) or sum(counts.values()) != op.expect
                or len(rows) != op.expect or row_counts != counts):
            res.reason = f"exit {rc}, dispositions {counts}, {len(rows)} table rows"
            return None
        res.items = counts["completed"] + counts["degraded"]
        res.values["stalls_ms"] = stalls
        res.values["admitted"] = int(re.search(r"^  admitted +(\d+)$", text, re.M).group(1))
        return hashlib.sha256(text.encode()).hexdigest()
    raise BenchError(f"unknown op kind '{op.kind}'")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_op(pdrflow, op, work, digests):
    """Runs one op through the CLI and checks it. `digests` maps op -> the
    first pass's stdout digest; a later pass must reproduce it."""
    argv = [str(pdrflow), op.kind, *([str(op.path)] if op.kind != "serve" else
                                     ["--requests", str(op.path)]), *op.flags, "--jobs", str(JOBS)]
    out_path = work / f"{op.kind}-{op.label}.stdout"
    err_path = work / f"{op.kind}-{op.label}.stderr"
    rc, wall, rss = run_child(argv, out_path, err_path)
    res = Result(op, False, wall, rss, attempted_items=op.expect)
    try:
        digest = check_output(op, rc, out_path, err_path, res)
    except (OSError, ValueError, AttributeError) as e:
        digest, res.reason = None, f"unreadable output: {e}"
    if digest is not None:
        key = (op.kind, op.label)
        if digests.setdefault(key, digest) != digest:
            res.reason = "stdout differs from the op's first pass"
        else:
            res.ok = True
    if not res.ok:
        res.items = 0
        if res.known_defect:
            res.reason += " [known defect: PDR065 parallel-edge buffers]"
        print(f"perfbench: {op.kind} {op.label} failed: {res.reason}", file=sys.stderr)
    return res


def measure(pdrflow, ops, work, seconds):
    """Runs one warm-up pass over `ops`, then timed passes until `seconds`
    have elapsed and at least MIN_PASSES are done. Returns (warm-up results,
    one result list per timed pass); the warm-up is checked like any pass
    but not timed."""
    digests = {}
    warmup = [run_op(pdrflow, op, work, digests) for op in ops]
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append([run_op(pdrflow, op, work, digests) for op in ops])
    return warmup, passes


# --- metrics -----------------------------------------------------------------

def ratio(num, den):
    return num / den if den > 0 else 0.0


def percentile(values, p):
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def end_to_end(passes, setup_s):
    """Goodput is the median over passes: a pass is one run of every op,
    so one slow child moves only its own pass."""
    results = [r for p in passes for r in p]
    goodput = [ratio(sum(r.items for r in p), sum(r.wall for r in p)) for p in passes]
    return {
        "setup_s": (setup_s, "s"),
        "goodput_per_s": (statistics.median(goodput), "items/s"),
        "success_frac": (ratio(sum(r.items for r in results),
                               sum(r.attempted_items for r in results)), "fraction"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
    }


def per_command(results, kind):
    """Goodput of one CLI command: its successful items / its summed wall."""
    mine = [r for r in results if r.op.kind == kind]
    return ratio(sum(r.items for r in mine), sum(r.wall for r in mine))


DIRECT_LAYERS = ("aaa.parse", "aaa.schedule", "aaa.executive", "lint.schedule", "lint.executive",
                 "verify.certify")


def traced(tool, ops, results, work):
    """Runs the in-process traced replay of one pass; returns (per-layer
    metrics, consistency problems)."""
    plan = work / "trace.plan"
    lines = []
    for op in ops:
        line = f"{op.kind} {op.label} {op.path}"
        if op.kind == "explore":
            line += f" {JOBS} 4096"
        elif op.kind == "serve":
            queue = op.flags[op.flags.index("--queue") + 1] if "--queue" in op.flags else "8"
            faults = op.flags[op.flags.index("--faults") + 1] if "--faults" in op.flags else "-"
            line += f" {queue} {JOBS} {faults}"
        lines.append(line)
    plan.write_text("\n".join(lines) + "\n")
    trace_path = work / "trace.json"
    done = subprocess.run([str(tool), "trace", str(plan), "--trace-out", str(trace_path)],
                          stdout=sys.stderr, stderr=sys.stderr, timeout=150)
    if done.returncode != 0:
        raise BenchError("traced run failed")
    events = [e for e in json.loads(trace_path.read_text())["traceEvents"] if e.get("ph") == "X"]
    for e in events:
        e["s"] = e["dur"] / 1e6
        e["args"] = {k: (v if k in ("op", "point_ms", "error") else float(v))
                     for k, v in e.get("args", {}).items()}
    layer = [e for e in events if e.get("cat") in ("layer", "probe")]
    op_spans = {e["name"]: e for e in events if e.get("cat") == "op"}
    problems = [f"traced {name}: {e['args']['error']}" for name, e in op_spans.items()
                if "error" in e["args"]]

    def spans(name):
        return [e for e in layer if e["name"] == name]

    def total(name, key=None):
        return sum(e["args"].get(key, 0.0) if key else e["s"] for e in spans(name))

    # Untraced wall per op (median over passes) against the traced layer sum.
    walls = {}
    for r in results:
        walls.setdefault(f"{r.op.kind} {r.op.label}", []).append(r.wall)
    attribution = []
    overhead = 0.0
    for name in op_spans:
        mine = [e for e in layer if e["args"].get("op") == name]
        direct = sum(e["s"] for e in mine if e["name"] in DIRECT_LAYERS)
        if any(e["name"] == "flow.pipeline" for e in mine):  # direct calls repeat its work
            attributed = sum(e["s"] for e in mine if e["name"] not in DIRECT_LAYERS)
            overhead += sum(e["s"] for e in mine if e["name"] == "flow.pipeline") - direct
        else:
            attributed = sum(e["s"] for e in mine)
        cli_wall = statistics.median(walls.get(name, [0.0]))
        attribution.append((name, cli_wall, attributed, cli_wall - attributed))

    # The replay must mirror the CLI: same counts, same bytes. A check op
    # is compared whether or not it passed, so the layered project's
    # PDR065 tally is pinned too.
    by_op = {f"{r.op.kind} {r.op.label}": r for r in results if r.ok or r.op.kind == "check"}

    def mirror(events, what):
        """Adds a problem for each (traced arg, CLI value key) that differs."""
        for e in events:
            r = by_op.get(e["args"].get("op", e["name"]))
            for arg, key in what:
                if r and key in r.values and r.values[key] != e["args"].get(arg):
                    problems.append(f"{r.op.kind} {r.op.label}: traced {arg} "
                                    f"{e['args'].get(arg)}, CLI {r.values[key]}")

    mirror(op_spans.values(), [("errors", "errors")])
    mirror(spans("cli.render"), [("bytes", "stdout_bytes")])
    mirror(spans("flow.explore"), [(k, k) for k in ("points", "pruned_points", "failed_points")])
    mirror(spans("plan.floorplan"), [("evals", "evals"), ("rounds", "rounds")])
    mirror(spans("svc.run"), [("admitted", "admitted")])

    points = [float(x) for e in spans("flow.explore") for x in e["args"]["point_ms"].split(",")]
    explore_s = total("flow.explore")
    floorplan_s = total("plan.floorplan")
    evals = total("plan.floorplan", "evals")
    run_s = total("svc.run")
    ticks = total("svc.run", "ticks")
    device_ticks = sum(e["args"]["ticks"] * e["args"]["devices"] for e in spans("svc.run"))
    first_pass = [r for r in results[:len(ops)] if r.ok]
    stalls = [x for r in first_pass if r.op.kind == "serve" for x in r.values["stalls_ms"]]
    explores = [r for r in first_pass if r.op.kind == "explore"]
    parse_s = total("aaa.parse")
    metrics = {
        "aaa.parse_s": (parse_s, "s"),
        "aaa.parse_mb_per_s": (ratio(total("aaa.parse", "bytes") / 1e6, parse_s), "MB/s"),
        "aaa.schedule_s": (total("aaa.schedule"), "s"),
        "aaa.schedule_items": (total("aaa.schedule", "items"), "count"),
        "aaa.executive_s": (total("aaa.executive"), "s"),
        "lint.schedule_s": (total("lint.schedule"), "s"),
        "lint.executive_s": (total("lint.executive"), "s"),
        "lint.errors": (total("lint.executive", "errors"), "count"),
        "verify.certify_s": (total("verify.certify"), "s"),
        "verify.pruned_points": (total("flow.explore", "pruned_points"), "count"),
        "flow.overhead_s": (overhead, "s"),
        "flow.explore_s": (explore_s, "s"),
        "flow.point_ms_p50": (percentile(points, 50), "ms"),
        "flow.point_ms_p99": (percentile(points, 99), "ms"),
        "flow.pool_util": (ratio(sum(points) / 1e3, explore_s * JOBS), "fraction"),
        "flow.failed_points": (total("flow.explore", "failed_points"), "count"),
        "flow.best_makespan_ms": (sum(r.values["makespan_ms"] for r in explores), "ms"),
        "plan.floorplan_s": (floorplan_s, "s"),
        "plan.evals": (evals, "count"),
        "plan.eval_ms": (ratio(floorplan_s * 1e3, evals), "ms"),
        "plan.rounds": (total("plan.floorplan", "rounds"), "count"),
        "synth.bundle_s": (total("synth.bundle"), "s"),
        "svc.parse_log_s": (total("svc.parse_log"), "s"),
        "svc.lint_s": (total("svc.lint"), "s"),
        "svc.run_s": (run_s, "s"),
        "svc.render_s": (total("svc.render"), "s"),
        "svc.report_mb": (total("svc.render", "bytes") / 1e6, "MB"),
        "svc.us_per_device_tick": (ratio(run_s * 1e6, device_ticks), "us"),
        "svc.ticks": (ticks, "count"),
        "svc.cache_hit_ratio": (ratio(total("svc.run", "cache_hits"),
                                      total("svc.run", "cache_lookups")), "fraction"),
        "svc.admitted": (total("svc.run", "admitted"), "count"),
        "svc.rerouted": (total("svc.run", "rerouted"), "count"),
        "svc.stall_p50_ms": (percentile(stalls, 50), "ms"),
        "svc.stall_p99_ms": (percentile(stalls, 99), "ms"),
        "rtr.ns_per_byte_loaded": (ratio(run_s * 1e9, total("svc.run", "bytes_loaded")), "ns/B"),
        "rtr.loads": (total("svc.run", "loads"), "count"),
        "rtr.retries": (total("svc.run", "retries"), "count"),
        "rtr.load_failures": (total("svc.run", "load_failures"), "count"),
        "rtr.scrubs": (total("svc.run", "scrubs"), "count"),
        "rtr.scrub_repairs": (total("svc.run", "scrub_repairs"), "count"),
        "fault.seus": (total("svc.run", "seus"), "count"),
        "fabric.validate_mb_per_s": (ratio(total("fabric.validate", "bytes") / 1e6,
                                           total("fabric.validate")), "MB/s"),
        "dsp.crc32_mb_per_s": (ratio(total("dsp.crc32", "bytes") / 1e6, total("dsp.crc32")), "MB/s"),
        "cli.render_s": (total("cli.render"), "s"),
        "cli.render_mb": (total("cli.render", "bytes") / 1e6, "MB"),
        "cli.export_s": (total("cli.export"), "s"),
        "cli.unattributed_s": (sum(a[3] for a in attribution), "s"),
        "cli.check_ops_per_s": (per_command(results, "check"), "ops/s"),
        "cli.adequation_ops_per_s": (per_command(results, "adequation"), "ops/s"),
        "cli.explore_points_per_s": (per_command(results, "explore"), "points/s"),
        "cli.floorplan_evals_per_s": (per_command(results, "floorplan"), "evals/s"),
        "cli.served_per_s": (per_command(results, "serve"), "req/s"),
    }
    print_tables(layer, op_spans, attribution, trace_path)
    return metrics, problems


def print_tables(layer, op_spans, attribution, trace_path):
    """Per-layer self time (leaf spans: self = duration) and per-op
    attribution of the untraced CLI wall, on stderr."""
    out = sys.stderr
    print(f"\ntrace: {trace_path}", file=out)
    print(f"{'layer span':<22}{'cat':<7}{'calls':>6}{'self s':>10}", file=out)
    by_name = {}
    for e in layer:
        key = (e["name"], e["cat"])
        calls, s = by_name.get(key, (0, 0.0))
        by_name[key] = (calls + 1, s + e["s"])
    for (name, cat), (calls, s) in sorted(by_name.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<22}{cat:<7}{calls:>6}{s:>10.3f}", file=out)
    for name, e in op_spans.items():
        children = sum(c["s"] for c in layer if c["args"].get("op") in (name, "probe " + name))
        print(f"{'(op self) ' + name:<35}{e['s'] - children:>10.3f}", file=out)
    print(f"\n{'op':<24}{'CLI wall s':>11}{'traced s':>10}{'unattributed s':>16}", file=out)
    for name, wall, attributed, rest in attribution:
        print(f"{name:<24}{wall:>11.3f}{attributed:>10.3f}{rest:>16.3f}", file=out)


def is_correct(results, problems):
    """Failures of the layered flow-20k ops whose whole report is PDR065
    (known defect 1) are counted but do not make the run incorrect; any
    other failure, or a traced replay that disagrees with the CLI, does."""
    return not problems and all(r.ok or r.known_defect for r in results)


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args()

    try:
        build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
        pdrflow, tool = build(build_dir)
        work = build_dir / "work" / f"{args.workload}-{args.scale}-{args.seed}"
        work.mkdir(parents=True, exist_ok=True)
        inputs, specs, ops = workload(args.workload, args.scale, work)
        setup_s = setup(tool, inputs, specs, work, args.seed)
        warmup, passes = measure(pdrflow, ops, work, args.seconds)
        timed = [r for p in passes for r in p]
        results = warmup + timed
        problems = []
        if args.trace:
            metrics, problems = traced(tool, ops, timed, work)
        else:
            metrics = end_to_end(passes, setup_s)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"perfbench: traced replay disagrees with the CLI: {p}", file=sys.stderr)

    failed = [r for r in results if not r.ok]
    print(json.dumps({
        "correct": is_correct(results, problems),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
