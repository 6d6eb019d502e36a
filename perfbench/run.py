"""symclone benchmark: closed-loop workloads with one client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; symclone is imported from ./src.  Every
op runs in a fresh worker interpreter (worker.py) with BLAS threads fixed at
1, one process at a time.  Work is measured in whole passes over a fixed op
list until --seconds have gone by.  End-to-end times are scaled to a fixed
reference speed (reference.py), because the host's speed drifts.

With --trace 0 the last stdout line carries the end-to-end metrics of the
named workload.  With --trace 1 it carries the per-layer metrics of the
traced layer run, which makes one untraced and one traced pass of every
workload, so that every layer is measured whatever workload is named.  The
line before it is a JSON detail record: environment, cells, fail ratio, tail
percentile, cache counts and exact counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import REFERENCE_S, reference

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
TOL = 1e-10
TRACE_TOL = 1e-9  # unit trace of the CLI's output, as symclone validates inputs
LAYER_WARM_PASSES = 3

# Seven cells or requests per pass, so the median and the tail fall inside
# one cell's samples rather than on the edge between two cells.  `tail` is
# the highest of p99, p95, p90, p75 and p50 that left at least ten samples
# beyond it in every 20 s run seen; it is fixed so that a sample count near
# a threshold cannot switch the percentile from run to run.
WORKLOADS = {
    "verify_all": {"quick": False, "tail": 50},
    "clone_cold": {
        "cells": [(2, 20, 400), (3, 6, 30), (4, 4, 16), (5, 2, 10), (3, 20, 24), (3, 1, 100), (4, 1, 30)],
        "tail": 50,
    },
    "clone_warm": {
        "cells": [(2, 20, 400), (3, 6, 30), (4, 4, 16), (5, 2, 10), (3, 20, 24), (2, 1, 200), (3, 2, 20)],
        "inputs": 3,
        "children": 4,
        "tail": 99,
    },
    # (d, m, l, --oracle); oracle requests stay far inside oracle.MEMORY_GUARD
    "cli_clone": {
        "requests": [(2, 1, 4, True), (3, 1, 3, True), (3, 2, 4, True), (2, 3, 16, False),
                     (3, 2, 10, False), (4, 1, 6, False), (5, 1, 4, False)],
        "probes": 5,
        "tail": 75,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


@dataclass
class Child:
    ready_s: float | None
    wall_s: float
    rc: int
    result: dict | None


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn_worker(spec: dict, wait_ready: bool = True) -> Child:
    """Run one worker to completion; time it from spawn to `ready` and to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    ready_s = None
    try:
        first = proc.stdout.readline() if wait_ready else ""
        if first.strip() == "ready":
            ready_s = time.perf_counter() - start
            first = ""
        out = first + proc.stdout.read()
        proc.wait()
        wall_s = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        result = None
    return Child(ready_s, wall_s, proc.returncode, result)


@dataclass
class Tally:
    """What one run observed, before it is reduced to metrics."""

    # samples are (seconds, number of reference times taken before them)
    setup_s: list = field(default_factory=list)
    latency_s: dict = field(default_factory=dict)  # op slot in a pass -> samples
    requests: list = field(default_factory=list)  # each a list of samples
    ops_per_pass: int = 0
    rss_kib: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gen_s: float = 0.0
    problems: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    caches: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    channel_s: dict = field(default_factory=lambda: {"cold": 0.0, "warm": 0.0})
    cli_process_s: float = 0.0

    def calibrate(self) -> None:
        self.reference_s.append(reference())

    def setup(self, seconds: float) -> None:
        self.setup_s.append((seconds, len(self.reference_s)))

    def sample(self, slot, seconds: float, at: int | None = None, request: bool = True) -> tuple:
        """Record an op's time; by default the op is also one request."""
        sample = (seconds, len(self.reference_s) if at is None else at)
        self.latency_s.setdefault(slot, []).append(sample)
        if request:
            self.requests.append([sample])
        return sample

    def scale(self, at: int) -> float:
        """REFERENCE_S over the median of the reference times nearest a sample."""
        window = self.reference_s[max(0, at - 3):at + 2]
        return REFERENCE_S / statistics.median(window)

    def count(self, key: str, value) -> None:
        """Record an exact count; a count that differs on repeat is a problem."""
        if self.counts.setdefault(key, value) != value:
            self.problems.append(f"{key} did not repeat: {self.counts[key]} then {value}")

    def absorb(self, result: dict) -> None:
        self.caches.append(result["cache"])
        if "spans" in result:
            self.spans.append(result["spans"])

    def lost(self, what: str, child: Child) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: worker exited {child.rc} without a result")


def verify_pass(spec, seed, tally: Tally, trace: bool) -> float:
    tally.calibrate()
    child = spawn_worker({"kind": "verify_all", "seed": seed, "quick": spec["quick"], "trace": trace})
    r = child.result
    if r is None:
        tally.lost("verify_all", child)
        return child.wall_s
    tally.setup(child.ready_s)
    tally.sample("run_suite", r["wall_s"])
    tally.ops_per_pass = r["attempted"]
    tally.attempted += r["attempted"]
    tally.failed += r["failed"]
    tally.rss_kib.append(r["maxrss_kib"])
    tally.count("verify.cases", r["attempted"])
    tally.count("verify.failed", r["failed"])
    tally.count("verify.cases_by_suite", r.get("cases_by_suite"))
    tally.absorb(r)
    return r["wall_s"]


def cold_pass(spec, seed, tally: Tally, trace: bool, index: int) -> float:
    # One request is the whole pass: a run holds at most six samples of each
    # cell, too few for a steady median of single-cell latencies.
    total, peak, request = 0.0, 0, []
    for ci, cell in enumerate(spec["cells"]):
        tally.calibrate()
        child = spawn_worker(
            {"kind": "clone_cold", "cell": cell, "seed": seed, "pass": index, "index": ci, "trace": trace}
        )
        r = child.result
        if r is None:
            tally.lost(f"clone_cold {cell}", child)
            continue
        tally.setup(child.ready_s)
        request.append(tally.sample(ci, r["op_s"], request=False))
        tally.gen_s += r["gen_s"]
        tally.attempted += 1
        tally.failed += not r["ok"]
        total += r["op_s"]
        peak = max(peak, r["maxrss_kib"])
        before = r["cache_before"]
        # the input's own basis (d, m) is the one entry allowed before the op
        if (before["clone_amplitudes"]["currsize"] or before["generators"]["currsize"]
                or before["enumerate_basis"]["currsize"] > 1):
            tally.problems.append(f"clone_cold {cell} started with a filled cache: {before}")
        if trace and "cold_s" in r:
            tally.channel_s["cold"] += r["cold_s"]
            tally.channel_s["warm"] += r["warm_s"]
        tally.absorb(r)
    tally.requests.append(request)
    tally.ops_per_pass = len(spec["cells"])
    tally.rss_kib.append(peak)
    return total


def warm_child(spec, seed, tally: Tally, trace: bool, index: int, **stop) -> float:
    tally.calibrate()
    child = spawn_worker(
        {"kind": "clone_warm", "cells": spec["cells"], "inputs": spec["inputs"],
         "seed": seed, "child": index, "trace": trace, **stop}
    )
    r = child.result
    if r is None:
        tally.lost("clone_warm", child)
        return child.wall_s
    tally.setup(child.ready_s - r["gen_s"])
    tally.gen_s += r["gen_s"]
    # the worker times the reference after each of its passes
    k, base = len(spec["cells"]), len(tally.reference_s)
    for i, op_s in enumerate(r["op_s"]):
        tally.sample(i % k, op_s, at=base + i // k)
    tally.reference_s.extend(r["reference_s"])
    tally.ops_per_pass = len(spec["cells"])
    tally.attempted += r["attempted"]
    tally.failed += r["failed"]
    tally.rss_kib.append(r["maxrss_kib"])
    for name in ("clone_amplitudes", "enumerate_basis"):
        added = r["cache"][name]["misses"] - r["cache_before"][name]["misses"]
        if added:
            tally.problems.append(f"clone_warm timed phase added {added} {name} misses")
    tally.absorb(r)
    return sum(r["op_s"])


def cli_inputs(spec, seed, workdir: Path, tally: Tally) -> list[dict]:
    """Write the seeded input files; the expected reduced output comes from
    the closed-form contraction law, not from the channel under test."""
    import numpy as np

    import symclone as sc
    import worker

    requests = []
    for i, (d, m, l, oracle) in enumerate(spec["requests"]):
        start = time.perf_counter()
        x = worker.make_input(sc, d, m, seed, i)
        path = workdir / f"in{i}.json"
        sc.write_sym_operator(path, x)
        tally.gen_s += time.perf_counter() - start
        eta = float(sc.shrink(d, m, l))
        target = eta * sc.reduce_one(x).entries + (1 - eta) / d * np.eye(d)
        out = workdir / f"out{i}.json"
        argv = ["clone", str(path), "--l", str(l), "--reduced", "--out", str(out)]
        requests.append({"argv": argv + ["--oracle"] * oracle, "d": d, "l": l,
                         "oracle": oracle, "target": target, "out": out})
    return requests


def cli_output_ok(req: dict) -> tuple[bool, int]:
    """Check one `symclone clone` output file, then delete it."""
    import numpy as np

    path = req["out"]
    try:
        nbytes = path.stat().st_size
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        d, l = req["d"], req["l"]
        n = math.comb(l + d - 1, d - 1)
        pairs = np.array(doc["entries"], dtype=float)
        reduced = np.array(doc["reduced"], dtype=float)
        if doc["d"] != d or doc["m"] != l or pairs.shape != (n * n, 2) or reduced.shape != (d * d, 2):
            return False, nbytes
        if not (np.isfinite(pairs).all() and np.isfinite(reduced).all()):
            return False, nbytes
        full = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n)
        if not abs(np.trace(full) - 1) <= TRACE_TOL:
            return False, nbytes
        got = (reduced[:, 0] + 1j * reduced[:, 1]).reshape(d, d)
        r = float(np.max(np.abs(got - req["target"])))
        ok = math.isfinite(r) and r <= TOL
        if req["oracle"]:
            o = doc["oracle_residual"]
            ok = ok and isinstance(o, float) and math.isfinite(o) and o <= TOL
        return ok, nbytes
    except (OSError, KeyError, TypeError, ValueError):
        return False, 0


def cli_pass(requests, tally: Tally, trace: bool) -> float:
    total, peak, written = 0.0, 0, 0
    for i, req in enumerate(requests):
        tally.calibrate()
        child = spawn_worker({"kind": "cli", "argv": req["argv"], "trace": trace}, wait_ready=False)
        tally.sample(i, child.wall_s)
        total += child.wall_s
        tally.attempted += 1
        ok, nbytes = cli_output_ok(req) if child.rc == 0 else (False, 0)
        tally.failed += not ok
        written += nbytes
        if child.result is None:
            tally.problems.append(f"request {req['argv']} exited {child.rc} without a result")
            continue
        peak = max(peak, child.result["maxrss_kib"])
        tally.absorb(child.result)
        if trace:
            tally.cli_process_s += child.wall_s - child.result["spans"]["cli.main"]["total_s"]
    tally.count("serialize.bytes_written", written)
    tally.ops_per_pass = len(requests)
    tally.rss_kib.append(peak)
    return total


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(t: Tally, tail: float, scale) -> dict:
    """Metrics with every sample multiplied by scale(its reference index)."""
    latency = {slot: [s * scale(at) for s, at in xs] for slot, xs in t.latency_s.items()}
    wall = sum(statistics.median(xs) for xs in latency.values())  # the median pass, op by op
    ms = [sum(s * scale(at) for s, at in request) * 1e3 for request in t.requests]
    return {
        "setup_s": statistics.median(s * scale(at) for s, at in t.setup_s),
        "wall_s": wall,
        "ops_per_s": t.ops_per_pass * (t.attempted - t.failed) / t.attempted / wall,
        "op_p50_ms": percentile(ms, 50),
        "op_tail_ms": percentile(ms, tail),
        "peak_rss_mib": statistics.median(t.rss_kib) / 1024,
    }


def cell_shape(d: int, m: int, l: int) -> dict:
    def dim(n):
        return math.comb(n + d - 1, d - 1)

    return {"d": d, "m": m, "l": l, "d_in": dim(m), "d_out": dim(l), "K": dim(l - m)}


def cloner_counts(cells) -> dict:
    """Exact counts computed from (d, m, l), with no timing."""
    shapes = [cell_shape(*c[:3]) for c in cells]
    return {
        "cloner.amplitude_rows": sum(s["d_in"] * s["K"] for s in shapes),
        "cloner.dense_out_bytes": sum(16 * s["d_out"] ** 2 for s in shapes),
        "cloner.fill_ratio": sum(s["K"] * s["d_in"] ** 2 for s in shapes)
        / sum(s["d_out"] ** 2 for s in shapes),
    }


def measure(name: str, spec: dict, seed: int, seconds: float, workdir: Path) -> Tally:
    """Untraced run of one workload: whole passes until `seconds` have gone by."""
    tally = Tally()
    start = time.perf_counter()
    if name == "clone_warm":
        for i in range(spec["children"]):
            warm_child(spec, seed, tally, False, i, seconds=seconds / spec["children"])
        return tally
    if name == "cli_clone":
        requests = cli_inputs(spec, seed, workdir, tally)
        for _ in range(spec["probes"]):
            tally.calibrate()
            child = spawn_worker({"kind": "probe"})
            tally.setup(child.ready_s)
            if child.rc:
                tally.problems.append(f"import probe exited {child.rc}")
        start = time.perf_counter()
    index = 0
    while True:
        if name == "verify_all":
            verify_pass(spec, seed, tally, False)
        elif name == "clone_cold":
            cold_pass(spec, seed, tally, False, index)
        else:
            cli_pass(requests, tally, False)
        index += 1
        if time.perf_counter() - start >= seconds:
            return tally


def one_pass(name: str, spec: dict, seed: int, trace: bool, tally: Tally, requests) -> float:
    if name == "verify_all":
        return verify_pass(spec, seed, tally, trace)
    if name == "clone_cold":
        return cold_pass(spec, seed, tally, trace, 0)
    if name == "clone_warm":
        return warm_child(spec, seed, tally, trace, 0, passes=LAYER_WARM_PASSES)
    return cli_pass(requests, tally, trace)


PER_LAYER_UNITS = {
    "symspace.enumerate_basis.self_s": "s",
    "symspace.enumerate_basis.misses": "count",
    "symspace.reduce_one.self_s": "s",
    "symspace.reduce_one.calls": "count",
    "cloner.clone_amplitudes.self_s": "s",
    "cloner.clone_amplitudes.misses": "count",
    "cloner.amplitude_rows": "count",
    "cloner.clone_channel.cold_s": "s",
    "cloner.clone_channel.warm_s": "s",
    "cloner.plan_s": "s",
    "cloner.isometry_gram.self_s": "s",
    "cloner.concatenate.self_s": "s",
    "cloner.dense_out_bytes": "bytes",
    "cloner.fill_ratio": "ratio",
    "closed_forms.bloch_vector.self_s": "s",
    "closed_forms.bloch_vector.calls": "count",
    "closed_forms.scaling_residual.self_s": "s",
    "closed_forms.generators.misses": "count",
    "oracle.oracle_clone.self_s": "s",
    "oracle.oracle_clone.calls": "count",
    "oracle.clone_isometry_full.self_s": "s",
    "oracle.covariance_check.self_s": "s",
    "oracle.input_gen_s": "s",
    "verify.scaling.wall_s": "s",
    "verify.isometry.wall_s": "s",
    "verify.concat.wall_s": "s",
    "verify.oracle.wall_s": "s",
    "verify.covariance.wall_s": "s",
    "verify.cases": "count",
    "verify.failed": "count",
    "serialize.read_sym_operator.self_s": "s",
    "serialize.write_sym_operator.self_s": "s",
    "serialize.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "cli.process_s": "s",
    "trace.verify_all.overhead_s": "s",
    "trace.clone_cold.overhead_s": "s",
    "trace.clone_warm.overhead_s": "s",
    "trace.cli_clone.overhead_s": "s",
}


def layer_metrics(traced: Tally, overhead: dict, cold_cells) -> dict:
    spans: dict[str, dict] = {}
    for summary in traced.spans:
        for name, agg in summary.items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
    misses: dict[str, int] = {}
    for cache in traced.caches:
        for name, info in cache.items():
            misses[name] = misses.get(name, 0) + info["misses"]

    def span(name, key="self_s"):
        return spans.get(name, {}).get(key, 0)

    values = {
        "symspace.enumerate_basis.self_s": span("symspace.enumerate_basis"),
        "symspace.enumerate_basis.misses": misses.get("enumerate_basis", 0),
        "symspace.reduce_one.self_s": span("symspace.reduce_one"),
        "symspace.reduce_one.calls": span("symspace.reduce_one", "calls"),
        "cloner.clone_amplitudes.self_s": span("cloner.clone_amplitudes"),
        "cloner.clone_amplitudes.misses": misses.get("clone_amplitudes", 0),
        "cloner.clone_channel.cold_s": traced.channel_s["cold"],
        "cloner.clone_channel.warm_s": traced.channel_s["warm"],
        "cloner.plan_s": traced.channel_s["cold"] - traced.channel_s["warm"],
        "cloner.isometry_gram.self_s": span("cloner.isometry_gram"),
        "cloner.concatenate.self_s": span("cloner.concatenate"),
        "closed_forms.bloch_vector.self_s": span("closed_forms.bloch_vector"),
        "closed_forms.bloch_vector.calls": span("closed_forms.bloch_vector", "calls"),
        "closed_forms.scaling_residual.self_s": span("closed_forms.scaling_residual"),
        "closed_forms.generators.misses": misses.get("generators", 0),
        "oracle.oracle_clone.self_s": span("oracle.oracle_clone"),
        "oracle.oracle_clone.calls": span("oracle.oracle_clone", "calls"),
        "oracle.clone_isometry_full.self_s": span("oracle.clone_isometry_full"),
        "oracle.covariance_check.self_s": span("oracle.covariance_check"),
        "oracle.input_gen_s": traced.gen_s,
        **{f"verify.{s}.wall_s": span(f"verify.{s}_suite", "total_s")
           for s in ("scaling", "isometry", "concat", "oracle", "covariance")},
        "verify.cases": traced.counts.get("verify.cases", 0),
        "verify.failed": traced.counts.get("verify.failed", 0),
        "serialize.read_sym_operator.self_s": span("serialize.read_sym_operator"),
        "serialize.write_sym_operator.self_s": span("serialize.write_sym_operator"),
        "serialize.bytes_written": traced.counts.get("serialize.bytes_written", 0),
        "cli.main.self_s": span("cli.main"),
        "cli.process_s": traced.cli_process_s,
        **cloner_counts(cold_cells),
        **{f"trace.{w}.overhead_s": s for w, s in overhead.items()},
    }
    return {k: values[k] for k in PER_LAYER_UNITS}


def layer_run(specs: dict, seed: int, workdir: Path) -> tuple[Tally, Tally, dict]:
    """One untraced and one traced pass of every workload, each in fresh workers."""
    plain, traced, overhead = Tally(), Tally(), {}
    requests = cli_inputs(specs["cli_clone"], seed, workdir, traced)
    for name in WORKLOADS:
        untraced_s = one_pass(name, specs[name], seed, False, plain, requests)
        traced_s = one_pass(name, specs[name], seed, True, traced, requests)
        overhead[name] = traced_s - untraced_s
    return plain, traced, overhead


def environment(seed: int) -> dict:
    import numpy

    import symclone

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "symclone": symclone.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
        "seed": seed,
        "loop": "closed, one client, one worker process at a time",
    }


class NoMeasurement(RuntimeError):
    """Every worker died, so there is nothing to report."""


def untraced_run(name: str, specs: dict, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally, dict]:
    tally = measure(name, specs[name], seed, seconds, workdir)
    if not tally.latency_s:
        raise NoMeasurement(f"no op of {name} completed: {tally.problems}")
    tail = specs[name]["tail"]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in end_to_end(tally, tail, tally.scale).items()}
    cells = specs[name].get("cells") or specs[name].get("requests") or []
    n = len(tally.requests)
    detail = {
        "as_timed": end_to_end(tally, tail, lambda at: 1.0),
        "reference": {"median_s": statistics.median(tally.reference_s),
                      "samples": len(tally.reference_s), "reported_at_s": REFERENCE_S},
        "cells": [cell_shape(*c[:3]) for c in cells],
        "computed_counts": cloner_counts(cells) if cells else {},
        "tail": {"percentile": tail, "samples": n, "samples_beyond": n * (100 - tail) / 100},
        "samples": {"setup": len(tally.setup_s), "peak_rss": len(tally.rss_kib)},
    }
    return metrics, tally, detail


def traced_run(specs: dict, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally, dict]:
    """Layer runs until `seconds` have gone by: times are medians, counts must repeat."""
    total, per_run = Tally(), []
    start = time.perf_counter()
    while not per_run or time.perf_counter() - start < seconds:
        plain, traced, overhead = layer_run(specs, seed, workdir)
        per_run.append(layer_metrics(traced, overhead, specs["clone_cold"]["cells"]))
        for t in (plain, traced):
            total.attempted += t.attempted
            total.failed += t.failed
            total.problems += t.problems
        total.caches += traced.caches
        for key, value in traced.counts.items():
            total.count(key, value)
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        seen = [m[key] for m in per_run]
        value = statistics.median(seen) if unit == "s" else seen[0]
        if unit != "s" and any(v != value for v in seen):
            total.problems.append(f"{key} did not repeat across layer runs: {seen}")
        metrics[key] = {"value": value, "unit": unit}
    return metrics, total, {"layer_runs": len(per_run)}


def run(name: str, specs: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Measure; return (result line, detail record)."""
    if trace:
        metrics, tally, extra = traced_run(specs, seed, seconds, workdir)
    else:
        metrics, tally, extra = untraced_run(name, specs, seed, seconds, workdir)
    caches = ("enumerate_basis", "clone_amplitudes", "generators")
    detail = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        **extra,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "measured_counts": tally.counts,
        "cache_misses": {c: sum(info[c]["misses"] for info in tally.caches) for c in caches},
        "cache_hits": {c: sum(info[c]["hits"] for info in tally.caches) for c in caches},
        "problems": tally.problems,
    }
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symclone" / "__init__.py").is_file():
        print(f"error: no symclone sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before this process imports numpy
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        result, detail = run(args.workload, WORKLOADS, args.seed, args.seconds, bool(args.trace), workdir)
    except NoMeasurement as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
