"""One benchmark process: `python3 perfbench/worker.py '<json spec>'`.

The runner starts a fresh interpreter per worker, so symclone's lru_caches
start empty.  A worker imports symclone, prints `ready` once its set-up is
done, runs its ops, checks their outputs and prints one JSON result as its
last line.  With `"trace": true` it records spans around symclone's public
functions (see tracing.py) and adds their summary to the result.

Kinds: `probe` (import only), `verify_all`, `clone_cold` (one cell),
`clone_warm` (plans primed, then cycles over cells) and `cli` (calls
`symclone.cli.main(argv)`, as the `symclone` console script does).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import resource
import sys
import time

import tracing
from reference import reference

# Scaling-law tolerance of the verification suites (ROADMAP: 1e-10).
TOL = 1e-10
CACHED = (
    ("symspace", "enumerate_basis"),
    ("cloner", "clone_amplitudes"),
    ("closed_forms", "generators"),
)


def peak_rss_kib() -> int:
    """This process's own RSS high-water mark.  getrusage's ru_maxrss is not
    used: Linux carries the parent's high-water mark into it across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def ready() -> None:
    print("ready", flush=True)


def quiet(tracer):
    """Keep the benchmark's own input generation and checks out of the spans."""
    return tracer.paused() if tracer else contextlib.nullcontext()


def cache_info(sc) -> dict:
    out = {}
    for module, name in CACHED:
        fn = getattr(getattr(sc, module), name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        out[name] = fn.cache_info()._asdict()
    return out


def make_input(sc, d: int, m: int, seed: int, *salt: int):
    """Seeded trace-1 Hermitian input; PSD and indefinite draws alternate."""
    import numpy as np

    rng = np.random.default_rng([seed, *salt])
    make = sc.ginibre_sym_operator if sum(salt) % 2 == 0 else sc.hermitian_sym_operator
    return make(d, m, rng)


def op(sc, x, l: int):
    """The clone workloads' op: single-site reduction of the cloned operator."""
    return sc.reduce_one(sc.clone_channel(x, l))


def residual(sc, x, out, l: int) -> float:
    """Deviation of the op's output from the closed-form contraction law."""
    return float(sc.scaling_residual(sc.reduce_one(x), out, x.d, x.m, l))


def passes_check(r) -> bool:
    # math.isfinite first: a NaN residual compares False with <=, but the
    # check must not rely on that, and max() in callers would drop it.
    return r is not None and math.isfinite(r) and r <= TOL


def case_ok(case) -> bool:
    extras = [v for v in case.extra.values() if isinstance(v, float)]
    return (
        case.passed
        and math.isfinite(case.residual)
        and case.residual <= case.tol
        and all(math.isfinite(v) for v in extras)
    )


def run_verify_all(sc, spec, tracer):
    ready()
    start = time.perf_counter()
    try:
        report = sc.run_suite("all", seed=spec["seed"], quick=spec.get("quick", False))
    except Exception as e:  # an op that raises is a failed op
        return {"wall_s": time.perf_counter() - start, "attempted": 1, "failed": 1,
                "error": repr(e), "cache": cache_info(sc)}
    wall = time.perf_counter() - start
    failed = sum(not case_ok(c) for c in report.cases)
    suites: dict[str, int] = {}
    for c in report.cases:
        suites[c.params["suite"]] = suites.get(c.params["suite"], 0) + 1
    return {"wall_s": wall, "attempted": len(report.cases), "failed": failed,
            "cases_by_suite": suites, "cache": cache_info(sc)}


def run_clone_cold(sc, spec, tracer):
    d, m, l = spec["cell"]
    ready()
    with quiet(tracer):
        start = time.perf_counter()
        x = make_input(sc, d, m, spec["seed"], spec["pass"], spec["index"])
        gen_s = time.perf_counter() - start
    before = cache_info(sc)
    result = {"gen_s": gen_s, "cache_before": before}
    start = time.perf_counter()
    try:
        out = op(sc, x, l)
    except Exception as e:  # an op that raises is a failed op
        out = None
        result["error"] = repr(e)
    result["op_s"] = time.perf_counter() - start
    result["cache"] = cache_info(sc)
    if tracer and out is not None:
        # plan_s = cold - warm: _channel_plan is private, so time a second call
        result["cold_s"] = tracer.last("cloner.clone_channel")
        sc.clone_channel(x, l)
        result["warm_s"] = tracer.last("cloner.clone_channel")
    with quiet(tracer):
        r = residual(sc, x, out, l) if out is not None else None
    result["residual"] = r
    result["ok"] = passes_check(r)
    return result


def run_clone_warm(sc, spec, tracer):
    cells, n_inputs = spec["cells"], spec["inputs"]
    with quiet(tracer):
        start = time.perf_counter()
        inputs = [
            [make_input(sc, d, m, spec["seed"], spec["child"], ci, k) for k in range(n_inputs)]
            for ci, (d, m, l) in enumerate(cells)
        ]
        gen_s = time.perf_counter() - start
    for (d, m, l), xs in zip(cells, inputs):
        op(sc, xs[0], l)
    before = cache_info(sc)
    ready()
    op_s, outputs, reference_s = [], [], []
    start = time.perf_counter()
    n = 0
    while True:
        for ci, (d, m, l) in enumerate(cells):
            x = inputs[ci][n % n_inputs]
            t = time.perf_counter()
            try:
                out = op(sc, x, l)
            except Exception:  # an op that raises is a failed op
                out = None
            op_s.append(time.perf_counter() - t)
            outputs.append((x, l, out))
        n += 1
        reference_s.append(reference())
        if n >= spec.get("passes", math.inf) or time.perf_counter() - start >= spec.get("seconds", math.inf):
            break
    after = cache_info(sc)
    with quiet(tracer):
        failed = sum(
            not passes_check(residual(sc, x, out, l) if out is not None else None)
            for x, l, out in outputs
        )
    return {"gen_s": gen_s, "op_s": op_s, "reference_s": reference_s, "attempted": len(outputs),
            "failed": failed, "cache_before": before, "cache": after}


def run_cli(sc, spec, tracer):
    rc = sc.cli.main(spec["argv"])
    return {"rc": rc, "cache": cache_info(sc)}


def run_probe(sc, spec, tracer):
    ready()
    return {}


KINDS = {
    "probe": run_probe,
    "verify_all": run_verify_all,
    "clone_cold": run_clone_cold,
    "clone_warm": run_clone_warm,
    "cli": run_cli,
}


def main(argv) -> int:
    spec = json.loads(argv[1])
    sc = importlib.import_module("symclone")
    importlib.import_module("symclone.cli")
    tracer = None
    if spec.get("trace"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = KINDS[spec["kind"]](sc, spec, tracer)
    result["maxrss_kib"] = peak_rss_kib()
    if tracer:
        result["spans"] = tracer.summary()
    print(json.dumps(result), flush=True)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
