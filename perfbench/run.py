"""Benchmark of the sympdirac library: verify, spectrum and fields workloads.

    python3 perfbench/run.py [--workload verify|spectrum|fields|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/`` and nothing is installed.  Each workload is a closed loop, one
client and one op in flight, in its own process, with BLAS threads pinned
to 1 through ``SYMPDIRAC_THREADS``.  Every op's output is checked (see
``workloads.py``); an op that raises or fails its check counts in
``failed``.

``--trace 0`` reports the end-to-end metrics, measured untraced:

    op_s.p50     median seconds per op, after one warm-up op
    setup_s      median over five fresh processes of the time from process
                 start until the first op can run (imports + set-up)
    peak_rss_mb  peak resident memory of the workload process

Both timings are wall seconds rescaled to a reference host speed: a fixed
kernel is timed before and after every op and every set-up (see
``hostspeed.py``), which takes the shared host's drift out of the figures.
The raw wall medians are printed beside them and kept in the output file.

``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer metrics of ``tracing.py`` for one set-up plus the median traced
op, with ``trace.overhead_s``: traced minus untraced median op seconds,
both at reference host speed.
Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the three workloads one after another, each in its own process, and
prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# must precede the first numpy import: the package maps it onto the BLAS
# thread variables before numpy loads
os.environ["SYMPDIRAC_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("verify", "spectrum", "fields")
SETUP_PROBES = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_library():
    """Import sympdirac from this checkout's src/, never from elsewhere."""
    init = SRC / "sympdirac" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no sympdirac sources at {SRC}; run from the root"
                         " of a sympdirac checkout")
    sys.path.insert(0, str(SRC))
    import sympdirac

    if Path(sympdirac.__file__).resolve() != init.resolve():
        raise BenchError(f"sympdirac imported from {sympdirac.__file__},"
                         f" not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# one workload


class Loop:
    """Closed loop: make input, run (timed), check (untimed)."""

    def __init__(self, workload, kernel):
        self.workload = workload
        self.kernel = kernel
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, i: int, unit=None) -> float | None:
        """Op i; its wall seconds, or None when it raised."""
        self.attempted += 1
        x = self.workload.make_input(i)
        start = time.perf_counter()
        try:
            if unit is None:
                out = self.workload.run(x)
            else:
                with unit(f"op:{i}"):
                    out = self.workload.run(x)
            elapsed = time.perf_counter() - start
            problems = self.workload.check(x, out)
        except Exception as exc:  # a failing op is counted, not fatal
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        if problems:
            self.failures.append(f"op {i}: " + "; ".join(problems))
        return elapsed

    def measure(self, seconds: float, unit=None) -> tuple[dict, dict]:
        """Ops 1, 2, ... until `seconds` have passed.

        Returns ({index: wall seconds}, {index: seconds at reference host
        speed}).  The host-speed kernel runs before the first op and after
        every op.  Op 0 is the warm-up.  At least one op runs.
        """
        wall, scaled = {}, {}
        begin = time.perf_counter()
        before = self.kernel.sample()
        i = 1
        while True:
            elapsed = self.op(i, unit)
            after = self.kernel.sample()
            if elapsed is not None:
                wall[i] = elapsed
                scaled[i] = self.kernel.at_reference_speed(elapsed, before,
                                                           after)
            before = after
            i += 1
            if time.perf_counter() - begin >= seconds:
                return wall, scaled


def probe_setup(name: str, seed: int) -> float:
    """Wall seconds from spawning a fresh process until its first op could run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def environment(workload, seed: int, ops: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info.get('version', '?')}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "SYMPDIRAC_THREADS": os.environ.get("SYMPDIRAC_THREADS"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "sizes": workload.sizes(),
        "workload_seed": seed,
        "ops_per_run": ops,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setups(name: str, seed: int, kernel) -> tuple[list, list]:
    """SETUP_PROBES set-up probes, the host-speed kernel timed around each.

    Returns (wall seconds, seconds at reference host speed).
    """
    wall, scaled = [], []
    before = kernel.sample()
    for _ in range(SETUP_PROBES):
        elapsed = probe_setup(name, seed)
        after = kernel.sample()
        wall.append(elapsed)
        scaled.append(kernel.at_reference_speed(elapsed, before, after))
        before = after
    return wall, scaled


def run_untraced(wl, name: str, seed: int, seconds: float):
    import hostspeed

    kernel = hostspeed.Kernel()
    kernel.sample()  # warm-up: FFT plans, BLAS start-up
    setup_wall, setup_scaled = probe_setups(name, seed, kernel)
    workload = wl.WORKLOADS[name](seed)
    workload.setup()
    loop = Loop(workload, kernel)
    loop.op(0)  # warm-up: caches, FFT plans, BLAS start-up
    wall, scaled = loop.measure(seconds)
    metrics = {
        "op_s.p50": statistics.median(scaled.values()),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "op_wall_s.p50": statistics.median(wall.values()),
        "setup_wall_s": statistics.median(setup_wall),
        "op_wall_s": wall, "op_s": scaled,
        "setup_wall_s_samples": setup_wall, "setup_s_samples": setup_scaled,
    }
    return workload, loop, metrics, extra


def run_traced(wl, name: str, seed: int, seconds: float):
    import hostspeed
    import tracing

    workload = wl.WORKLOADS[name](seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.unit("setup"):
            workload.setup()
    finally:
        tracer.uninstall()
    kernel = hostspeed.Kernel()
    kernel.sample()
    loop = Loop(workload, kernel)
    loop.op(0)
    # both halves run ops 1, 2, ...: the same inputs, traced and untraced
    _, plain = loop.measure(seconds / 2)
    tracer.install()
    try:
        traced_wall, traced = loop.measure(seconds / 2, unit=tracer.unit)
    finally:
        tracer.uninstall()
    if not traced:
        raise BenchError("no traced op completed")
    units = tracing.unit_metrics(tracer.spans)
    metrics = tracing.combine(units["setup"],
                              [units[f"op:{i}"] for i in sorted(traced_wall)])
    # at reference host speed, like op_s.p50
    metrics["trace.overhead_s"] = (statistics.median(traced.values())
                                   - statistics.median(plain.values()))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-spans.json", "w") as fh:
        json.dump({"fields": ["id", "parent", "label", "start", "end",
                              "attrs"], "spans": tracer.spans}, fh)
    extra = {"op_s_untraced": plain, "op_s_traced": traced}
    return workload, loop, metrics, extra


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = import_library()
    runner = run_traced if trace else run_untraced
    workload, loop, metrics, extra = runner(wl, name, seed, seconds)
    env = environment(workload, seed, loop.attempted)
    failed = len(loop.failures)
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": _unit(key)}
                    for key, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({**result, "environment": env, "failures": loop.failures,
                   **extra}, fh, indent=1)
    print(f"workload {name}  seed {seed}  ops {loop.attempted}"
          f"  (1 warm-up)  trace {int(trace)}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {_unit(key)}")
    for key in ("op_wall_s.p50", "setup_wall_s"):
        if key in extra:
            print(f"  {key:34s} {extra[key]:.6g} s  (raw wall, not rescaled)")
    print(f"  {'failed_share':34s} {failed / loop.attempted:.6g} 1")
    for failure in loop.failures:
        print(f"  FAILED {failure}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def _unit(key: str) -> str:
    if key in UNITS:
        return UNITS[key]
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("field_bytes"):
        return "B_computed"
    return "count"


def run_all(seed: int, seconds: float, trace: bool) -> int:
    code = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        share = result["failed"] / result["attempted"]
        if not result["correct"]:
            code = 1
        for key, metric in result["metrics"].items():
            rows.append((name, key, metric["value"], metric["unit"]))
        rows.append((name, "failed_share", share, "1"))
    print("\nworkload  metric                             value")
    for name, key, value, unit in rows:
        print(f"{name:9s} {key:34s} {value:.6g} {unit}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            if args.workload == "all":
                raise BenchError("--setup-probe needs one workload")
            import_library().WORKLOADS[args.workload](args.seed).setup()
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
