"""The brownscope benchmark: one workload, run for a fixed time, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a source checkout.  The seed writes the workload's
config and measure files (see workloads.py); every invocation is then a
fresh `PYTHONPATH=src python -m brownscope.cli ...` process, because
every real CLI run pays for import and config loading.  The load is a
closed loop with one client: one invocation at a time, for S seconds and
at least three invocations.  Each output is written to a file and checked
against closed forms, and must be byte-identical to the run's first
output, since the config and seed are the same.

Workloads (each stresses another layer; see BENCHMARK.json):
  density-domain   `domain` on a 2049-row semicircle density: measures
  atomic-lifetime  `lifetime --format json` on a two-atom law: region.emit
  mult-oracle      `oracle` for mult-unitary, n = 400, k = 60: rmt samplers

With --trace 0 the last stdout line reports the end-to-end metrics:
  wall_s       mean wall time of one invocation, launch to exit: the
               closed loop's invocation time over its invocations, so
               1/wall_s is its throughput.  On a shared 2-core VM whose
               speed flips between two levels ~1.4x apart every few
               seconds, the mean of a run's five or six invocations
               spread half as much over ten runs as their median.
  setup_s      median over fresh processes, one before each invocation and
               at least five, of the time from launch until brownscope.cli
               is imported and the workload's config and measure are
               loaded (cli.load_config, cli.resolve_measure)
  peak_rss_mb  median peak resident memory of an invocation process
  ok_frac      invocations that exited 0, printed no error object and
               passed every check, over invocations attempted

With --trace 1 invocations alternate between plain ones and ones run
under tracer.py, and the line reports the per-layer metrics (medians
over the traced invocations) plus trace.overhead_s, the mean traced
wall time minus the mean plain one.

The line before the last records the environment: nproc, Python, numpy,
scipy, BLAS and its thread count, git sha and the load average at start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 5
MIN_INVOCATIONS = 3
# a hung invocation is killed (and counted as failed) well inside the
# 180 s a run may take
INVOCATION_TIMEOUT_S = 100

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ok_frac", "ratio"))


@dataclass
class Invocation:
    """Outcome of one CLI process."""

    wall_s: float
    rss_mb: float
    output: bytes
    problems: list
    spans: list | None = None  # set for a traced invocation


def run_process(cmd, cwd, env, stdout=subprocess.DEVNULL):
    """Run cmd to completion; return (wall seconds, exit code, peak RSS in
    MB, stderr bytes).  wait4 gives this child's own resource usage."""
    err_path = Path(cwd) / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_bytes()


def error_objects(stderr: bytes) -> list:
    """The CLI's `{"error": ...}` lines on stderr."""
    found = []
    for line in stderr.decode(errors="replace").splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "error" in obj:
            found.append(obj["error"])
    return found


def invoke(wl, workdir, env, traced: bool) -> Invocation:
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    spans_path = workdir / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
    else:
        cmd = [sys.executable, "-m", "brownscope.cli"]
    cmd += [*wl.argv, "--out", out.name]
    wall, code, rss, stderr = run_process(cmd, workdir, env)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    problems += [f"error object on stderr: {e}" for e in error_objects(stderr)]
    output = out.read_bytes() if out.exists() else b""
    if not problems:
        problems += workloads.check(wl, output)
    spans = None
    if traced:
        spans = (json.loads(spans_path.read_text(encoding="utf-8"))
                 if spans_path.exists() else [])
    return Invocation(wall, rss, output, problems, spans)


def setup_time(wl, workdir, env) -> float:
    """Seconds from a fresh process's launch until brownscope.cli is
    imported and the workload's config and measure are loaded."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), *wl.argv]
    start = time.monotonic()
    with open(workdir / "probe.txt", "wb") as fh:
        _, code, _, stderr = run_process(probe, workdir, env, stdout=fh)
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}: {stderr[-500:]!r}")
    return float((workdir / "probe.txt").read_text().split()[-1]) - start


def environment() -> dict:
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def blas_threads(np):
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(xs):
    return float(statistics.median(xs))


def measure(wl, workdir, env, seconds, trace):
    """Run invocations for `seconds` (and at least MIN_INVOCATIONS); with
    trace, every second one runs under the tracer.  Without trace, a setup
    probe precedes each invocation, topped up to SETUP_PROBES at the end,
    so both samples span the same stretch of time.
    Returns (invocations, setup times)."""
    runs, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        if not trace:
            setups.append(setup_time(wl, workdir, env))
        inv = invoke(wl, workdir, env, traced=trace and len(runs) % 2 == 1)
        if runs and not inv.problems and inv.output != runs[0].output:
            inv.problems.append("output differs from the first invocation "
                                "with the same seed")
        runs.append(inv)
    while not trace and len(setups) < SETUP_PROBES:
        setups.append(setup_time(wl, workdir, env))
    return runs, setups


def report(args, runs, setups) -> dict:
    failed = sum(1 for r in runs if r.problems)
    if args.trace:
        traced = [r for r in runs if r.spans is not None]
        plain = [r for r in runs if r.spans is None]
        per_run = [tracer.layer_metrics(r.spans) for r in traced]
        metrics = {name: {"value": median([m[name] for m in per_run]) if per_run
                          else 0.0, "unit": unit}
                   for name, unit in tracer.LAYER_METRICS}
        overhead = (statistics.fmean([r.wall_s for r in traced]) -
                    statistics.fmean([r.wall_s for r in plain])) if traced else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {"wall_s": statistics.fmean([r.wall_s for r in runs]),
                  "setup_s": median(setups),
                  "peak_rss_mb": median([r.rss_mb for r in runs]),
                  "ok_frac": (len(runs) - failed) / len(runs)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brownscope" / "cli.py").is_file():
        sys.stderr.write(f"no brownscope sources under {SRC}; run from the "
                         "root of a source checkout\n")
        return 2
    env_record = environment()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.generate(args.workload, args.seed, workdir)
        setup_time(wl, workdir, env)  # warm-up: bytecode and page cache
        runs, setups = measure(wl, workdir, env, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for i, r in enumerate(runs):
        for problem in r.problems[:5]:
            sys.stderr.write(f"invocation {i}: {problem}\n")
    sys.stderr.write(json.dumps({"wall_s": [r.wall_s for r in runs],
                                 "traced": [r.spans is not None for r in runs],
                                 "setup_s": setups}) + "\n")
    result = report(args, runs, setups)
    print(json.dumps({"env": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
