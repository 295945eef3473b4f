"""Digest every model x command x format run of the brownscope CLI.

    python tools/cli_digests.py [--src DIR] > digests.txt

runs `python -m brownscope.cli` with PYTHONPATH=DIR (default: the `src`
directory of this checkout) for every model under lifetime, domain,
`map --in`, spectest at 3+0.5i and at 0, oracle and `radii --steps 5`,
each in json, csv and pgm, on 48^2 grids, 64^2 log-polar grids and an
n=60, k=6 oracle at seed 5.  These measures are atomic; add-elliptic on a
201-row semicircle density follows under lifetime, domain and `map --in`,
in json and csv, since density sums are where kernel changes show, and
under spectest at 3+0.5i.  mult-positive on a 401-row half-line density
follows under lifetime and domain, in json: densities on the real line are
summed through the kernels' panel tree.  mult-unitary on a 256-node
uniform circle density runs spectest midway between two nodes, on the
support, and on a 2,048-node uniform circle density runs lifetime in
json: 48^2 points x 2,048 nodes is the largest direct kernel sum here.
mult-unitary's oracle also runs at n = 400, k = 60, the benchmark's size.
add-elliptic at gamma = 0.9 runs spectest at 2.3 and 2.7: its map phi
carries the domain's real-axis tip out to 2.51, so 2.3 is the image of a
point inside the domain and 2.7 of one outside.  mult-unitary lifetime on
a 5^2 grid whose middle node is 0, where the lifetime is infinite, reaches
the non-finite spellings, in json, csv and pgm.  rdiag `radii --t-max 3
--steps 4` passes the time the hole closes, where the radius is 0.0, in
json and csv.  A few error runs close the list: |gamma| > t, usage
errors, an unwritable --out, an oracle on a grid the domain covers and a
negative oracle.dilation.  Last, mult-unitary and mult-positive run the oracle
with explicit probes, which reach the flow reference's other paths: one
at eps = 0, where no shooting is needed, one where the lifetime is
about 1.07 t, and one inside the time-t domain, where the reference
fails and the row carries reference_error.  Then mult-positive runs
lifetime in json on a 48^2 grid over [-1e-4, 1e-4]^2, where |lam|^2 p0 is
far below p2 and the lifetime takes log(a/p2) through 2 log|lam|.  Next
come two mult-positive lifetime runs in json on 16^2 grids where
|lam|^2 leaves the normal range: over [-1e-154, 1e-154]^2 on a law with an
atom at 0, where p0 would overflow and the lifetime is its radial limit,
and over [-1e-165, 1e-165]^2 on the two-atom law, where it is finite.
Then add-circ runs `domain` in json on half a unit atom at (1+i)/sqrt(2)
and half at its negative, on the 48^2 grid: the cell in the middle of the
grid is a marching-squares saddle (corner code 10), so the extractor's
saddle resolution shows in the bytes.  Then add-elliptic runs
`map --in` in json at t = 1, gamma = 0.9 on the boundary of the Bernoulli
domain at t = 0.05, which `domain` writes first on a 48^2 grid over
[-2, 2]^2: phi expands its two small loops far more than 5-fold, so
boundary mapping bisects every one of the 32 source segments down to the
depth cap, 131,072 points in all.  Then come two oracle runs:
mult-unitary with a probe at lam = 1e200, eps = 0, where |lam|^2 leaves
the float range and the row carries reference_error, and rdiag at t = 2,
past the time 1.6 at which the hole closes, where the predicted inner
radius is 0.  Last, add-elliptic at gamma = 0.5 runs `domain` in json
on [0, 2] x [-1.5, 1.5] at 48^2: the level set leaves the grid, so sigma
and mapped are one open chain each, which shows the direction the
extractor gives an open chain.
Each run prints one tab-separated line:

    model  command  format  exit-code  sha256(stdout)  last stderr line

To show that a change keeps the CLI's output, run this on a copy of the
parent commit and on the change and diff the two outputs.  With
--keep DIR each run's stdout is also written to DIR, one file per line
named after its first three fields, so the numbers of a line that moved
can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TWO_ATOMS = {"kind": "atomic", "support": "nonneg",
             "atoms": [[1.0, 0.0, 0.5], [2.0, 0.0, 0.5]]}
MODELS = {
    "add-circ": {"measure": {"kind": "atomic", "support": "real",
                             "atoms": [[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]]},
                 "t": 1.0},
    "add-elliptic": {"measure": {"kind": "atomic", "support": "real",
                                 "atoms": [[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]]},
                     "t": 1.0, "gamma": [0.3, 0.1]},
    "mult-unitary": {"measure": {"kind": "atomic", "support": "circle",
                                 "atoms": [[1.0, 0.0, 0.25], [-1.0, 0.0, 0.25],
                                           [0.0, 1.0, 0.25], [0.0, -1.0, 0.25]]},
                     "t": 1.0, "gamma": [0.0, -0.5]},
    "mult-positive": {"measure": TWO_ATOMS, "t": 0.5, "gamma": [0.2, 0.0]},
    "rdiag": {"measure": TWO_ATOMS, "t": 0.5},
}
COMMANDS = {
    "lifetime": ["lifetime"],
    "domain": ["domain"],
    "map": ["map", "--in", "ring.json"],
    "spectest-3+0.5i": ["spectest", "--re", "3", "--im", "0.5"],
    "spectest-0": ["spectest", "--re", "0", "--im", "0"],
    "oracle": ["oracle"],
    "radii": ["radii", "--steps", "5"],
}
FORMATS = ("json", "csv", "pgm")
# add-elliptic on a semicircle density on [-2, 2]; at t = 2 the domain's
# boundary keeps clear of the density's guard band (10 node spacings)
DENSITY_ROWS = 201
DENSITY = {"model": "add-elliptic", "t": 2.0, "gamma": [0.5, 0.0]}
DENSITY_COMMANDS = ("lifetime", "domain", "map")
# mult-positive on the density sqrt((x - 1)(4 - x)) on [1, 4], which the
# panel tree of the kernel layer serves (it has more than 64 rows); off 0,
# so the mapped boundary keeps clear of the guard band
HALF_LINE_ROWS = 401
HALF_LINE = {"model": "mult-positive", "t": 0.5, "gamma": [0.2, 0.0]}
HALF_LINE_COMMANDS = ("lifetime", "domain")
# mult-unitary on a uniform circle density, probed midway between two nodes
CIRCLE_NODES = 256
CIRCLE_POINT = math.pi / CIRCLE_NODES - math.pi
# and a finer one, summed directly since it lies off the real line
FINE_CIRCLE_NODES = 2048
# add-elliptic at a gamma that moves the domain's tip from 2.0 out to 2.51
ELLIPTIC_09 = dict(MODELS["add-elliptic"], model="add-elliptic",
                   gamma=[0.9, 0.0])
ELLIPTIC_09_POINTS = ("2.3", "2.7")
# mult-unitary on a 5^2 grid over [-2.5, 2.5]^2: the middle node is 0
ORIGIN_GRID = dict(MODELS["mult-unitary"], model="mult-unitary",
                   grid={"re_min": -2.5, "re_max": 2.5, "im_min": -2.5,
                         "im_max": 2.5, "nx": 5, "ny": 5})
# mult-unitary's oracle at the benchmark's matrix size: n = 400, k = 60
# factors, so the sampler's reused buffers run at size
ORACLE_400 = {"n": 400, "k": 60, "seed": 5}
# (name, config file, argv) of the error runs, all on add-elliptic
ERRORS = [
    ("gamma>t", "gamma.json", ["spectest", "--re", "3", "--im", "0"]),
    ("spectest-no-re", "add-elliptic.json", ["spectest", "--im", "0"]),
    ("format-xml", "add-elliptic.json", ["lifetime", "--format", "xml"]),
    ("t-abc", "add-elliptic.json", ["lifetime", "--t", "abc"]),
    ("out-unwritable", "add-elliptic.json",
     ["lifetime", "--out", "missing/x.json"]),
    ("oracle-grid-covered", "covered.json", ["oracle"]),
    ("oracle-negative-dilation", "negative-dilation.json", ["oracle"]),
]
# oracle.probes rows [re, im, eps] for the flow reference of each mult-*
# model: eps = 0, T(lam) = 1.07 t, and inside the time-t domain
FLOW_PROBES = {"mult-unitary": [[3.0, 0.0, 0.0], [1.876, 0.0, 1e-3],
                                [1.2, 0.0, 1e-3]],
               "mult-positive": [[4.0, 0.0, 0.0], [3.603, 0.0, 1e-3],
                                 [1.5, 0.0, 1e-3]]}
# mult-positive on a grid around 0, where |lam| < 1e-4: the lifetime's
# branch for |lam|^2 p0 < p2 / 4
NEAR_ZERO_GRID = dict(MODELS["mult-positive"], model="mult-positive",
                      grid={"re_min": -1e-4, "re_max": 1e-4, "im_min": -1e-4,
                            "im_max": 1e-4, "nx": 48, "ny": 48})
# mult-positive on grids inside |lam| < 1.5e-154, where |lam|^2 is not a
# normal float: on a law with an atom at 0, and on the two-atom law
ZERO_ATOM = {"kind": "atomic", "support": "nonneg",
             "atoms": [[0.0, 0.0, 0.5], [1.0, 0.0, 0.5]]}
TINY_GRIDS = {
    "zero-atom-tiny-grid": dict(
        MODELS["mult-positive"], model="mult-positive", measure=ZERO_ATOM,
        grid={"re_min": -1e-154, "re_max": 1e-154, "im_min": -1e-154,
              "im_max": 1e-154, "nx": 16, "ny": 16}),
    "two-atoms-tiny-grid": dict(
        MODELS["mult-positive"], model="mult-positive",
        grid={"re_min": -1e-165, "re_max": 1e-165, "im_min": -1e-165,
              "im_max": 1e-165, "nx": 16, "ny": 16}),
}
# add-circ on two atoms off the axes, at +-(1+i)/sqrt(2): on the 48^2 grid
# the middle cell (23, 23) is a saddle of corner code 10
DIAGONAL = dict(MODELS["add-circ"], model="add-circ", measure={
    "kind": "atomic", "support": "complex",
    "atoms": [[math.sqrt(0.5), math.sqrt(0.5), 0.5],
              [-math.sqrt(0.5), -math.sqrt(0.5), 0.5]]},
    grid={"re_min": -3.0, "re_max": 3.0, "im_min": -3.0, "im_max": 3.0,
          "nx": 48, "ny": 48})
# the Bernoulli domain at t = 0.05, two loops of 16 points each, which the
# last run maps under gamma = 0.9
SMALL_LOOPS = dict(MODELS["add-elliptic"], model="add-elliptic", t=0.05,
                   gamma=[0.0, 0.0],
                   grid={"re_min": -2.0, "re_max": 2.0, "im_min": -2.0,
                         "im_max": 2.0, "nx": 48, "ny": 48})
SMALL_LOOPS_DOMAIN = ["domain", "--config", "small-loops.json", "--format",
                      "json", "--out", "small-loops-domain.json"]
# a mult-unitary probe row where |lam|^2 overflows, and rdiag past the time
# 1.6 at which the two-atom law's hole closes
HUGE_PROBE = [[1e200, 0.0, 0.0]]
RDIAG_PAST_CLOSING = dict(MODELS["rdiag"], model="rdiag", t=2.0,
                          oracle={"n": 60, "seed": 5})
# add-elliptic at gamma = 0.5 on the grid [0, 2] x [-1.5, 1.5], which cuts
# the domain in half: the level set leaves the grid, and sigma and mapped
# are one open chain each
OPEN_CHAIN = dict(MODELS["add-elliptic"], model="add-elliptic",
                  gamma=[0.5, 0.0],
                  grid={"re_min": 0.0, "re_max": 2.0, "im_min": -1.5,
                        "im_max": 1.5, "nx": 48, "ny": 48})
# the add-elliptic domain at t = 4 covers the grid [-1, 1]^2: its level set
# crosses no cell, and the oracle refuses the run
COVERED = dict(MODELS["add-elliptic"], model="add-elliptic", t=4.0,
               grid={"re_min": -1.0, "re_max": 1.0, "im_min": -1.0,
                     "im_max": 1.0, "nx": 32, "ny": 32},
               oracle={"n": 200, "seed": 1})


def write_inputs(work: Path) -> None:
    ring = [[3.0 * math.cos(a), 3.0 * math.sin(a)]
            for a in (2 * math.pi * i / 24 for i in range(24))]
    (work / "ring.json").write_text(json.dumps({
        "schema": "brownscope-region/1", "kind": "boundary", "level": 1.0,
        "polylines": [{"closed": True, "points": ring}]}))
    for model, spec in MODELS.items():
        cfg = dict(spec, model=model,
                   grid={"re_min": -3.0, "re_max": 3.0, "im_min": -3.0,
                         "im_max": 3.0, "nx": 48, "ny": 48},
                   rgrid={"n_r": 64, "n_theta": 64},
                   oracle={"n": 60, "k": 6, "seed": 5})
        (work / f"{model}.json").write_text(json.dumps(cfg))
        if model in FLOW_PROBES:
            (work / f"{model}-probes.json").write_text(json.dumps(dict(
                cfg, oracle=dict(cfg["oracle"], probes=FLOW_PROBES[model]))))
        if model == "mult-unitary":
            (work / "huge-probe.json").write_text(json.dumps(dict(
                cfg, oracle=dict(cfg["oracle"], probes=HUGE_PROBE))))
    (work / "oracle-400.json").write_text(json.dumps(dict(
        MODELS["mult-unitary"], model="mult-unitary", oracle=ORACLE_400,
        grid={"re_min": -3.0, "re_max": 3.0, "im_min": -3.0, "im_max": 3.0,
              "nx": 48, "ny": 48})))
    (work / "elliptic-0.9.json").write_text(json.dumps(ELLIPTIC_09))
    (work / "origin-grid.json").write_text(json.dumps(ORIGIN_GRID))
    (work / "covered.json").write_text(json.dumps(COVERED))
    (work / "near-zero.json").write_text(json.dumps(NEAR_ZERO_GRID))
    (work / "diagonal.json").write_text(json.dumps(DIAGONAL))
    (work / "small-loops.json").write_text(json.dumps(SMALL_LOOPS))
    (work / "open-chain.json").write_text(json.dumps(OPEN_CHAIN))
    (work / "rdiag-past-closing.json").write_text(
        json.dumps(RDIAG_PAST_CLOSING))
    for name, cfg in TINY_GRIDS.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    (work / "negative-dilation.json").write_text(json.dumps(dict(
        MODELS["add-elliptic"], model="add-elliptic",
        oracle={"n": 60, "seed": 5, "dilation": -1.0})))
    (work / "gamma.json").write_text(json.dumps(
        dict(MODELS["add-elliptic"], model="add-elliptic", gamma=[1.5, 0.0])))
    xs = [-2.0 + 4.0 * i / (DENSITY_ROWS - 1) for i in range(DENSITY_ROWS)]
    fs = [math.sqrt(max(4.0 - x * x, 0.0)) for x in xs]
    mass = sum(0.5 * (fs[i] + fs[i + 1]) * (xs[i + 1] - xs[i])
               for i in range(DENSITY_ROWS - 1))
    semicircle = {"kind": "density", "support": "real",
                  "grid": [[x, f / mass] for x, f in zip(xs, fs)]}
    (work / "density.json").write_text(json.dumps(dict(
        DENSITY, measure=semicircle,
        grid={"re_min": -3.0, "re_max": 3.0, "im_min": -3.0, "im_max": 3.0,
              "nx": 48, "ny": 48})))
    xs = [1.0 + 3.0 * i / (HALF_LINE_ROWS - 1) for i in range(HALF_LINE_ROWS)]
    fs = [math.sqrt(max((x - 1.0) * (4.0 - x), 0.0)) for x in xs]
    mass = sum(0.5 * (fs[i] + fs[i + 1]) * (xs[i + 1] - xs[i])
               for i in range(HALF_LINE_ROWS - 1))
    (work / "half-line.json").write_text(json.dumps(dict(
        HALF_LINE, measure={"kind": "density", "support": "nonneg",
                            "grid": [[x, f / mass] for x, f in zip(xs, fs)]},
        grid={"re_min": -3.0, "re_max": 5.0, "im_min": -3.0, "im_max": 3.0,
              "nx": 48, "ny": 48},
        rgrid={"n_r": 64, "n_theta": 64})))
    def circle(n):
        return {"kind": "density", "support": "circle",
                "grid": [[2 * math.pi * i / n - math.pi, 1 / (2 * math.pi)]
                         for i in range(n)]}

    (work / "circle.json").write_text(json.dumps(
        {"model": "mult-unitary", "measure": circle(CIRCLE_NODES), "t": 1e-3}))
    (work / "fine-circle.json").write_text(json.dumps(dict(
        MODELS["mult-unitary"], model="mult-unitary",
        measure=circle(FINE_CIRCLE_NODES),
        grid={"re_min": -3.0, "re_max": 3.0, "im_min": -3.0, "im_max": 3.0,
              "nx": 48, "ny": 48})))


def run(work: Path, env: dict, label: tuple, argv: list, keep=None) -> str:
    proc = subprocess.run([sys.executable, "-m", "brownscope.cli", *argv],
                          cwd=work, env=env, capture_output=True, timeout=600)
    if keep is not None:
        name = "_".join(label).replace("/", "-")
        (keep / name).write_bytes(proc.stdout)
    err = proc.stderr.decode(errors="replace").strip().splitlines()
    return "\t".join([*label, str(proc.returncode),
                      hashlib.sha256(proc.stdout).hexdigest(),
                      err[-1] if err else ""])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the brownscope package")
    ap.add_argument("--keep", type=Path, default=None,
                    help="directory to write each run's stdout to")
    args = ap.parse_args(argv)
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    jobs = []
    for model in MODELS:
        for command, extra in COMMANDS.items():
            for fmt in FORMATS:
                jobs.append(((model, command, fmt),
                             [*extra, "--config", f"{model}.json",
                              "--format", fmt]))
    for command in DENSITY_COMMANDS:
        for fmt in ("json", "csv"):
            jobs.append((("add-elliptic/density", command, fmt),
                         [*COMMANDS[command], "--config", "density.json",
                          "--format", fmt]))
    for command in HALF_LINE_COMMANDS:
        jobs.append((("mult-positive/half-line-density", command, "json"),
                     [*COMMANDS[command], "--config", "half-line.json",
                      "--format", "json"]))
    jobs.append((("add-elliptic/density", "spectest-3+0.5i", "json"),
                 [*COMMANDS["spectest-3+0.5i"], "--config", "density.json"]))
    jobs.append((("mult-unitary/circle-density", "spectest-between-nodes",
                  "json"),
                 ["spectest", f"--re={math.cos(CIRCLE_POINT)!r}",
                  f"--im={math.sin(CIRCLE_POINT)!r}", "--config",
                  "circle.json"]))
    jobs.append((("mult-unitary/fine-circle-density", "lifetime", "json"),
                 ["lifetime", "--config", "fine-circle.json", "--format", "json"]))
    for re in ELLIPTIC_09_POINTS:
        jobs.append((("add-elliptic/gamma-0.9", f"spectest-{re}", "json"),
                     ["spectest", "--re", re, "--im", "0", "--config",
                      "elliptic-0.9.json"]))
    for fmt in FORMATS:
        jobs.append((("mult-unitary/origin-grid", "lifetime", fmt),
                     ["lifetime", "--config", "origin-grid.json",
                      "--format", fmt]))
    jobs.append((("mult-unitary/n400-k60", "oracle", "json"),
                 ["oracle", "--config", "oracle-400.json"]))
    for fmt in ("json", "csv"):
        jobs.append((("rdiag", "radii-past-closing", fmt),
                     ["radii", "--t-max", "3", "--steps", "4", "--config",
                      "rdiag.json", "--format", fmt]))
    for name, cfg, extra in ERRORS:
        jobs.append((("add-elliptic", name, "-"), [*extra, "--config", cfg]))
    for model in FLOW_PROBES:
        jobs.append(((f"{model}/flow-probes", "oracle", "json"),
                     ["oracle", "--config", f"{model}-probes.json"]))
    jobs.append((("mult-positive/near-zero-grid", "lifetime", "json"),
                 ["lifetime", "--config", "near-zero.json", "--format", "json"]))
    for name in TINY_GRIDS:
        jobs.append(((f"mult-positive/{name}", "lifetime", "json"),
                     ["lifetime", "--config", f"{name}.json", "--format",
                      "json"]))
    jobs.append((("add-circ/diagonal-atoms", "domain", "json"),
                 ["domain", "--config", "diagonal.json", "--format", "json"]))
    jobs.append((("add-elliptic/gamma-0.9", "map-small-loops", "json"),
                 ["map", "--in", "small-loops-domain.json", "--config",
                  "elliptic-0.9.json", "--format", "json"]))
    jobs.append((("mult-unitary/huge-probe", "oracle", "json"),
                 ["oracle", "--config", "huge-probe.json"]))
    jobs.append((("rdiag/past-closing", "oracle", "json"),
                 ["oracle", "--config", "rdiag-past-closing.json"]))
    jobs.append((("add-elliptic/open-chain", "domain", "json"),
                 ["domain", "--config", "open-chain.json", "--format", "json"]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        subprocess.run([sys.executable, "-m", "brownscope.cli",
                        *SMALL_LOOPS_DOMAIN], cwd=work, env=env,
                       capture_output=True, timeout=600)
        for label, extra in jobs:
            print(run(work, env, label, extra, args.keep), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
