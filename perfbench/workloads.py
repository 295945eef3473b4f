"""Workload inputs and output checks for the brownscope benchmark.

Each workload is one `brownscope` CLI invocation on a config and measure
file written here from the workload seed.  The program sees only those
files.  Sizes are fixed, so the cost of an invocation does not depend on
the seed; the seed moves atom positions, weights and the density's centre
and radius.

The checks compare each emitted document with closed forms (or with the
document's own gates) instead of hashing bytes, so a later change that
redraws samples or re-quadratures a density still passes when its numbers
are right.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("density-domain", "atomic-lifetime", "mult-oracle")

DENSITY_ROWS = 2049
DENSITY_T = 1.0
DENSITY_GAMMA = 0.5
DENSITY_GRID = {"re_min": -3.5, "re_max": 3.5, "im_min": -2.5, "im_max": 2.5,
                "nx": 256, "ny": 256}

LIFETIME_GRID = {"re_min": -3.0, "re_max": 3.0, "im_min": -2.0, "im_max": 2.0,
                 "nx": 512, "ny": 512}

ORACLE_T = 1.0
ORACLE_GAMMA = (0.0, -0.5)
ORACLE_N = 400
ORACLE_K = 60
ORACLE_GRID = {"re_min": -2.5, "re_max": 2.5, "im_min": -2.5, "im_max": 2.5,
               "nx": 256, "ny": 256}

# Relative tolerances of the density-domain closed-form checks.  Sigma
# points are linear interpolants on a 256^2 grid, so the lifetime there is
# off the level by up to ~1.3e-3 at the seed commit.  The mapped points
# use the 2049-node trapezoid rule's Cauchy transform, which is within
# ~7e-6 of the closed form.
DENSITY_LEVEL_TOL = 5e-3
DENSITY_MAP_TOL = 1e-4
# The lifetime grid of an atomic law is a plain sum; it matches the closed
# form to rounding.
LIFETIME_REL_TOL = 1e-9
# map_boundary bisects a source segment at most this many times.
MAP_MAX_DEPTH = 12


@dataclass(frozen=True)
class Workload:
    """One generated workload: the CLI arguments and what checks need."""

    name: str
    argv: tuple  # CLI arguments after `python -m brownscope.cli`
    config: Path
    params: dict  # the seed's draws, used by the output checks


def generate(name: str, seed: int, workdir: Path) -> Workload:
    """Write the config and measure files of workload `name` for `seed`
    into `workdir` and return the invocation.  The same seed gives
    byte-identical files."""
    rng = random.Random(f"{name}:{seed}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"{name}.config.json"
    measure = workdir / f"{name}.measure.json"
    if name == "density-domain":
        centre = round(rng.uniform(-0.5, 0.5), 4)
        radius = round(rng.uniform(1.6, 2.2), 4)
        params = {"centre": centre, "radius": radius,
                  "t": DENSITY_T, "gamma": DENSITY_GAMMA}
        mdoc = {"kind": "density", "support": "real",
                "grid": _semicircle_rows(centre, radius)}
        cfg = {"model": "add-elliptic", "measure": measure.name,
               "t": DENSITY_T, "gamma": [DENSITY_GAMMA, 0.0],
               "grid": DENSITY_GRID, "format": "json"}
        command = "domain"
    elif name == "atomic-lifetime":
        x1 = round(rng.uniform(-1.5, -0.5), 6)
        x2 = round(rng.uniform(0.5, 1.5), 6)
        w1 = round(rng.uniform(0.3, 0.7), 6)
        atoms = [[x1, 0.0, w1], [x2, 0.0, 1.0 - w1]]
        params = {"atoms": atoms}
        mdoc = {"kind": "atomic", "support": "real", "atoms": atoms}
        cfg = {"model": "add-elliptic", "measure": measure.name,
               "t": 1.0, "gamma": [0.0, 0.0],
               "grid": LIFETIME_GRID, "format": "json"}
        command = "lifetime"
    elif name == "mult-oracle":
        theta0 = rng.uniform(0.0, 2.0 * math.pi)
        raw = [rng.uniform(0.15, 0.35) for _ in range(4)]
        weights = [round(w / sum(raw), 6) for w in raw[:3]]
        weights.append(1.0 - sum(weights))
        atoms = []
        for k, w in enumerate(weights):
            theta = theta0 + k * math.pi / 2 + rng.uniform(-0.3, 0.3)
            atoms.append([math.cos(theta), math.sin(theta), w])
        params = {"atoms": atoms, "seed": seed}
        mdoc = {"kind": "atomic", "support": "circle", "atoms": atoms}
        cfg = {"model": "mult-unitary", "measure": measure.name,
               "t": ORACLE_T, "gamma": list(ORACLE_GAMMA),
               "grid": ORACLE_GRID, "format": "json",
               "oracle": {"n": ORACLE_N, "k": ORACLE_K, "seed": seed}}
        command = "oracle"
    else:
        raise ValueError(f"unknown workload {name!r}")
    measure.write_text(json.dumps(mdoc) + "\n", encoding="utf-8")
    config.write_text(json.dumps(cfg, sort_keys=True) + "\n", encoding="utf-8")
    return Workload(name, (command, "--config", config.name), config, params)


def _semicircle_rows(centre: float, radius: float) -> list:
    """Semicircle density on [centre - radius, centre + radius] sampled at
    DENSITY_ROWS equispaced points and scaled so its trapezoid mass, which
    is what the loader checks, is 1 to rounding."""
    x = centre + radius * np.linspace(-1.0, 1.0, DENSITY_ROWS)
    f = np.sqrt(np.clip(radius ** 2 - (x - centre) ** 2, 0.0, None))
    h = x[1] - x[0]
    f = f / (h * (f.sum() - 0.5 * (f[0] + f[-1])))
    return [[float(a), float(b)] for a, b in zip(x, f)]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def semicircle_cauchy(z, centre: float, radius: float):
    """Cauchy transform of the semicircle law on [centre - radius,
    centre + radius]: (2/r) G0(2 (z - c) / r) with G0(w) =
    (w - sqrt(w - 2) sqrt(w + 2)) / 2, the branch that decays at infinity."""
    w = 2.0 * (np.asarray(z, dtype=complex) - centre) / radius
    g0 = 0.5 * (w - np.sqrt(w - 2.0) * np.sqrt(w + 2.0))
    return (2.0 / radius) * g0


def atomic_lifetime(z, atoms):
    """1 / sum_j w_j / |z - x_j|^2 for real atoms [x, 0, w]."""
    z = np.asarray(z, dtype=complex)
    s = np.zeros(z.shape)
    for x, _, w in atoms:
        s = s + w / np.abs(z - x) ** 2
    return 1.0 / s


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is
# correct
# ---------------------------------------------------------------------------


def check(workload: Workload, data: bytes) -> list:
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["output is not a JSON object"]
    try:
        return _CHECKS[workload.name](doc, workload.params)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed document: {exc!r}"]


def _check_lifetime(doc, params) -> list:
    problems = []
    if doc.get("schema") != "brownscope-region/1" or doc.get("kind") != "grid":
        problems.append("not a brownscope-region/1 grid document")
    g = LIFETIME_GRID
    bounds = [g["re_min"], g["re_max"], g["im_min"], g["im_max"]]
    if doc["bounds"] != bounds or doc["nx"] != g["nx"] or doc["ny"] != g["ny"]:
        return problems + ["grid bounds or size differ from the config"]
    values = np.array([[_num(v) for v in row] for row in doc["values"]])
    if values.shape != (g["nx"], g["ny"]):
        return problems + [f"values have shape {values.shape}"]
    re = g["re_min"] + (np.arange(g["nx"]) + 0.5) * (g["re_max"] - g["re_min"]) / g["nx"]
    im = g["im_min"] + (np.arange(g["ny"]) + 0.5) * (g["im_max"] - g["im_min"]) / g["ny"]
    want = atomic_lifetime(re[:, None] + 1j * im[None, :], params["atoms"])
    with np.errstate(invalid="ignore"):
        rel = np.abs(values - want) / np.abs(want)
    bad = ~(rel <= LIFETIME_REL_TOL)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        problems.append(f"{int(bad.sum())} grid values off the closed form, "
                        f"first at [{i}, {j}]: {values[i, j]!r} vs {want[i, j]!r}")
    return problems


def _check_domain(doc, params) -> list:
    problems = []
    if doc.get("schema") != "brownscope-region/1" or doc.get("kind") != "domain":
        problems.append("not a brownscope-region/1 domain document")
    c, r, t, gamma = params["centre"], params["radius"], params["t"], params["gamma"]
    sigma = [_chain(ch) for ch in doc["sigma"]["polylines"]]
    mapped = [_chain(ch) for ch in doc["mapped"]["polylines"]]
    if not sigma:
        return problems + ["sigma boundary is empty"]
    if not all(closed for closed, _ in sigma):
        problems.append("sigma boundary has an open chain")
    pts = np.concatenate([p for _, p in sigma])
    g = semicircle_cauchy(pts, c, r)
    lifetime = pts.imag / -g.imag
    rel = np.abs(lifetime - t) / t
    if not np.all(rel <= DENSITY_LEVEL_TOL):
        problems.append(f"sigma points off the level T = {t}: "
                        f"max relative error {np.nanmax(rel):.3g}")
    if len(mapped) != len(sigma):
        return problems + [f"{len(mapped)} mapped chains for {len(sigma)} sigma chains"]
    for k, ((closed, src), (mclosed, dst)) in enumerate(zip(sigma, mapped)):
        if mclosed != closed:
            problems.append(f"mapped chain {k} changed its closed flag")
        problems += _check_mapped_chain(k, src, closed, dst, c, r, gamma)
    return problems


def _check_mapped_chain(k, src, closed, dst, c, r, gamma) -> list:
    """The mapped chain must be the images lam + gamma G(lam) of the source
    points in order, with any extra point the image of a dyadic point of
    the source segment it follows (the midpoints map_boundary inserts)."""
    def phi(z):
        return z + gamma * semicircle_cauchy(z, c, r)

    def near(w, target):
        return np.abs(w - target) <= DENSITY_MAP_TOL * (1.0 + np.abs(target))

    if closed:
        src = np.append(src, src[0])
    images = phi(src)
    if closed:
        dst = np.append(dst, images[-1])
    if len(dst) == 0 or not near(dst[0], images[0]):
        return [f"mapped chain {k} does not start at the image of its source"]
    s = np.arange(2 ** MAP_MAX_DEPTH + 1) / 2.0 ** MAP_MAX_DEPTH
    pos = 1
    for i in range(1, len(src)):
        segment = None
        while pos < len(dst) and not near(dst[pos], images[i]):
            if segment is None:
                segment = phi(src[i - 1] + s * (src[i] - src[i - 1]))
            if not near(dst[pos], segment).any():
                return [f"mapped chain {k} point {pos} is not the image of "
                        f"source segment {i}"]
            pos += 1
        if pos == len(dst):
            return [f"mapped chain {k} misses the image of source point {i}"]
        pos += 1
    if pos != len(dst):
        return [f"mapped chain {k} has {len(dst) - pos} trailing points"]
    return []


def _check_oracle(doc, params) -> list:
    problems = []
    if doc.get("schema") != "brownscope-oracle/1":
        problems.append("not a brownscope-oracle/1 document")
    if (doc["n"], doc["k"], doc["seed"]) != (ORACLE_N, ORACLE_K, params["seed"]):
        problems.append("n, k or seed differ from the config")
    frac = doc["support"]["fraction"]
    if not frac >= 0.9:
        problems.append(f"support fraction {frac} < 0.9")
    probes = doc["dsde_probes"]
    if not probes:
        problems.append("no dsde probes")
    for row in probes:
        if not row["abs_diff"] <= row["tol_hint"]:
            problems.append(f"probe {row['lambda']}: abs_diff {row['abs_diff']} "
                            f"> tol_hint {row['tol_hint']}")
    return problems


def _chain(ch):
    return bool(ch["closed"]), np.array([complex(x, y) for x, y in ch["points"]])


def _num(v):
    return float(v) if isinstance(v, str) else v


_CHECKS = {"density-domain": _check_domain,
           "atomic-lifetime": _check_lifetime,
           "mult-oracle": _check_oracle}
