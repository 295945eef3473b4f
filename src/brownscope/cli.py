"""Command-line front end.

Subcommands: lifetime, domain, map, spectest, oracle, radii.  A JSON
config file supplies the model, the reference measure, and numeric
parameters; individual flags override config entries.  Every emitted
document carries a short hash of the effective config so outputs can be
traced back to their inputs.

Exit codes: 0 on success, 2 on usage, config or validation problems (a
measure of the wrong support kind, a format or model the command does not
take and an unwritable --out included), 3 on every other package error.
Errors are printed to stderr as one machine-readable JSON object.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys

import numpy as np

try:  # CPython's own SHA-256; hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256 as _sha256
except ImportError:  # Python 3.10 and 3.11
    from _sha256 import sha256 as _sha256

from . import additive, multiplicative, rdiagonal, rmt
from . import region as region_mod
from .errors import (BadGamma, BrownscopeError, ContinuationFailed,
                     TMaxExceeded, WrongSupportKind, _check_gamma)
from .measures import SpectralMeasure

# The model table: the support kind a model's measure needs (None: any),
# its lifetime (mu, z), its push-forward map (mu, gamma, z) and the map's
# derivative.  Values stay plain module functions, rebindable after import.
_SUPPORT = {"add-circ": None, "add-elliptic": None, "mult-unitary": "circle",
            "mult-positive": "nonneg", "rdiag": "nonneg"}
_LIFETIME = {"add-circ": additive.T_additive,
             "add-elliptic": additive.T_additive,
             "mult-unitary": multiplicative.T_mult_unitary,
             "mult-positive": multiplicative.T_mult_positive}
_MAP = {"add-circ": additive.phi_formula,
        "add-elliptic": additive.phi_formula,
        "mult-unitary": multiplicative.psi_formula,
        "mult-positive": multiplicative.f_gamma_formula}
# the oracle probes' reference dS/deps (mu, lam, t, eps) of the gamma = 0
# model: the analytic extension for add-*, the characteristic flow for mult-*
_REFERENCE = {"add-circ": additive.analytic_extension_trace,
              "add-elliptic": additive.analytic_extension_trace,
              "mult-unitary": multiplicative.flow_dSde,
              "mult-positive": multiplicative.flow_dSde}
_MAP_DERIVATIVE = {"add-circ": additive.phi_derivative,
                   "add-elliptic": additive.phi_derivative,
                   "mult-unitary": multiplicative.psi_derivative,
                   "mult-positive": multiplicative.psi_derivative}
MODELS = tuple(_SUPPORT)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


_DEFAULTS = {
    "model": None,
    "measure": None,
    "t": 1.0,
    "gamma": [0.0, 0.0],
    "grid": {"re_min": -2.0, "re_max": 2.0, "im_min": -2.0, "im_max": 2.0,
             "nx": 256, "ny": 256},
    "rgrid": {"r_min": 1e-6, "r_max": None, "n_r": 512, "n_theta": 512},
    "oracle": {"n": 400, "k": 200, "seed": 7, "dilation": None,
               "probes": None, "include_eigenvalues": False},
    "format": "json",
    "out": None,
}


def _flag(kind, low=-math.inf):
    """argparse type of a numeric flag: a finite `kind` value >= low."""
    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            v = math.nan
        if not (-math.inf < v < math.inf and v >= low):
            bound = f" >= {low}" if low > -math.inf else ""
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__}{bound}, got {text!r}")
        return v
    return parse


# argparse settings of every optional flag beyond --config, --out and
# --format; each command names the ones it reads in _COMMANDS
_FLAGS = {
    "--t": {"type": _flag(float)},
    "--gamma-re": {"type": _flag(float)},
    "--gamma-im": {"type": _flag(float)},
    "--seed": {"type": int},
    "--in": {"dest": "infile", "required": True,
             "help": "boundary JSON produced by the domain command"},
    "--re": {"type": _flag(float), "required": True},
    "--im": {"type": _flag(float), "required": True},
    "--t-max": {"type": _flag(float, 0.0)},
    "--steps": {"type": _flag(int, 2), "default": 25},
}
_GAMMA = ("--gamma-re", "--gamma-im")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="brownscope",
        description="spectral domains and matrix checks for free models")
    sub = p.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        sp = sub.add_parser(name, help=row.help)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json", "pgm"),
                        default=None)
        for flag in row.flags:
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def _number(v) -> bool:
    """A finite number that is not a bool; JSON reads 1e400 as inf."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# largest count (a grid axis, oracle.n or oracle.k, --steps) and largest
# node count (nx * ny, n_r * n_theta, the oracle's n * n matrix entries)
_MAX_COUNT, _MAX_NODES = 1 << 16, 1 << 22


def _count(v) -> bool:
    return (isinstance(v, int) and not isinstance(v, bool)
            and 1 <= v <= _MAX_COUNT)


def load_config(args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, val in user.items():
            if key in ("grid", "rgrid", "oracle"):
                if not isinstance(val, dict):
                    raise ConfigError(f"{key} must be a JSON object")
                cfg[key].update(val)
            else:
                cfg[key] = val
    for key in ("t", "format", "out"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if getattr(args, "seed", None) is not None:
        cfg["oracle"]["seed"] = args.seed
    if cfg["model"] not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg['model']!r}")
    if not isinstance(cfg["measure"], (dict, str)):
        raise ConfigError("config must supply a measure: an object or a path")
    if not (_number(cfg["t"]) and cfg["t"] > 0):
        raise ConfigError("t must be a positive number")
    g = cfg["gamma"]
    if not (isinstance(g, list) and len(g) == 2 and all(map(_number, g))):
        raise ConfigError("gamma must be [re, im] numbers")
    for i, key in enumerate(("gamma_re", "gamma_im")):
        if getattr(args, key, None) is not None:
            g[i] = getattr(args, key)
    grid, rg, o = cfg["grid"], cfg["rgrid"], cfg["oracle"]
    if not all(_number(grid[k]) for k in ("re_min", "re_max", "im_min",
                                          "im_max")):
        raise ConfigError("grid bounds must be numbers")
    if not all(0 < grid[hi] - grid[lo] < math.inf for lo, hi in (
            ("re_min", "re_max"), ("im_min", "im_max"))):
        raise ConfigError("grid bounds need re_min < re_max and "
                          "im_min < im_max, with finite differences")
    r_max = 1.0 if rg["r_max"] is None else rg["r_max"]  # None: from the law
    if not all(_number(r) and r > 0 for r in (rg["r_min"], r_max)):
        raise ConfigError("rgrid.r_min and rgrid.r_max must be numbers > 0")
    if rg["r_max"] is not None and rg["r_min"] >= rg["r_max"]:
        raise ConfigError("rgrid needs r_min < r_max")
    sizes = (grid["nx"], grid["ny"], rg["n_r"], rg["n_theta"], o["n"], o["k"],
             getattr(args, "steps", 1))
    if not all(map(_count, sizes)):
        raise ConfigError(f"grid.nx, grid.ny, rgrid.n_r, rgrid.n_theta, "
                          f"oracle.n, oracle.k and --steps must be integers "
                          f"in [1, {_MAX_COUNT}]")
    if max(grid["nx"] * grid["ny"], rg["n_r"] * rg["n_theta"],
           o["n"] * o["n"]) > _MAX_NODES:
        raise ConfigError(f"a grid holds at most {_MAX_NODES} nodes, and "
                          f"oracle.n is at most {math.isqrt(_MAX_NODES)}")
    if not (isinstance(o["seed"], int) and not isinstance(o["seed"], bool)
            and (o["dilation"] is None
                 or (_number(o["dilation"]) and o["dilation"] >= 0))):
        raise ConfigError(
            "oracle seed must be an integer, dilation a number >= 0")
    if o["probes"] is not None and not (isinstance(o["probes"], list) and all(
            isinstance(row, list) and len(row) == 3 and all(map(_number, row))
            for row in o["probes"])):
        raise ConfigError("oracle.probes must be [re, im, eps] number rows")
    if cfg["model"] == "add-circ" and (g[0] != 0 or g[1] != 0):
        raise ConfigError("add-circ is the gamma = 0 model; use add-elliptic")
    _check_gamma(cfg["t"], complex(g[0], g[1]))
    return cfg


def config_hash(cfg: dict) -> str:
    # destination and serialization format do not affect computed values,
    # so two runs of the same computation hash the same
    blob = json.dumps({k: v for k, v in cfg.items()
                       if k not in ("out", "format")},
                      sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()[:12]


def resolve_measure(cfg: dict) -> SpectralMeasure:
    try:
        mu = SpectralMeasure.load(cfg["measure"])
    except (OSError, ValueError, KeyError, TypeError, WrongSupportKind) as exc:
        raise ConfigError(f"bad measure: {exc}") from exc
    need = _SUPPORT[cfg["model"]]
    if need and mu.support != need:
        raise ConfigError(
            f"model {cfg['model']} needs a measure supported on {need}")
    return mu


def _gamma(cfg) -> complex:
    return complex(cfg["gamma"][0], cfg["gamma"][1])


def _meta(cfg, command) -> dict:
    return {"command": command, "config": config_hash(cfg)}


def _lifetime_grid(cfg, mu) -> region_mod.Grid:
    model, g = cfg["model"], cfg["grid"]
    # a law on the real line gives a lifetime symmetric under conjugation
    return region_mod.evaluate_grid(
        functools.partial(_LIFETIME[model], mu),
        (g["re_min"], g["re_max"], g["im_min"], g["im_max"]), g["nx"], g["ny"],
        conj_symmetric=mu.on_real_line)


def cmd_lifetime(cfg, args, mu) -> region_mod.Grid:
    return _lifetime_grid(cfg, mu)


def _extract_domain(cfg, mu) -> region_mod.Boundary:
    if cfg["model"] == "mult-positive":
        # the domain hugs the origin, so it is extracted on a log-polar grid
        rg = cfg["rgrid"]
        r_max = rg["r_max"] or multiplicative.default_r_max(mu)
        if rg["r_min"] >= r_max:  # a given r_max passed load_config
            raise ConfigError(f"rgrid needs r_min < r_max, and the r_max "
                              f"derived from the measure is {r_max:g}")
        return multiplicative.sigma_boundary_positive(
            mu, cfg["t"], r_min=rg["r_min"], r_max=r_max,
            n_r=rg["n_r"], n_theta=rg["n_theta"])
    return region_mod.extract_levelset(_lifetime_grid(cfg, mu), cfg["t"])


def _domain_map_fn(cfg, mu):
    return functools.partial(_MAP[cfg["model"]], mu, _gamma(cfg))


def _mapped(cfg, mu, sigma) -> region_mod.Boundary:
    """Image of the domain boundary under the model map (the boundary
    itself at gamma = 0)."""
    if _gamma(cfg) == 0:
        return sigma
    return region_mod.map_boundary(sigma, _domain_map_fn(cfg, mu))


def cmd_domain(cfg, args, mu):
    sigma = _extract_domain(cfg, mu)
    mapped = _mapped(cfg, mu, sigma)
    if cfg["format"] == "csv":
        return region_mod.Table("re,im,chain,closed,role", [
            (*row, role) for role, b in (("sigma", sigma), ("mapped", mapped))
            for row in b.rows()])
    return {"schema": region_mod.SCHEMA, "kind": "domain",
            "level": float(sigma.level), "sigma": region_mod.document(sigma),
            "mapped": region_mod.document(mapped)}


def cmd_map(cfg, args, mu) -> region_mod.Boundary:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            boundary = region_mod.read_boundary(json.load(fh))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read boundary file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return region_mod.map_boundary(boundary, _domain_map_fn(cfg, mu))


def cmd_spectest(cfg, args, mu) -> dict:
    model, t, gamma = cfg["model"], cfg["t"], _gamma(cfg)
    z = complex(args.re, args.im)
    doc = {"schema": "brownscope-spectest/1", "model": model,
           "point": [args.re, args.im], "t": t, "gamma": cfg["gamma"],
           "zero_atom": None, "preimage": None, "lifetime": None}
    lifetime, verdict = _LIFETIME[model], additive.Verdict.UNDETERMINED
    if model == "mult-positive" and z == 0:  # its lifetime excludes z = 0
        if multiplicative._zero_outside_closed_domain(mu, t):
            verdict = additive.Verdict.ZERO_ATOM_CASE
            doc["zero_atom"] = multiplicative._atom_mass_at_zero(mu) > 0
    else:
        # the spectrum lies in the image of the time-t domain under the
        # model map, so z is tested at its preimage (z itself at gamma = 0)
        lam = z
        if gamma:
            try:
                lam = additive.preimage(
                    mu, _domain_map_fn(cfg, mu),
                    functools.partial(_MAP_DERIVATIVE[model], mu, gamma),
                    lifetime, t, z)
            except ContinuationFailed as exc:
                lam, doc["preimage_error"] = None, str(exc)
        if lam is not None:
            verdict = additive.spectral_test(mu, lifetime, lam, t)
            doc["preimage"] = [lam.real, lam.imag]
            # a lifetime may be infinite: spelled as in the grid documents
            doc["lifetime"] = region_mod.json_float(float(lifetime(mu, lam)))
    doc["verdict"] = verdict.value
    return doc


def cmd_oracle(cfg, args, mu) -> dict:
    model = cfg["model"]
    t = float(cfg["t"])
    gamma = _gamma(cfg)
    o = cfg["oracle"]
    n, k, seed = int(o["n"]), int(o["k"]), int(o["seed"])
    dil = float(o["dilation"] if o["dilation"] is not None else 3.0 / np.sqrt(n))
    report = {"schema": "brownscope-oracle/1", "model": model, "n": n, "t": t,
              "gamma": [gamma.real, gamma.imag], "seed": seed,
              "sampler": rmt.SAMPLER_VERSION}
    if mu.kind != "atomic":
        raise ConfigError("the oracle command needs an atomic measure")
    # resolve_measure has checked the support.  The atoms' diagonal stands
    # for their Haar-conjugated matrix, since every perturbation below is
    # unitarily invariant (the rmt docstring)
    diag = np.repeat(mu.positions, rmt.multiplicities(mu.weights, n))

    if model == "rdiag":
        a = (rmt.sample_haar_unitary(n, seed, stream=1) * diag[None, :]
             + rmt.sample_ginibre(n, t, seed, stream=2))
        moduli = np.abs(rmt.eigenvalues(a))
        ann = rdiagonal.hl_radii(mu)
        report["annulus"] = {"inner": ann.inner, "outer": ann.outer}
        report["min_modulus"] = float(moduli.min())
        report["max_modulus"] = float(moduli.max())
        try:
            report["predicted_inner"] = rdiagonal.circ_inner_radius(mu, t)
        except TMaxExceeded:
            report["predicted_inner"] = 0.0
        return report

    # the boundary comes first, so a run refused for want of one draws
    # nothing, and only the boundary, not its grid, outlives the step
    mapped = _mapped(cfg, mu, _extract_domain(cfg, mu))
    if not mapped.polylines:
        # no chain would count every eigenvalue outside
        raise BrownscopeError(
            "the domain's level set crosses no cell of the grid (the domain "
            "covers the grid or falls between its nodes), so there is no "
            "boundary to test the eigenvalues against")
    if model.startswith("add-"):
        a = rmt.sample_elliptic(n, t, gamma, seed, stream=1)
        a.flat[:: n + 1] += diag
    else:
        a = rmt.sample_b(n, t, gamma, k=k, seed=seed, stream=1)
        a *= diag[:, None]  # D b, scaling row i by the i-th atom
        report["k"] = k
    eig = rmt.eigenvalues(a)
    report["support"] = rmt.support_report(eig, boundary=mapped, dilation=dil)

    probes = o["probes"]
    if probes is None:
        # on three rays from the support radius + sqrt(t) + 1, r doubles
        # until the lifetime is 1.25 t: clear of the domain's edge, where
        # dS/deps grows steeply and the sampled matrix strays furthest
        # from its limit
        probes = []
        for ray in (1.0, 1j, -1.0):
            r = mu.support_radius() + np.sqrt(t) + 1.0
            while _LIFETIME[model](mu, r * ray) < 1.25 * t:
                r *= 2.0
            probes.append([(r * ray).real, (r * ray).imag, 1e-3])
    # a probe row pairs the matrix at the mapped point with a reference at lam
    probe_rows = []
    for pre, pim, eps in probes:
        lam = complex(pre, pim)
        row = {"lambda": [pre, pim], "eps": eps}
        try:
            ref = float(_REFERENCE[model](mu, lam, t, eps))
            target = complex(_MAP[model](mu, gamma, lam)) if gamma else lam
        except BrownscopeError as exc:
            row["reference_error"] = str(exc)
        else:
            emp = float(rmt.empirical_dSde(a, target, eps))
            row.update(mapped_lambda=[target.real, target.imag], empirical=emp,
                       reference=ref, abs_diff=abs(emp - ref),
                       tol_hint=5.0 / np.sqrt(n))
        probe_rows.append(row)
    report["dsde_probes"] = probe_rows
    if o.get("include_eigenvalues"):
        report["eigenvalues"] = [[float(z.real), float(z.imag)] for z in eig]
    return report


def cmd_radii(cfg, args, mu):
    ann = rdiagonal.hl_radii(mu)
    t_max = args.t_max
    if t_max is None:  # short of the time inner ** 2 at which the hole closes
        t_max = 0.9 * ann.inner ** 2 if ann.inner ** 2 else 1.0
    rows = []
    for tv in np.linspace(0.0, t_max, args.steps):
        try:
            rows.append((float(tv), rdiagonal.circ_inner_radius(mu, float(tv))))
        except TMaxExceeded:
            rows.append((float(tv), float("nan")))
    if cfg["format"] == "csv":
        return region_mod.Table("t,inner_radius", rows, (
            ("annulus_inner", ann.inner), ("annulus_outer", ann.outer)))
    return {"schema": "brownscope-radii/1",
            "annulus": {"inner": ann.inner, "outer": ann.outer},
            "sweep": [{"t": tv, "inner_radius": region_mod.json_float(rv)}
                      for tv, rv in rows]}


# run(cfg, args, mu) returns what region.emit writes: a Grid, a Boundary, a
# document dict (json) or a Table (csv); flags are keys of _FLAGS
_Command = collections.namedtuple("_Command", "run help formats models flags")
# each command with the formats it writes, the models it serves and its
# own flags; build_parser and main read nothing else about a command
_COMMANDS = {
    "lifetime": _Command(cmd_lifetime, "sample the lifetime function on a grid",
                         ("csv", "json", "pgm"), tuple(_LIFETIME), ()),
    "domain": _Command(cmd_domain, "extract the domain boundary (and its mapped image)",
                       ("csv", "json"), tuple(_LIFETIME), ("--t", *_GAMMA)),
    "map": _Command(cmd_map, "push a boundary file through the model map",
                    ("csv", "json"), tuple(_MAP), (*_GAMMA, "--in")),
    "spectest": _Command(cmd_spectest, "membership verdict at one point",
                         ("json",), tuple(_LIFETIME), ("--t", *_GAMMA, "--re", "--im")),
    "oracle": _Command(cmd_oracle, "finite-N matrix cross-check report",
                       ("json",), MODELS, ("--t", *_GAMMA, "--seed")),
    "radii": _Command(cmd_radii, "annulus radii and the perturbed inner-radius sweep",
                      ("csv", "json"), ("rdiag",), ("--t-max", "--steps")),
}


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps(
        {"error": {"code": code, "kind": kind, "message": message}},
        sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args)
        row = _COMMANDS[args.command]
        if cfg["format"] not in row.formats:
            raise ConfigError(
                f"{args.command} output supports {' or '.join(row.formats)}")
        if cfg["model"] not in row.models:
            raise ConfigError(f"{args.command} does not serve model {cfg['model']}")
        mu = resolve_measure(cfg)
        out = region_mod.emit(row.run(cfg, args, mu), cfg["format"],
                              _meta(cfg, args.command))
        if cfg["out"]:
            try:
                with open(cfg["out"], "wb") as fh:
                    fh.write(out)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}") from exc
    except (ConfigError, WrongSupportKind) as exc:
        return _fail(2, "config", str(exc))
    except BadGamma as exc:
        return _fail(2, "config", f"requires |gamma| <= t: {exc}")
    except BrownscopeError as exc:
        return _fail(3, "numerical", str(exc))
    except np.linalg.LinAlgError as exc:
        return _fail(3, "numerical", f"linear algebra failure: {exc}")
    if not cfg["out"]:
        try:
            sys.stdout.buffer.write(out)
            sys.stdout.buffer.flush()
        except BrokenPipeError:
            # reader closed early (e.g. piped into head); not an error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
