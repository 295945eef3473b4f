"""Compactly supported spectral measures and their integral transforms.

A measure is stored either as a finite family of weighted atoms or as a
density sampled on a fixed quadrature grid: Gauss-Legendre nodes on an
interval of the real line, equispaced trapezoid nodes on the unit circle.
Both variants are a list of node positions and effective probability
weights.  Every sum over the nodes at evaluation points is computed here,
by a named transform: cauchy_transform (G), reg_cauchy_transform,
cauchy_derivative (G'), herglotz (J), reg_resolvent, reg_resolvent_deps,
neg2_trace, neg2_moments, neg4_trace and log_potential.  Lifetime
functions and push-forward maps consume measures only through them.
|lam - xi|^2 is formed in real arithmetic, never as a complex modulus.

Sums run over row blocks of 2^16 point x node floats, which stay in a
core's cache.  Calls of 2^22 pairs or more spread their blocks over a pool
with one thread per usable CPU (numpy and BLAS release the GIL); smaller
and single-block calls run inline.  The blocks depend only on the block
size and the node count, so results are the same bytes for any worker count.

Transforms are vectorized over the evaluation point.  Scalars in give
scalars out; arrays in give arrays of the same shape out.  Quantities that
genuinely diverge (inverse-square trace at an atom, log potential at an
atom) come back as float infinities rather than raising.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationOnSupport, NegativeEpsilon, WrongSupportKind

SUPPORT_KINDS = ("real", "nonneg", "circle", "complex")

# Points x nodes floats per block: 2^16 (512 KiB) stays in a core's cache.
_BLOCK_ELEMENTS = 1 << 16
# Calls of fewer point x node pairs, and single-block calls, run inline.
_POOL_PAIRS = 1 << 22

_pool = None
_pool_lock = threading.Lock()

_LOAD_RENORM_WARN = 1e-9


def _as_complex_points(lam):
    """Normalize an evaluation point argument to (array, is_scalar)."""
    arr = np.asarray(lam, dtype=complex)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class SpectralMeasure:
    """A probability measure with compact support in the plane.

    Parameters
    ----------
    support : str
        One of "real", "nonneg", "circle", "complex".
    positions : ndarray
        Complex node positions, shape (m,).
    weights : ndarray
        Atom weights (atomic variant) or density values at the nodes
        (density variant).  Nonnegative.
    quad_weights : ndarray or None
        Quadrature weights for the density variant; None marks the
        atomic variant.
    """

    support: str
    positions: np.ndarray
    weights: np.ndarray
    quad_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.support not in SUPPORT_KINDS:
            raise WrongSupportKind(f"unknown support kind {self.support!r}")
        pos = np.atleast_1d(np.asarray(self.positions, dtype=complex))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pos.shape != w.shape or pos.ndim != 1:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        qw = self.quad_weights
        if qw is None and np.any(w == 0):
            # zero-weight atoms would still poison divergent sums (0 * inf)
            keep = w > 0
            pos, w = pos[keep], w[keep]
        if qw is not None:
            qw = np.atleast_1d(np.asarray(qw, dtype=float))
            if qw.shape != pos.shape:
                raise ValueError("quad_weights must match positions in length")
            if np.any(qw < 0):
                raise ValueError("quad_weights must be nonnegative")
        # Geometry constraints per support kind.
        if self.support in ("real", "nonneg"):
            if np.max(np.abs(pos.imag)) > 1e-12:
                raise WrongSupportKind(
                    "real-line measure has nodes off the real axis")
            pos = pos.real.astype(float) + 0j
            if self.support == "nonneg" and np.min(pos.real) < -1e-12:
                raise WrongSupportKind(
                    "nonneg measure has nodes on the negative axis")
        elif self.support == "circle":
            if np.max(np.abs(np.abs(pos) - 1.0)) > 1e-12:
                raise WrongSupportKind(
                    "circle measure has nodes off the unit circle")
        mass = float(np.sum(w if qw is None else w * qw))
        if mass <= 0:
            raise ValueError("measure has no mass")
        # Normalize exactly; loaders warn separately when the input was off.
        w = w / mass
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "quad_weights", qw)

    # -- basic structure ------------------------------------------------

    @property
    def kind(self) -> str:
        return "atomic" if self.quad_weights is None else "density"

    @property
    def prob_weights(self) -> np.ndarray:
        """Effective probability weights at the nodes (sums to 1)."""
        if self.quad_weights is None:
            return self.weights
        return self.weights * self.quad_weights

    @property
    def node_spacing(self) -> float:
        """Largest gap between adjacent quadrature nodes (0 for atomic)."""
        if self.quad_weights is None:
            return 0.0
        if self.support == "circle":
            ang = np.sort(np.angle(self.positions))
            gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
            return float(np.max(gaps))
        x = np.sort(self.positions.real)
        return float(np.max(np.diff(x))) if len(x) > 1 else np.inf

    @property
    def guard_band(self) -> float:
        """Distance below which point evaluation is refused for transforms
        with a simple pole.  Atoms are exact, so the band is only a
        floating-point cushion there; density grids get 10x node spacing."""
        if self.quad_weights is None:
            scale = 1.0 + float(np.max(np.abs(self.positions)))
            return 1e-12 * scale
        return 10.0 * self.node_spacing

    def support_radius(self) -> float:
        return float(np.max(np.abs(self.positions)))

    def min_node_distance(self, lam) -> np.ndarray | float:
        arr, scalar = _as_complex_points(lam)
        r2 = _map_blocks(self, arr.reshape(-1), lambda zb, xb, r2: r2.min(axis=1))
        out = np.sqrt(r2).reshape(arr.shape)
        return float(out) if scalar else out

    def support_distance(self, lam) -> np.ndarray | float:
        """Distance from lam to the support.

        Atomic measures use the exact atom set.  Interval densities use the
        hull [min node, max node] of the grid; circle densities are treated
        as supported on the whole circle.
        """
        arr, scalar = _as_complex_points(lam)
        if self.quad_weights is None:
            return self.min_node_distance(lam)
        if self.support == "circle":
            out = np.abs(np.abs(arr) - 1.0)
        else:
            a = float(np.min(self.positions.real))
            b = float(np.max(self.positions.real))
            dx = np.maximum(np.maximum(a - arr.real, arr.real - b), 0.0)
            out = np.hypot(dx, arr.imag)
        return float(out) if scalar else out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def atomic(positions, weights, support: str = "real") -> "SpectralMeasure":
        return SpectralMeasure(support, np.asarray(positions, dtype=complex),
                               np.asarray(weights, dtype=float), None)

    @staticmethod
    def from_density(f, a: float, b: float, support: str = "real",
                     n: int = 2048) -> "SpectralMeasure":
        """Density f on the interval [a, b], Gauss-Legendre with n nodes."""
        if support not in ("real", "nonneg"):
            raise WrongSupportKind("interval densities live on the real line")
        from scipy.special import roots_legendre  # costly import, off the CLI paths
        nodes, gl_w = roots_legendre(n)
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        qw = 0.5 * (b - a) * gl_w
        vals = np.asarray([float(f(xi)) for xi in x], dtype=float)
        return SpectralMeasure(support, x.astype(complex), vals, qw)

    @staticmethod
    def circle_density(f=None, n: int = 2048) -> "SpectralMeasure":
        """Density f(theta) with respect to arc angle on the unit circle;
        f = None means the uniform measure.  Trapezoid rule on n equispaced
        angles (periodic, so the rule has no endpoint duplication)."""
        theta = 2 * np.pi * np.arange(n) / n
        qw = np.full(n, 2 * np.pi / n)
        if f is None:
            vals = np.full(n, 1.0 / (2 * np.pi))
        else:
            vals = np.asarray([float(f(th)) for th in theta], dtype=float)
        return SpectralMeasure("circle", np.exp(1j * theta), vals, qw)

    @staticmethod
    def uniform_circle(n: int = 2048) -> "SpectralMeasure":
        return SpectralMeasure.circle_density(None, n)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "atomic":
            atoms = [[float(p.real), float(p.imag), float(w)]
                     for p, w in zip(self.positions, self.weights)]
            return {"kind": "atomic", "support": self.support, "atoms": atoms}
        if self.support == "circle":
            xs = np.angle(self.positions)
        else:
            xs = self.positions.real
        grid = [[float(x), float(v)] for x, v in zip(xs, self.weights)]
        return {"kind": "density", "support": self.support, "grid": grid}

    @staticmethod
    def from_json_dict(obj: dict) -> "SpectralMeasure":
        kind = obj.get("kind")
        support = obj.get("support")
        if support not in SUPPORT_KINDS:
            raise ValueError(f"bad support kind {support!r}")
        if kind == "atomic":
            atoms = np.asarray(obj["atoms"], dtype=float)
            if atoms.ndim != 2 or atoms.shape[1] != 3:
                raise ValueError("atoms must be rows of [re, im, weight]")
            pos = atoms[:, 0] + 1j * atoms[:, 1]
            w = atoms[:, 2]
            total = float(np.sum(w))
            if abs(total - 1.0) > _LOAD_RENORM_WARN:
                warnings.warn(f"atom weights sum to {total:.12g}; renormalizing")
            return SpectralMeasure(support, pos, w, None)
        if kind == "density":
            grid = np.asarray(obj["grid"], dtype=float)
            if grid.ndim != 2 or grid.shape[1] != 2:
                raise ValueError("grid must be rows of [x, f(x)]")
            x, vals = grid[:, 0], grid[:, 1]
            order = np.argsort(x)
            x, vals = x[order], vals[order]
            if support == "circle":
                pos = np.exp(1j * x)
                # periodic trapezoid in angle
                ext = np.concatenate([[x[-1] - 2 * np.pi], x, [x[0] + 2 * np.pi]])
                qw = 0.5 * (ext[2:] - ext[:-2])
            else:
                pos = x.astype(complex)
                qw = np.zeros_like(x)
                if len(x) > 1:
                    qw[1:-1] = 0.5 * (x[2:] - x[:-2])
                    qw[0] = 0.5 * (x[1] - x[0])
                    qw[-1] = 0.5 * (x[-1] - x[-2])
                else:
                    raise ValueError("density grid needs at least 2 nodes")
            total = float(np.sum(vals * qw))
            if abs(total - 1.0) > _LOAD_RENORM_WARN:
                warnings.warn(f"density mass is {total:.12g}; renormalizing")
            return SpectralMeasure(support, pos, vals, qw)
        raise ValueError(f"bad measure kind {kind!r}")

    @staticmethod
    def load(path_or_dict) -> "SpectralMeasure":
        if isinstance(path_or_dict, dict):
            return SpectralMeasure.from_json_dict(path_or_dict)
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            return SpectralMeasure.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _executor():
    """The thread pool, created on first use: one worker per usable CPU."""
    global _pool
    from concurrent.futures import ThreadPoolExecutor  # slow import, off small calls
    with _pool_lock:
        if _pool is None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count())
            _pool = ThreadPoolExecutor(cpus, thread_name_prefix="measures")
    return _pool


# a forked child has none of the pool's threads, so it starts its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))


def _map_blocks(mu: SpectralMeasure, flat, block_fn):
    """block_fn(zb, xb, r2) over blocks of _BLOCK_ELEMENTS // nodes flat
    points (an empty call is one empty block), concatenated: zb is a block's
    points as a column, xb the node row (real-line nodes as floats) and r2
    = |zb - xb|^2 a fresh array that block_fn may overwrite.  Pooled tasks
    run in a copy of the caller's context; the first error stops the call
    and is raised once."""
    nodes = mu.positions.real if mu.support in ("real", "nonneg") else mu.positions
    xb = nodes[None, :]
    block = max(1, _BLOCK_ELEMENTS // len(nodes))

    def run(i):
        zb = flat[i : i + block, None]
        return block_fn(zb, xb, _sq_dist(zb, xb))

    def task(blocks, err):
        with np.errstate(**err):
            return [run(i) for i in blocks]

    starts = range(0, max(len(flat), 1), block)
    if len(starts) == 1:
        return run(0)
    if len(flat) * len(nodes) < _POOL_PAIRS:
        return np.concatenate([run(i) for i in starts])
    # a task runs about a quarter of the pool threshold in blocks, with the
    # caller's error state (numpy 1.x keeps it per thread, 2.x in the context)
    per = max(1, (_POOL_PAIRS >> 2) // (block * len(nodes)))
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, task,
                           starts[k : k + per], np.geterr())
               for k in range(0, len(starts), per)]
    try:
        return np.concatenate([part for f in futures for part in f.result()])
    finally:
        for f in futures:
            if not f.cancel():
                f.exception()  # waits for a task already running


def _sq_dist(zb, xb):
    """|zb - xb|^2 in real arithmetic, in one fresh buffer kernels may reuse."""
    r2 = zb.real - xb.real
    r2 *= r2
    r2 += (zb.imag - xb.imag) ** 2 if np.iscomplexobj(xb) else zb.imag ** 2
    return r2


def _inv(r2, eps):
    """1 / (r2 + eps), computed over the buffer of r2."""
    if eps:
        r2 += eps
    return np.reciprocal(r2, out=r2)


def _blocked_sum(mu: SpectralMeasure, lam, node_fn, weights=None):
    """Sum_j w_j * node_fn(lam, xi_j, |lam - xi_j|^2) over the blocks of
    _map_blocks: node_fn gets one block's points, nodes and r2 array.
    weights defaults to the probability weights; an (m, c) matrix gives c
    sums per point on a trailing axis.  Scalars in give scalars out."""
    arr = np.asarray(lam, dtype=complex)
    w = mu.prob_weights if weights is None else weights
    out = _map_blocks(mu, arr.reshape(-1), lambda zb, xb, r2: node_fn(zb, xb, r2) @ w)
    return out.reshape(arr.shape + w.shape[1:])[()]


def _cauchy_nodes(zb, xb, r2, eps=0.0):
    """conj(zb - xb) / (r2 + eps) per node, over the buffer of r2."""
    return (np.conj(zb) - np.conj(xb)) * _inv(r2, eps)


def reg_cauchy_transform(mu: SpectralMeasure, lam, eps):
    """G_eps(lam) = integral of conj(lam - xi) / (|lam - xi|^2 + eps) d mu(xi),
    the Cauchy transform regularized by eps >= 0; unguarded."""
    eps = float(eps)
    return _blocked_sum(mu, lam, lambda zb, xb, r2: _cauchy_nodes(zb, xb, r2, eps))


def cauchy_transform(mu: SpectralMeasure, z):
    """G(z) = integral of 1/(z - xi) d mu(xi), reg_cauchy_transform at eps = 0.

    Requires z off the support: exact atoms for atomic measures, a guard
    band of 10x node spacing for density grids (the quadrature cannot be
    trusted closer than that); the distance comes from the sum's own pass.
    """
    nearest = [np.inf]

    def guarded(zb, xb, r2):
        nearest.append(r2.min(initial=np.inf))
        return _cauchy_nodes(zb, xb, r2)

    with np.errstate(divide="ignore", invalid="ignore"):
        g = _blocked_sum(mu, z, guarded)
    if np.sqrt(min(nearest)) <= mu.guard_band:
        raise EvaluationOnSupport(
            f"cauchy transform requested within {mu.guard_band:.3g} of the support")
    return g


def cauchy_derivative(mu: SpectralMeasure, z):
    """G'(z) = -integral of 1/(z - xi)^2 d mu(xi); unguarded, so callers
    evaluate cauchy_transform at the same point first."""
    return _blocked_sum(mu, z, lambda zb, xb, r2: -_cauchy_nodes(zb, xb, r2) ** 2)


def herglotz(mu: SpectralMeasure, lam):
    """J(lam) = 1/2 - lam * G(lam); equals 1/2 at lam = 0 for any measure."""
    arr = np.asarray(lam, dtype=complex)
    return 0.5 - arr * cauchy_transform(mu, arr)


def reg_resolvent(mu: SpectralMeasure, lam, eps):
    """Integral of 1/(|xi - lam|^2 + eps) d mu(xi), an extended real.

    eps = 0 is allowed and may return +inf (exactly at an atom).  Small
    negative eps is allowed while the integrand stays bounded, i.e. while
    the distance from lam to the support exceeds sqrt(|eps|); otherwise
    NegativeEpsilon is raised.  Strictly decreasing in eps.
    """
    eps = float(eps)
    if eps < 0:
        dist = np.min(mu.min_node_distance(lam))
        if dist * dist <= -eps:
            raise NegativeEpsilon(
                f"eps = {eps:.3g} turns the integrand singular at distance {dist:.3g}")
    with np.errstate(divide="ignore"):
        return _blocked_sum(mu, lam, lambda zb, xb, r2: _inv(r2, eps))


def reg_resolvent_deps(mu: SpectralMeasure, lam, eps):
    """d/d eps of reg_resolvent: -integral of (|xi - lam|^2 + eps)^-2."""
    eps = float(eps)
    with np.errstate(divide="ignore"):
        return _blocked_sum(mu, lam, lambda zb, xb, r2: -_inv(r2, eps) ** 2)


def neg2_trace(mu: SpectralMeasure, lam):
    """Integral of |xi - lam|^-2 d mu(xi); +inf exactly at an atom."""
    return reg_resolvent(mu, lam, 0.0)


def neg2_moments(mu: SpectralMeasure, lam):
    """Integrals of |xi - lam|^-2 and |xi|^2 |xi - lam|^-2 d mu(xi) from one
    pass over the nodes, as a pair of extended reals."""
    w = mu.prob_weights
    w2 = np.stack([w, w * _sq_dist(mu.positions, 0.0)], axis=1)
    with np.errstate(divide="ignore"):
        both = _blocked_sum(mu, lam, lambda zb, xb, r2: _inv(r2, 0.0), w2)
    return both[..., 0][()], both[..., 1][()]


def neg4_trace(mu: SpectralMeasure, lam):
    """Integral of |xi - lam|^-4 d mu(xi); +inf exactly at an atom."""
    return -reg_resolvent_deps(mu, lam, 0.0)


def log_potential(mu: SpectralMeasure, lam):
    """Integral of log |xi - lam|^2 d mu(xi); -inf exactly at an atom."""
    with np.errstate(divide="ignore"):
        return _blocked_sum(mu, lam, lambda zb, xb, r2: np.log(r2, out=r2))


def symmetrize(mu: SpectralMeasure) -> SpectralMeasure:
    """Push a nonnegative-line measure to its symmetrization on the real
    line: half the mass at +xi, half at -xi."""
    if mu.support != "nonneg":
        raise WrongSupportKind("symmetrize expects a nonneg-supported measure")
    x = mu.positions.real
    if mu.kind == "atomic":
        at_zero = np.abs(x) <= 1e-15
        pos = np.concatenate([-x[~at_zero][::-1], x[at_zero], x[~at_zero]])
        w = mu.weights
        wts = np.concatenate([0.5 * w[~at_zero][::-1], w[at_zero], 0.5 * w[~at_zero]])
        return SpectralMeasure("real", pos.astype(complex), wts, None)
    pos = np.concatenate([-x[::-1], x])
    vals = 0.5 * np.concatenate([mu.weights[::-1], mu.weights])
    qw = np.concatenate([mu.quad_weights[::-1], mu.quad_weights])
    return SpectralMeasure("real", pos.astype(complex), vals, qw)
