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

Sums over a real-line measure of more than _LEAF_NODES = 64 nodes run
through a panel tree (the interpolation form of the fast multipole
method): the sorted nodes are halved into panels until a leaf holds at
most 64, and every panel of more than _PROXIES = 24 nodes and positive
width carries 24 Chebyshev points of its hull, with the Lagrange map that
turns its node weights (a vector, or an (m, c) matrix) into proxy
weights.  For a block of _LIST_POINTS = 128 points, a panel whose hull
lies at least _FAR_RATIO = 1 panel width from every point (reading Im lam
as |Im lam|) contributes its proxies, and the leaves no such panel covers
contribute their nodes.  The kernel is then a smooth function of the
node across each far panel: the sums stay within 1e-13 of the summed
magnitudes of the direct sum (tested; about 2e-15 is seen), sums at an
atom stay exactly infinite, and the nearest node, which decides the
guard band and NegativeEpsilon, is found exactly.  For eps < 0 the
kernel's poles lie within sqrt(-eps) of lam or conj(lam), and the
distance a panel must keep grows by that much.

Every other sum is direct: a measure off the real line, or of at most 64
nodes (a tree of one leaf), and a call of fewer than _LIST_MIN_PAIRS =
2^13 point x node pairs, where building lists costs more than it saves.
Direct sums run over row blocks of 2^16 point x node floats, which stay
in a core's cache.  Every sum, direct or through the tree, runs on the
calling thread.

Transforms are vectorized over the evaluation point.  Scalars in give
scalars out; arrays in give arrays of the same shape out.  Quantities that
genuinely diverge (inverse-square trace at an atom, log potential at an
atom) come back as float infinities rather than raising.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationOnSupport, NegativeEpsilon, WrongSupportKind

SUPPORT_KINDS = ("real", "nonneg", "circle", "complex")

# Points x nodes floats per block: 2^16 (512 KiB) stays in a core's cache.
_BLOCK_ELEMENTS = 1 << 16
# The panel tree: nodes per leaf at most, Chebyshev proxies per panel, and
# the distance from a block of points, in panel widths, past which a panel
# is summed through its proxies.
_LEAF_NODES = 64
_PROXIES = 24
_FAR_RATIO = 1.0
# Points per block of an interaction-list sum.  Calls of fewer point x
# node pairs sum every node: their lists would cost more than they save.
_LIST_POINTS = 128
_LIST_MIN_PAIRS = 1 << 13

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
        if not (np.isfinite(pos).all() and np.isfinite(w).all()):
            raise ValueError("positions and weights must be finite")
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
        if self.on_real_line:
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
        with np.errstate(over="ignore"):
            mass = float(np.sum(w if qw is None else w * qw))
        if mass <= 0:
            raise ValueError("measure has no mass")
        if mass == np.inf:  # w / mass would set every weight to 0
            raise ValueError("measure mass overflows the float range")
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
    def on_real_line(self) -> bool:
        """True for "real" and "nonneg" supports: every node is real, so
        functions of |lam - x| take equal values at lam and conj(lam)."""
        return self.support in ("real", "nonneg")

    @property
    def prob_weights(self) -> np.ndarray:
        """Effective probability weights at the nodes (sums to 1)."""
        if self.quad_weights is None:
            return self.weights
        return self.weights * self.quad_weights

    @functools.cached_property
    def node_spacing(self) -> float:
        """Largest gap between adjacent quadrature nodes (0 for atomic);
        computed once, since every guarded sum reads it."""
        if self.quad_weights is None:
            return 0.0
        if self.support == "circle":
            ang = np.sort(np.angle(self.positions))
            gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
            return float(np.max(gaps))
        x = np.sort(self.positions.real)
        return float(np.max(np.diff(x))) if len(x) > 1 else np.inf

    @functools.cached_property
    def moment_weights(self) -> np.ndarray:
        """The (m, 2) node weights w and w |xi|^2 that neg2_moments sums
        against, built on first use."""
        w = self.prob_weights
        return np.stack([w, w * _sq_dist(self.positions, 0.0)], axis=1)

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
            mu = SpectralMeasure(support, pos, w, None)
            what, total = "atom weights sum to", float(np.sum(w))
        elif kind == "density":
            grid = np.asarray(obj["grid"], dtype=float)
            if grid.ndim != 2 or grid.shape[1] != 2:
                raise ValueError("grid must be rows of [x, f(x)]")
            x, vals = grid[:, 0], grid[:, 1]
            order = np.argsort(x)
            x, vals = x[order], vals[order]
            if support == "circle":
                pos = np.exp(1j * x)
                qw = _trapezoid_weights(x, period=2 * np.pi)
            else:
                pos = x.astype(complex)
                qw = _trapezoid_weights(x)
            mu = SpectralMeasure(support, pos, vals, qw)
            what, total = "density mass is", float(np.sum(vals * qw))
        else:
            raise ValueError(f"bad measure kind {kind!r}")
        # warn only about an input the constructor accepted
        if abs(total - 1.0) > _LOAD_RENORM_WARN:
            warnings.warn(f"{what} {total:.12g}; renormalizing")
        return mu

    @staticmethod
    def load(path_or_dict) -> "SpectralMeasure":
        if isinstance(path_or_dict, dict):
            return SpectralMeasure.from_json_dict(path_or_dict)
        with open(path_or_dict, "r", encoding="utf-8") as fh:
            return SpectralMeasure.from_json_dict(json.load(fh))


def _trapezoid_weights(x, period=None) -> np.ndarray:
    """Trapezoid weights of the nodes x: half the gap between each node's
    neighbours.  An end node stands in for its own missing neighbour, or,
    on an axis of the given period, the node one period away does."""
    if period is None and len(x) < 2:
        raise ValueError("density grid needs at least 2 nodes")
    lo, hi = (x[:1], x[-1:]) if period is None else (x[-1:] - period, x[:1] + period)
    ext = np.concatenate([lo, x, hi])
    return 0.5 * (ext[2:] - ext[:-2])


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _map_blocks(mu: SpectralMeasure, flat, block_fn):
    """block_fn(zb, xb, r2) over blocks of _BLOCK_ELEMENTS // nodes flat
    points (an empty call is one empty block), concatenated: zb is a block's
    points as a column, xb the node row (real-line nodes as floats) and r2
    = |zb - xb|^2 a fresh array that block_fn may overwrite."""
    nodes = mu.positions.real if mu.on_real_line else mu.positions
    xb = nodes[None, :]
    block = max(1, _BLOCK_ELEMENTS // len(nodes))
    parts = []
    for i in range(0, max(len(flat), 1), block):
        zb = flat[i : i + block, None]
        parts.append(block_fn(zb, xb, _sq_dist(zb, xb)))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sq_dist(zb, xb):
    """|zb - xb|^2 in real arithmetic, in one fresh buffer kernels may reuse;
    a square past the float range is inf, its right limit."""
    with np.errstate(over="ignore"):
        r2 = zb.real - xb.real
        r2 *= r2
        r2 += (zb.imag - xb.imag) ** 2 if np.iscomplexobj(xb) else zb.imag ** 2
    return r2


def _inv(r2, eps):
    """1 / (r2 + eps), computed over the buffer of r2."""
    if eps:
        r2 += eps
    return np.reciprocal(r2, out=r2)


def _lagrange(c, beta, x):
    """(len(c), len(x)) values at x of the Lagrange basis on the points c,
    whose barycentric weights are beta."""
    d = x[None, :] - c[:, None]
    hit = d == 0
    d[hit] = 1.0
    q = beta[:, None] / d
    q /= q.sum(axis=0)
    cols = hit.any(axis=0)
    q[:, cols] = hit[:, cols]
    return q


class _PanelTree:
    """Binary panel tree over the sorted nodes of a real-line measure (see
    the module docstring).  Panels are numbered in heap order: panel k of
    level l is number 2^l - 1 + k and covers the sorted nodes
    [k m >> l, (k+1) m >> l), so the last level holds the leaves.  A tree of
    one leaf carries no proxies: its sums are direct."""

    def __init__(self, mu: SpectralMeasure):
        m = len(mu.positions)
        depth = 0
        while mu.on_real_line and -(-m >> depth) > _LEAF_NODES:
            depth += 1
        self.depth = depth
        self._weights = {}
        if not depth:
            return
        self.order = np.argsort(mu.positions.real, kind="stable")
        self.nodes = mu.positions.real[self.order]
        self.fence = np.concatenate([[-np.inf], self.nodes, [np.inf]])
        level = np.repeat(np.arange(depth + 1), 1 << np.arange(depth + 1))
        k = np.arange(len(level)) + 1 - (1 << level)
        self.lo, self.hi = (k * m) >> level, ((k + 1) * m) >> level
        self.leaf_sizes = (self.hi - self.lo)[level == depth]
        self.a, self.b = self.nodes[self.lo], self.nodes[self.hi - 1]
        width = self.b - self.a
        self.proxied = (self.hi - self.lo > _PROXIES) & (width > 0)
        # the distance from which a panel is far; NaN, never, without proxies
        self.far_at = np.where(self.proxied, _FAR_RATIO * width, np.nan)
        theta = (2 * np.arange(_PROXIES) + 1) * np.pi / (2 * _PROXIES)
        self.beta = (-1.0) ** np.arange(_PROXIES) * np.sin(theta)
        self.proxies = (0.5 * (self.a + self.b))[:, None] \
            + (0.5 * width)[:, None] * np.cos(theta)

    def weights(self, w, key):
        """(proxy weights, node weights in tree order) of the node weights w,
        an (m,) vector or an (m, c) matrix, kept under key: the name of the
        measure's attribute that holds w."""
        got = self._weights.get(key)
        if got is None:
            ws = w[self.order]
            wp = np.zeros(self.proxies.shape + w.shape[1:])
            for p in np.flatnonzero(self.proxied):
                lo, hi = self.lo[p], self.hi[p]
                wp[p] = _lagrange(self.proxies[p], self.beta,
                                  self.nodes[lo:hi]) @ ws[lo:hi]
            got = self._weights[key] = (wp, ws)
        return got

    def interactions(self, zc, starts, reach):
        """Per block of the points zc at the offsets `starts`, boolean rows
        of (far panels, near leaves).  A proxied panel is far when its hull
        lies at least _FAR_RATIO of its widths plus reach from every point
        of the block and no ancestor is far; the leaves that no far panel
        covers are near."""
        x, y = zc.real, np.abs(zc.imag)
        lo, hi = np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)
        dx = np.maximum(self.a - hi[:, None], lo[:, None] - self.b)
        dist = np.hypot(np.maximum(dx, 0.0, out=dx),
                        np.minimum.reduceat(y, starts)[:, None])
        far = dist - reach >= self.far_at
        covered = np.zeros_like(far)  # by a far ancestor
        for l in range(1, self.depth + 1):
            up = slice((1 << (l - 1)) - 1, (1 << l) - 1)
            covered[:, (1 << l) - 1 : (2 << l) - 1] = np.repeat(
                far[:, up] | covered[:, up], 2, axis=1)
        near = ~(far | covered)[:, -len(self.leaf_sizes):]
        return far & ~covered, near

    def nearest(self, zb):
        """The least |zb - xi|^2 over the block and all nodes: the nodes on
        either side of each point give the float a pass over all would."""
        k = np.searchsorted(self.nodes, zb.real)
        left, right = self.fence[k], self.fence[k + 1]
        xi = np.where(zb.real - left <= right - zb.real, left, right)
        return _sq_dist(zb, xi).min(initial=np.inf)

    def sums(self, flat, node_fn, wp, ws, reach, nearest):
        """The sums of _summed through the interaction lists, over blocks
        of _LIST_POINTS points and chunks of blocks whose lists are built
        together."""
        per = max(1, _BLOCK_ELEMENTS // len(self.far_at))
        parts = []
        for c in range(0, len(flat), per * _LIST_POINTS):
            zc = flat[c : c + per * _LIST_POINTS]
            starts = range(0, len(zc), _LIST_POINTS)
            far, near = self.interactions(zc, starts, reach)
            for b, i in enumerate(starts):
                zb = zc[i : i + _LIST_POINTS, None]
                f, n = np.flatnonzero(far[b]), np.repeat(near[b], self.leaf_sizes)
                if nearest is not None:
                    nearest.append(self.nearest(zb))
                xb = np.concatenate([self.proxies[f].ravel(), self.nodes[n]])
                wb = np.concatenate([wp[f].reshape((-1,) + ws.shape[1:]), ws[n]])
                # the list of a scattered block may be long: a block's floats
                # at a time
                step = max(1, _BLOCK_ELEMENTS // len(zb))
                out = 0.0
                for j in range(0, len(xb), step):
                    xs = xb[None, j : j + step]
                    out = out + node_fn(zb, xs, _sq_dist(zb, xs)) @ wb[j : j + step]
                parts.append(out)
        return np.concatenate(parts)


def _tree(mu: SpectralMeasure) -> _PanelTree:
    """The measure's panel tree, built on first use and kept on it."""
    tree = mu.__dict__.get("_tree")
    if tree is None:
        tree = _PanelTree(mu)
        object.__setattr__(mu, "_tree", tree)
    return tree


def _summed(mu: SpectralMeasure, lam, node_fn, weights="prob_weights",
            reach=0.0, nearest=None):
    """Sum_j w_j * node_fn(lam, xi_j, |lam - xi_j|^2) over blocks of points:
    node_fn gets one block's points as a column, a row of nodes (or of
    proxies standing for far panels) and their r2 array, which it may
    overwrite.  weights names the measure's node weights: prob_weights, or
    moment_weights, whose two columns give two sums per point on a
    trailing axis; scalars in give scalars out.  reach bounds how far from
    lam or conj(lam) the kernel's singularities lie, and a list given as
    nearest collects the least |lam - xi|^2 of each block.  Calls of fewer
    than _LIST_MIN_PAIRS pairs, and one-leaf trees, sum every node
    directly."""
    arr = np.asarray(lam, dtype=complex)
    flat = arr.reshape(-1)
    tree = _tree(mu)
    w = getattr(mu, weights)
    if tree.depth and len(flat) * len(w) >= _LIST_MIN_PAIRS:
        wp, ws = tree.weights(w, weights)
        out = tree.sums(flat, node_fn, wp, ws, reach, nearest)
    else:
        def block_fn(zb, xb, r2):
            if nearest is not None:
                nearest.append(r2.min(initial=np.inf))
            return node_fn(zb, xb, r2) @ w

        out = _map_blocks(mu, flat, block_fn)
    return out.reshape(arr.shape + w.shape[1:])[()]


def _cauchy_nodes(zb, xb, r2, eps=0.0):
    """conj(zb - xb) / (r2 + eps) per node, over the buffer of r2 and
    scaled in the difference's buffer, so one complex block is live."""
    out = np.conj(zb) - np.conj(xb)
    out *= _inv(r2, eps)
    return out


def reg_cauchy_transform(mu: SpectralMeasure, lam, eps):
    """G_eps(lam) = integral of conj(lam - xi) / (|lam - xi|^2 + eps) d mu(xi),
    the Cauchy transform regularized by eps >= 0; unguarded."""
    eps = float(eps)
    return _summed(mu, lam, lambda zb, xb, r2: _cauchy_nodes(zb, xb, r2, eps))


def _sum_and_distance(mu: SpectralMeasure, lam, node_fn, reach=0.0):
    """_summed of node_fn, quietly, with the distance from lam to the
    nearest node read off the same pass."""
    nearest = [np.inf]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _summed(mu, lam, node_fn, reach=reach, nearest=nearest)
    return out, np.sqrt(min(nearest))


def _guarded_sum(mu: SpectralMeasure, z, node_fn, name: str):
    """_sum_and_distance of node_fn, refused when z is within the guard
    band of a node: exact atoms for atomic measures, 10x node spacing for
    density grids (the quadrature cannot be trusted closer than that)."""
    out, dist = _sum_and_distance(mu, z, node_fn)
    if dist <= mu.guard_band:
        raise EvaluationOnSupport(
            f"{name} requested within {mu.guard_band:.3g} of the support")
    return out


def cauchy_transform(mu: SpectralMeasure, z):
    """G(z) = integral of 1/(z - xi) d mu(xi), reg_cauchy_transform at eps = 0,
    for z off the support (_guarded_sum)."""
    return _guarded_sum(mu, z, _cauchy_nodes, "cauchy transform")


def cauchy_derivative(mu: SpectralMeasure, z):
    """G'(z) = -integral of 1/(z - xi)^2 d mu(xi), for z off the support."""
    return _guarded_sum(mu, z, lambda zb, xb, r2: -_cauchy_nodes(zb, xb, r2) ** 2,
                        "cauchy derivative")


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
    if eps >= 0:
        with np.errstate(divide="ignore"):
            return _summed(mu, lam, lambda zb, xb, r2: _inv(r2, eps))
    # the poles |lam - xi|^2 = -eps lie within sqrt(-eps) of lam or conj(lam)
    out, dist = _sum_and_distance(mu, lam, lambda zb, xb, r2: _inv(r2, eps),
                                  np.sqrt(-eps))
    if dist * dist <= -eps:
        raise NegativeEpsilon(
            f"eps = {eps:.3g} turns the integrand singular at distance {dist:.3g}")
    return out


def reg_resolvent_deps(mu: SpectralMeasure, lam, eps):
    """d/d eps of reg_resolvent: -integral of (|xi - lam|^2 + eps)^-2."""
    eps = float(eps)
    with np.errstate(divide="ignore"):
        return _summed(mu, lam, lambda zb, xb, r2: -_inv(r2, eps) ** 2)


def neg2_trace(mu: SpectralMeasure, lam):
    """Integral of |xi - lam|^-2 d mu(xi); +inf exactly at an atom."""
    return reg_resolvent(mu, lam, 0.0)


def neg2_moments(mu: SpectralMeasure, lam, eps=0.0):
    """Integrals of 1/(|xi - lam|^2 + eps) and |xi|^2/(|xi - lam|^2 + eps)
    d mu(xi) from one pass over the nodes, as a pair of extended reals.
    At lam = 0 and eps = 0 a node at 0 adds nothing to the second: its
    limit there is the mass off 0."""
    arr = np.asarray(lam, dtype=complex)
    eps = float(eps)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf at 0
        both = _summed(mu, arr, lambda zb, xb, r2: _inv(r2, eps),
                       "moment_weights")
    p2 = both[..., 1]
    off_zero = mu.positions != 0
    if eps == 0 and not off_zero.all():
        p2 = np.where(arr == 0, np.sum(mu.prob_weights[off_zero]), p2)
    return both[..., 0][()], p2[()]


def neg4_trace(mu: SpectralMeasure, lam):
    """Integral of |xi - lam|^-4 d mu(xi); +inf exactly at an atom."""
    return -reg_resolvent_deps(mu, lam, 0.0)


def log_potential(mu: SpectralMeasure, lam):
    """Integral of log |xi - lam|^2 d mu(xi); -inf exactly at an atom."""
    with np.errstate(divide="ignore"):
        return _summed(mu, lam, lambda zb, xb, r2: np.log(r2, out=r2))


def symmetrize(mu: SpectralMeasure) -> SpectralMeasure:
    """Push a nonnegative-line measure to its symmetrization on the real
    line: half the mass at +xi, half at -xi."""
    if mu.support != "nonneg":
        raise WrongSupportKind("symmetrize expects a nonneg-supported measure")
    x = mu.positions.real
    if mu.kind == "atomic":
        # an atom exactly at 0 stays whole; any other is halved and mirrored
        off = x != 0
        pos = np.concatenate([-x[off][::-1], x[~off], x[off]])
        w = mu.weights
        wts = np.concatenate([0.5 * w[off][::-1], w[~off], 0.5 * w[off]])
        return SpectralMeasure("real", pos.astype(complex), wts, None)
    pos = np.concatenate([-x[::-1], x])
    vals = 0.5 * np.concatenate([mu.weights[::-1], mu.weights])
    qw = np.concatenate([mu.quad_weights[::-1], mu.quad_weights])
    return SpectralMeasure("real", pos.astype(complex), vals, qw)
