"""Planar level-set extraction and emission.

Scalar fields are sampled on rectangular grids whose nodes sit at cell
centers.  Level sets are traced with marching squares: linear interpolation
along grid edges, saddle cells disambiguated by the cell-center sample
(mean of the four corners), infinities clamped to a large finite stand-in
so "+inf is above any level" holds throughout.  The extractor is
sign-agnostic; callers decide which side of the level is "inside".

Output formats: csv (one row per node or polyline point), json (a
self-describing document under the schema tag "brownscope-region/1"), and
16-bit binary PGM for grids (affine value map recorded in header comments,
top image row = max imaginary part).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import MapEvaluationError

_BIG = 1e30  # finite stand-in for +-inf during interpolation


@dataclass(frozen=True)
class Grid:
    """Scalar samples on a rectangular grid, nodes at cell centers.

    values[i, j] is the sample at re = re_min + (i + 1/2) dre,
    im = im_min + (j + 1/2) dim.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.nx, self.ny):
            raise ValueError(f"values must have shape ({self.nx}, {self.ny})")
        object.__setattr__(self, "values", v)

    @property
    def dre(self) -> float:
        return (self.re_max - self.re_min) / self.nx

    @property
    def dim(self) -> float:
        return (self.im_max - self.im_min) / self.ny

    @property
    def cell(self) -> float:
        return max(self.dre, self.dim)

    def node_re(self) -> np.ndarray:
        return self.re_min + (np.arange(self.nx) + 0.5) * self.dre

    def node_im(self) -> np.ndarray:
        return self.im_min + (np.arange(self.ny) + 0.5) * self.dim

    def nodes(self) -> np.ndarray:
        """Complex node array of shape (nx, ny)."""
        return self.node_re()[:, None] + 1j * self.node_im()[None, :]


@dataclass(frozen=True)
class Chain:
    points: np.ndarray  # complex, shape (k,)
    closed: bool


@dataclass(frozen=True)
class Boundary:
    polylines: list
    level: float


def evaluate_grid(f, bounds, nx: int, ny: int) -> Grid:
    """Sample f on an nx-by-ny cell-centered grid over bounds =
    (re_min, re_max, im_min, im_max).  f is tried once on the full complex
    node array; if that raises TypeError (a scalar-only f) or returns the
    wrong shape, it is called pointwise.  Any other error propagates."""
    re_min, re_max, im_min, im_max = map(float, bounds)
    g = Grid(re_min, re_max, im_min, im_max, nx, ny,
             np.zeros((nx, ny)))
    nodes = g.nodes()
    try:
        vals = np.asarray(f(nodes), dtype=float)
    except TypeError:
        vals = None
    if vals is None or vals.shape != nodes.shape:
        vals = np.empty(nodes.shape, dtype=float)
        flat_nodes = nodes.reshape(-1)
        flat = vals.reshape(-1)
        for idx, z in enumerate(flat_nodes):
            flat[idx] = float(f(complex(z)))
    return Grid(re_min, re_max, im_min, im_max, nx, ny, vals)


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

# Segment table keyed by the 4-bit corner code (bit k set when corner k is
# above the level).  Corners: 0 = (i, j), 1 = (i+1, j), 2 = (i+1, j+1),
# 3 = (i, j+1).  Edges: 'b' bottom (c0-c1), 'r' right (c1-c2),
# 't' top (c3-c2), 'l' left (c0-c3).  Codes 5 and 10 are saddles.
_CASES = {
    1: [("b", "l")],
    2: [("b", "r")],
    4: [("r", "t")],
    8: [("t", "l")],
    3: [("l", "r")],
    6: [("b", "t")],
    12: [("r", "l")],
    9: [("b", "t")],
    7: [("l", "t")],
    11: [("r", "t")],  # complement of 4
    13: [("b", "r")],  # complement of 2
    14: [("b", "l")],  # complement of 1
}
# saddle resolutions: center above connects the diagonal of above corners
_SADDLE = {
    (5, True): [("l", "t"), ("b", "r")],
    (5, False): [("b", "l"), ("r", "t")],
    (10, True): [("b", "l"), ("r", "t")],
    (10, False): [("b", "r"), ("t", "l")],
}


def _edge_key(i, j, edge):
    # global identity of a grid edge; horizontal edges join node (i, j) to
    # (i+1, j), vertical edges join (i, j) to (i, j+1)
    if edge == "b":
        return ("h", i, j)
    if edge == "t":
        return ("h", i, j + 1)
    if edge == "l":
        return ("v", i, j)
    return ("v", i + 1, j)


def extract_levelset(grid: Grid, level: float) -> Boundary:
    """Trace the level set {f = level} and assemble it into polylines.

    A corner counts as above when value > level, with +-inf clamped to
    +-1e30 first (so +inf is always above, -inf always below).  Values on
    shared edges are interpolated once per edge, which makes chains join
    exactly.  Closed chains are flagged.
    """
    v = np.nan_to_num(grid.values, nan=np.nan, posinf=_BIG, neginf=-_BIG)
    v = np.clip(v, -_BIG, _BIG)
    above = v > level

    a0 = above[:-1, :-1]
    a1 = above[1:, :-1]
    a2 = above[1:, 1:]
    a3 = above[:-1, 1:]
    codes = (a0.astype(np.int8) + 2 * a1.astype(np.int8)
             + 4 * a2.astype(np.int8) + 8 * a3.astype(np.int8))
    mixed = (codes > 0) & (codes < 15)

    xs = grid.node_re()
    ys = grid.node_im()

    point_at = {}

    def edge_point(key):
        pt = point_at.get(key)
        if pt is not None:
            return pt
        kind, i, j = key
        if kind == "h":
            va, vb = v[i, j], v[i + 1, j]
            za = xs[i] + 1j * ys[j]
            zb = xs[i + 1] + 1j * ys[j]
        else:
            va, vb = v[i, j], v[i, j + 1]
            za = xs[i] + 1j * ys[j]
            zb = xs[i] + 1j * ys[j + 1]
        s = (level - va) / (vb - va)
        s = min(max(s, 0.0), 1.0)
        pt = za + s * (zb - za)
        point_at[key] = pt
        return pt

    segments = []
    for i, j in np.argwhere(mixed):
        code = int(codes[i, j])
        if code in (5, 10):
            center = 0.25 * (v[i, j] + v[i + 1, j] + v[i + 1, j + 1] + v[i, j + 1])
            pairs = _SADDLE[(code, bool(center > level))]
        else:
            pairs = _CASES[code]
        for ea, eb in pairs:
            ka = _edge_key(int(i), int(j), ea)
            kb = _edge_key(int(i), int(j), eb)
            edge_point(ka)
            edge_point(kb)
            segments.append((ka, kb))

    return _assemble_chains(segments, point_at, level)


def _assemble_chains(segments, point_at, level) -> Boundary:
    adj = {}
    for s_idx, (ka, kb) in enumerate(segments):
        adj.setdefault(ka, []).append((s_idx, kb))
        adj.setdefault(kb, []).append((s_idx, ka))

    used = np.zeros(len(segments), dtype=bool)
    chains = []

    def walk(start_key):
        path = [start_key]
        cur = start_key
        while True:
            nxt = None
            for s_idx, other in adj[cur]:
                if not used[s_idx]:
                    used[s_idx] = True
                    nxt = other
                    break
            if nxt is None:
                return path
            path.append(nxt)
            cur = nxt

    # open chains first (odd-degree endpoints, e.g. where the level set
    # leaves the grid), then closed loops; sorted starts keep the output
    # deterministic
    odd_keys = sorted(k for k, lst in adj.items() if len(lst) % 2 == 1)
    for k in odd_keys:
        if any(not used[s] for s, _ in adj[k]):
            path = walk(k)
            chains.append((path, False))
    for ka, kb in sorted(segments):
        for k in (ka, kb):
            if any(not used[s] for s, _ in adj[k]):
                path = walk(k)
                closed = len(path) > 2 and path[0] == path[-1]
                chains.append((path, closed))

    out = []
    for path, closed in chains:
        pts = np.asarray([point_at[k] for k in path], dtype=complex)
        if closed:
            pts = pts[:-1]
        # drop consecutive duplicates (interpolation can land on a node)
        if len(pts) > 1:
            keep = np.ones(len(pts), dtype=bool)
            keep[1:] = np.abs(np.diff(pts)) > 0
            pts = pts[keep]
            if closed and len(pts) > 1 and pts[0] == pts[-1]:
                pts = pts[:-1]
        if len(pts) >= 2:
            out.append(Chain(pts, closed))
    return Boundary(out, float(level))


# ---------------------------------------------------------------------------
# boundary utilities
# ---------------------------------------------------------------------------


def map_boundary(boundary: Boundary, m, max_expansion: float = 5.0,
                 max_depth: int = 12) -> Boundary:
    """Apply a point map to every polyline, inserting source midpoints
    wherever an image segment is more than max_expansion times longer than
    its source segment.  Map failures carry the offending point index."""
    mapped_chains = []
    for chain in boundary.polylines:
        src = list(chain.points)
        if chain.closed:
            src.append(src[0])

        def safe(idx, z):
            try:
                return complex(m(z))
            except Exception as exc:  # noqa: BLE001 - context then re-raise
                raise MapEvaluationError(idx, z, exc) from exc

        out_pts = [safe(0, src[0])]

        def refine(z0, w0, z1, w1, idx, depth):
            if depth < max_depth and abs(w1 - w0) > max_expansion * abs(z1 - z0) > 0:
                zm = 0.5 * (z0 + z1)
                wm = safe(idx, zm)
                refine(z0, w0, zm, wm, idx, depth + 1)
                refine(zm, wm, z1, w1, idx, depth + 1)
            else:
                out_pts.append(w1)

        for idx in range(1, len(src)):
            w1 = safe(idx, src[idx])
            refine(src[idx - 1], out_pts[-1], src[idx], w1, idx, 0)

        pts = np.asarray(out_pts, dtype=complex)
        if chain.closed and len(pts) > 1:
            pts = pts[:-1]
        mapped_chains.append(Chain(pts, chain.closed))
    return Boundary(mapped_chains, boundary.level)


def point_in_region(boundary: Boundary, z) -> np.ndarray | bool:
    """Even-odd (crossing number) test against all polylines together.
    Chains are treated as closed polygons, so this is only meaningful for
    boundaries whose chains all close up."""
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    pts = np.atleast_1d(zs).reshape(-1)
    inside = np.zeros(pts.shape, dtype=bool)
    for chain in boundary.polylines:
        p = chain.points
        q = np.roll(p, -1)
        x0, y0 = p.real[None, :], p.imag[None, :]
        x1, y1 = q.real[None, :], q.imag[None, :]
        px, py = pts.real[:, None], pts.imag[:, None]
        cond = (y0 > py) != (y1 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
        crosses = cond & (px < xint)
        inside ^= (crosses.sum(axis=1) % 2).astype(bool)
    return bool(inside[0]) if scalar else inside.reshape(zs.shape)


def distance_to_boundary(boundary: Boundary, z) -> np.ndarray | float:
    """Euclidean distance to the nearest polyline segment."""
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    pts = np.atleast_1d(zs).reshape(-1)
    best = np.full(pts.shape, np.inf)
    for chain in boundary.polylines:
        p = chain.points
        if chain.closed:
            a, b = p, np.roll(p, -1)
        else:
            a, b = p[:-1], p[1:]
        ab = b - a
        denom = np.abs(ab) ** 2
        denom = np.where(denom == 0, 1.0, denom)
        t = ((pts[:, None] - a[None, :]) * np.conj(ab[None, :])).real / denom[None, :]
        t = np.clip(t, 0.0, 1.0)
        proj = a[None, :] + t * ab[None, :]
        d = np.abs(pts[:, None] - proj).min(axis=1)
        best = np.minimum(best, d)
    return float(best[0]) if scalar else best.reshape(zs.shape)


def level_crossing_on_ray(f, center, angle, r_lo, r_hi, level,
                          tol: float = 1e-10) -> float:
    """Bisect f(center + r e^{i angle}) - level for the crossing radius.
    Requires a sign change between r_lo and r_hi."""
    direction = np.exp(1j * float(angle))
    c = complex(center)

    def g(r):
        val = f(c + r * direction)
        if np.isinf(val):
            return 1.0 if val > 0 else -1.0
        return float(val) - level

    g_lo, g_hi = g(r_lo), g(r_hi)
    if g_lo == 0.0:
        return float(r_lo)
    if g_hi == 0.0:
        return float(r_hi)
    if (g_lo > 0) == (g_hi > 0):
        raise ValueError("no sign change on the ray")
    lo, hi = float(r_lo), float(r_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit(obj, fmt: str, meta: dict | None = None) -> bytes:
    """Serialize a Grid or Boundary.  Formats: csv, json, pgm (grids only).
    meta entries are recorded in header comments (csv, pgm) or a "meta"
    field (json)."""
    if fmt == "csv":
        return _emit_csv(obj, meta)
    if fmt == "json":
        return _emit_json(obj, meta)
    if fmt == "pgm":
        if not isinstance(obj, Grid):
            raise ValueError("pgm output is defined for grids only")
        return _emit_pgm(obj, meta)
    raise ValueError(f"unknown format {fmt!r}")


def _meta_lines(meta):
    if not meta:
        return []
    return [f"# {k} = {meta[k]}" for k in sorted(meta)]


def _emit_csv(obj, meta) -> bytes:
    buf = io.StringIO()
    for line in _meta_lines(meta):
        buf.write(line + "\n")
    if isinstance(obj, Grid):
        buf.write("re,im,value\n")
        res = obj.node_re()
        ims = obj.node_im()
        for i in range(obj.nx):
            for j in range(obj.ny):
                buf.write(f"{float(res[i])!r},{float(ims[j])!r},"
                          f"{float(obj.values[i, j])!r}\n")
    elif isinstance(obj, Boundary):
        buf.write("re,im,chain,closed\n")
        for c_idx, chain in enumerate(obj.polylines):
            flag = int(chain.closed)
            for p in chain.points:
                buf.write(f"{float(p.real)!r},{float(p.imag)!r},{c_idx},{flag}\n")
    else:
        raise TypeError(f"cannot emit {type(obj).__name__}")
    return buf.getvalue().encode()


def _emit_json(obj, meta) -> bytes:
    doc = {"schema": "brownscope-region/1"}
    if meta:
        doc["meta"] = dict(meta)
    if isinstance(obj, Grid):
        doc["kind"] = "grid"
        doc["bounds"] = [float(obj.re_min), float(obj.re_max),
                         float(obj.im_min), float(obj.im_max)]
        doc["nx"], doc["ny"] = int(obj.nx), int(obj.ny)
        doc["order"] = "row-major, re index outer"
        doc["values"] = [[_json_float(x) for x in row] for row in obj.values]
    elif isinstance(obj, Boundary):
        doc["kind"] = "boundary"
        doc["level"] = float(obj.level)
        doc["polylines"] = [
            {"closed": bool(chain.closed),
             "points": [[float(p.real), float(p.imag)] for p in chain.points]}
            for chain in obj.polylines
        ]
    else:
        raise TypeError(f"cannot emit {type(obj).__name__}")
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _json_float(x):
    if np.isposinf(x):
        return "inf"
    if np.isneginf(x):
        return "-inf"
    if np.isnan(x):
        return "nan"
    return float(x)


def _emit_pgm(grid: Grid, meta) -> bytes:
    v = grid.values
    finite = v[np.isfinite(v)]
    if finite.size:
        vmin, vmax = float(finite.min()), float(finite.max())
    else:
        vmin, vmax = 0.0, 0.0
    span = vmax - vmin
    if span == 0:
        gray = np.zeros_like(v, dtype=np.uint16)
    else:
        clamped = np.clip(np.nan_to_num(v, nan=vmin, posinf=vmax, neginf=vmin),
                          vmin, vmax)
        gray = np.rint((clamped - vmin) / span * 65535).astype(np.uint16)
    header = io.BytesIO()
    header.write(b"P5\n")
    header.write(f"# bounds = {grid.re_min} {grid.re_max} "
                 f"{grid.im_min} {grid.im_max}\n".encode())
    header.write(f"# clamp = {vmin!r} {vmax!r}\n".encode())
    for line in _meta_lines(meta):
        header.write((line + "\n").encode())
    header.write(f"{grid.nx} {grid.ny}\n65535\n".encode())
    # rows scan the imaginary axis downward: top row = max imag
    img = gray.T[::-1, :]
    header.write(img.astype(">u2").tobytes())
    return header.getvalue()


def parse_pgm(data: bytes):
    """Read back a PGM produced by emit: returns (Grid, vmin, vmax) with
    values reconstructed from the recorded affine map."""
    pos = 0

    def token():
        nonlocal pos
        while True:
            while pos < len(data) and data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] == b"#":
                eol = data.index(b"\n", pos)
                comments.append(data[pos:eol].decode())
                pos = eol + 1
                continue
            break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        return data[start:pos]

    comments = []
    magic = token()
    if magic != b"P5":
        raise ValueError("not a binary PGM")
    nx = int(token())
    ny = int(token())
    maxval = int(token())
    if maxval != 65535:
        raise ValueError("expected 16-bit PGM")
    pos += 1  # single whitespace after maxval
    raw = np.frombuffer(data, dtype=">u2", offset=pos, count=nx * ny)
    img = raw.reshape(ny, nx).astype(float)
    bounds = None
    vmin = vmax = 0.0
    for c in comments:
        body = c.lstrip("# ").strip()
        if body.startswith("bounds ="):
            bounds = [float(x) for x in body.split("=", 1)[1].split()]
        elif body.startswith("clamp ="):
            vmin, vmax = (float(x) for x in body.split("=", 1)[1].split())
    if bounds is None:
        raise ValueError("missing bounds comment")
    values = vmin + img[::-1, :].T * ((vmax - vmin) / 65535.0 if vmax > vmin else 0.0)
    grid = Grid(bounds[0], bounds[1], bounds[2], bounds[3], nx, ny, values)
    return grid, vmin, vmax
