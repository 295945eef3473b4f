"""Planar level-set extraction and emission.

Scalar fields are sampled on rectangular grids whose nodes sit at cell
centers.  Level sets are traced with marching squares: linear interpolation
along grid edges, saddle cells disambiguated by the cell-center sample
(mean of the four corners), infinities clamped to a large finite stand-in
so "+inf is above any level" holds throughout.  The extractor is
sign-agnostic; callers decide which side of the level is "inside".  It
works on arrays: every mixed cell's case (its corner code, or a saddle's
resolution) looks its segments up in one table of edge slots, the slots
become integer edge ids (horizontal edges row-major, then vertical ones),
and every crossing edge is interpolated at once.  Only joining the
segments into chains walks in Python.

The boundary utilities work on arrays too.  map_boundary calls the map
once on each chain's points and once on each level of midpoints it
inserts; a call that raises is repeated point by point, so the error
names its point.  point_in_region and distance_to_boundary test every
chain's segments in one pass.

Output formats: csv (one row per node or polyline point), json (a
self-describing document under the schema tag "brownscope-region/1"), and
16-bit binary PGM for grids (affine value map recorded in header comments,
top image row = max imaginary part).  emit also writes the documents the
CLI builds: a dict as a json line and a Table as csv.
"""

from __future__ import annotations

import collections
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import MapEvaluationError

_BIG = 1e30  # finite stand-in for +-inf during interpolation
_MAX_EXPANSION, _MAX_DEPTH = 5.0, 12  # map_boundary's refinement rule


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

    def rows(self) -> list:
        """(re, im, chain index, closed flag) of every point, chain by chain."""
        return [(float(p.real), float(p.imag), c_idx, int(chain.closed))
                for c_idx, chain in enumerate(self.polylines)
                for p in chain.points]


# a csv document: a header line, rows of cells, and (key, value) comment
# lines written after the meta comments
Table = collections.namedtuple("Table", "header rows comments", defaults=((),))


def evaluate_grid(f, bounds, nx: int, ny: int, *,
                  conj_symmetric: bool = False) -> Grid:
    """Sample f on an nx-by-ny cell-centered grid over bounds =
    (re_min, re_max, im_min, im_max).  f is called once, on the complex
    node array, and must return values of its shape (ValueError
    otherwise); its errors propagate.

    conj_symmetric=True promises f(conj z) = f(z).  When also im_min =
    -im_max, f sees only the node columns j >= ny // 2 (the middle one of
    an odd ny included), and column j < ny // 2 is a copy of column
    ny - 1 - j, so the grid is exactly mirror-symmetric.  A copied value is
    f at the exact conjugate of its upper node; when the cell size is not
    dyadic that is off the lower node by the rounding of the node
    coordinates, a few ulps of im_max.  Other bounds ignore the flag."""
    re_min, re_max, im_min, im_max = map(float, bounds)
    g = Grid(re_min, re_max, im_min, im_max, nx, ny,
             np.zeros((nx, ny)))
    lo = ny // 2 if conj_symmetric and im_min == -im_max else 0
    nodes = g.nodes()[:, lo:]
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError(f"f returned shape {vals.shape} on nodes of shape "
                         f"{nodes.shape}")
    vals = np.concatenate([vals[:, ::-1][:, :lo], vals], axis=1)
    return Grid(re_min, re_max, im_min, im_max, nx, ny, vals)


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

# The segment table: _SEGMENTS[code, center] lists the edge slots that a
# cell's segments join, one segment or two, padded with -1.  code is the
# 4-bit corner code (bit k set when corner k is above the level; corners
# 0 = (i, j), 1 = (i+1, j), 2 = (i+1, j+1), 3 = (i, j+1)) and center is 1
# when the cell-center mean is above the level.  Only the saddles 5 and 10
# depend on it: a center above connects the diagonal of above corners.
# Slots: 0 bottom (c0-c1), 1 right (c1-c2), 2 top (c3-c2), 3 left (c0-c3).
_SEGMENTS = np.array([
    [[[-1, -1], [-1, -1]], [[-1, -1], [-1, -1]]],
    [[[0, 3], [-1, -1]], [[0, 3], [-1, -1]]],
    [[[0, 1], [-1, -1]], [[0, 1], [-1, -1]]],
    [[[3, 1], [-1, -1]], [[3, 1], [-1, -1]]],
    [[[1, 2], [-1, -1]], [[1, 2], [-1, -1]]],
    [[[0, 3], [1, 2]], [[3, 2], [0, 1]]],  # 5
    [[[0, 2], [-1, -1]], [[0, 2], [-1, -1]]],
    [[[3, 2], [-1, -1]], [[3, 2], [-1, -1]]],
    [[[2, 3], [-1, -1]], [[2, 3], [-1, -1]]],
    [[[0, 2], [-1, -1]], [[0, 2], [-1, -1]]],
    [[[0, 1], [2, 3]], [[0, 3], [1, 2]]],  # 10
    [[[1, 2], [-1, -1]], [[1, 2], [-1, -1]]],
    [[[1, 3], [-1, -1]], [[1, 3], [-1, -1]]],
    [[[0, 1], [-1, -1]], [[0, 1], [-1, -1]]],
    [[[0, 3], [-1, -1]], [[0, 3], [-1, -1]]],
    [[[-1, -1], [-1, -1]], [[-1, -1], [-1, -1]]],
])
# by slot: whether its edge is vertical, and the edge's first node minus the
# cell's corner 0 (rows: vertical, di, dj)
_SLOT_EDGES = np.array([[0, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])


def extract_levelset(grid: Grid, level: float, *, wrap_im: bool = False) -> Boundary:
    """Trace the level set {f = level} and assemble it into polylines.

    A corner counts as above when value > level, with +-inf clamped to
    +-1e30 first (so +inf is always above, -inf always below).  A shared
    edge gives the same point to both of its segments, which makes chains
    join exactly.  Closed chains are flagged.

    wrap_im=True makes the imaginary axis periodic: the cells between the
    last node row and the first are traced too, so chains crossing that seam
    close like any other, with seam points up to half a cell above im_max.
    """
    # the chains are built once the crossings' arrays are freed
    return _assemble_chains(*_crossings(grid, level, wrap_im), level)


def _crossings(grid: Grid, level: float, wrap_im: bool):
    """The segments of extract_levelset as pairs of edge ids, and the
    crossing point of each of their edges by id."""
    v = np.clip(grid.values, -_BIG, _BIG)  # nan stays nan
    xs, ys, ny = grid.node_re(), grid.node_im(), grid.ny
    if wrap_im:
        v = np.concatenate([v, v[:, :1]], axis=1)
        ys = np.append(ys, ys[-1] + grid.dim)
    above = v > level
    codes = (above[:-1, :-1].astype(np.int8)
             + 2 * above[1:, :-1].astype(np.int8)
             + 4 * above[1:, 1:].astype(np.int8)
             + 8 * above[:-1, 1:].astype(np.int8))
    i, j = np.nonzero((codes > 0) & (codes < 15))
    center = 0.25 * (v[i, j] + v[i + 1, j] + v[i + 1, j + 1] + v[i, j + 1])

    # the segments, cell by cell, as the slots of their two ends
    slots = _SEGMENTS[codes[i, j], (center > level).astype(np.int8)]
    kept = slots[:, :, 0] >= 0
    vertical, di, dj = _SLOT_EDGES[:, slots]
    # each end's edge runs from node (ei, ej) to (fi, fj); node row ny of a
    # wrapped grid is row 0
    vertical = vertical[kept]
    ei = (i[:, None, None] + di)[kept]
    ej = ((j[:, None, None] + dj) % ny)[kept]
    fi, fj = ei + 1 - vertical, ej + vertical

    # the crossings, all at once: a shared edge gets the same bits from
    # both of its segments
    va, vb = v[ei, ej], v[fi, fj]
    za, zb = xs[ei] + 1j * ys[ej], xs[fi] + 1j * ys[fj]
    s = np.clip((level - va) / (vb - va), 0.0, 1.0)
    points = za + s * (zb - za)
    # edge ids: the horizontal edges row-major, then the vertical ones, so
    # ids sort as (kind, i, j) does
    n_h = (grid.nx - 1) * ny
    edges = np.where(vertical, n_h + ei * (v.shape[1] - 1) + ej, ei * ny + ej)
    return edges.tolist(), dict(zip(edges.ravel().tolist(), points.ravel()))


def _assemble_chains(segments, point_at, level) -> Boundary:
    """Join segments, given as pairs of edge ids, into chains of the points
    point_at gives each edge."""
    adj = {}
    for s_idx, (ka, kb) in enumerate(segments):
        adj.setdefault(ka, []).append((s_idx, kb))
        adj.setdefault(kb, []).append((s_idx, ka))

    used = [False] * len(segments)
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


def map_boundary(boundary: Boundary, m) -> Boundary:
    """Apply a point map to every polyline, inserting source midpoints
    wherever an image segment is more than _MAX_EXPANSION times longer than
    its source segment, level by level up to _MAX_DEPTH levels.  m is
    called once on each chain's points and once on each level's
    midpoints.  If a call raises, its points are mapped one at a time, so a
    failure names the point it happened at, as a midpoint's names the end
    of the source segment that inserted it."""
    mapped_chains = []
    for chain in boundary.polylines:
        src = np.asarray(chain.points, dtype=complex)
        if chain.closed:
            src = np.append(src, src[:1])
        # the points, their images, and the index of each one's source end
        ends = np.arange(len(src))
        images = _map_points(m, src, ends)
        for _ in range(_MAX_DEPTH):
            # a segment found short keeps its ends, so it stays short
            dz, dw = np.abs(np.diff(src)), np.abs(np.diff(images))
            at = np.flatnonzero((dw > _MAX_EXPANSION * dz) & (dz > 0)) + 1
            if not at.size:
                break
            mid = 0.5 * (src[at - 1] + src[at])
            src = np.insert(src, at, mid)
            images = np.insert(images, at, _map_points(m, mid, ends[at]))
            ends = np.insert(ends, at, ends[at])
        if chain.closed and len(images) > 1:
            images = images[:-1]
        mapped_chains.append(Chain(images, chain.closed))
    return Boundary(mapped_chains, boundary.level)


def _map_points(m, z, index):
    """m on the points z in one call, or one at a time when that call
    raises; a point's failure is a MapEvaluationError at its index."""
    try:
        return np.asarray(m(z), dtype=complex).reshape(z.shape)
    except Exception:  # noqa: BLE001 - mapped again point by point
        pass
    out = np.empty_like(z)
    for k, (idx, zk) in enumerate(zip(index.tolist(), z)):
        try:
            out[k] = complex(m(zk))
        except Exception as exc:  # noqa: BLE001 - context then re-raise
            raise MapEvaluationError(idx, zk, exc) from exc
    return out


def _segments(boundary: Boundary, close_all: bool):
    """Start and end points of every chain's segments; a chain flagged
    closed, or every chain with close_all, also joins its last point to
    its first."""
    chains = [(c.points, close_all or c.closed) for c in boundary.polylines]
    starts = [p if closed else p[:-1] for p, closed in chains]
    stops = [np.roll(p, -1) if closed else p[1:] for p, closed in chains]
    return (np.concatenate([np.empty(0, complex), *starts]),
            np.concatenate([np.empty(0, complex), *stops]))


def point_in_region(boundary: Boundary, z) -> np.ndarray | bool:
    """Even-odd (crossing number) test against all polylines together.
    Chains are treated as closed polygons, so this is only meaningful for
    boundaries whose chains all close up."""
    zs = np.asarray(z, dtype=complex)
    pts = zs.reshape(-1, 1)
    p, q = _segments(boundary, close_all=True)
    x0, y0, x1, y1 = p.real, p.imag, q.real, q.imag
    px, py = pts.real, pts.imag
    cond = (y0 > py) != (y1 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
    inside = (cond & (px < xint)).sum(axis=1) % 2 == 1
    return bool(inside[0]) if zs.ndim == 0 else inside.reshape(zs.shape)


def distance_to_boundary(boundary: Boundary, z) -> np.ndarray | float:
    """Euclidean distance to the nearest polyline segment."""
    zs = np.asarray(z, dtype=complex)
    pts = zs.reshape(-1, 1)
    a, b = _segments(boundary, close_all=False)
    ab = b - a
    denom = np.abs(ab) ** 2
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(((pts - a) * np.conj(ab)).real / denom, 0.0, 1.0)
    best = np.abs(pts - (a + t * ab)).min(axis=1, initial=np.inf)
    return float(best[0]) if zs.ndim == 0 else best.reshape(zs.shape)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


SCHEMA = "brownscope-region/1"


def emit(obj, fmt: str, meta: dict | None = None) -> bytes:
    """Serialize a Grid or Boundary (csv, json; pgm for grids), a document
    dict (json) or a Table (csv).  meta entries are recorded in header
    comments (csv, pgm) or a "meta" field (json)."""
    if fmt == "json":
        doc = dict(obj) if isinstance(obj, dict) else document(obj)
        if meta:
            doc["meta"] = dict(meta)
        return (json.dumps(doc, sort_keys=True) + "\n").encode()
    if fmt == "csv":
        return _emit_csv(obj if isinstance(obj, Table) else _table(obj), meta)
    if fmt == "pgm":
        if not isinstance(obj, Grid):
            raise ValueError("pgm output is defined for grids only")
        return _emit_pgm(obj, meta)
    raise ValueError(f"unknown format {fmt!r}")


def _meta_lines(meta):
    return [f"# {k} = {meta[k]}" for k in sorted(meta or {})]


def _table(obj) -> Table:
    if isinstance(obj, Grid):
        res, ims = obj.node_re(), obj.node_im()
        return Table("re,im,value", (
            (float(res[i]), float(ims[j]), float(obj.values[i, j]))
            for i in range(obj.nx) for j in range(obj.ny)))
    if isinstance(obj, Boundary):
        return Table("re,im,chain,closed", obj.rows())
    raise TypeError(f"cannot emit {type(obj).__name__}")


def _emit_csv(table: Table, meta) -> bytes:
    # str of a float is its repr: the shortest string that reads back
    lines = [*_meta_lines(meta), *(f"# {k} = {v}" for k, v in table.comments),
             table.header, *(",".join(map(str, row)) for row in table.rows)]
    return ("\n".join(lines) + "\n").encode()


def document(obj) -> dict:
    """The brownscope-region/1 document of a Grid or Boundary, without meta."""
    doc = {"schema": SCHEMA}
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
    return doc


def read_boundary(doc) -> Boundary:
    """The Boundary of a brownscope-region/1 boundary document, or the
    sigma boundary of a domain document.  ValueError when doc is neither
    or is malformed."""
    try:
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"input is not a {SCHEMA} document")
        if doc.get("kind") == "domain":
            doc = doc["sigma"]
        if doc.get("kind") != "boundary":
            raise ValueError("input document does not hold a boundary")
        chains = [Chain(np.asarray([complex(p[0], p[1]) for p in ch["points"]]),
                        bool(ch["closed"])) for ch in doc["polylines"]]
        return Boundary(chains, float(doc.get("level", 0.0)))
    except (AttributeError, IndexError, KeyError, OverflowError,
            TypeError) as exc:
        raise ValueError(f"malformed boundary document: {exc!r}") from exc


def json_float(x):
    """x as strict JSON: a float, or "inf", "-inf" or "nan"."""
    return _json_float(x)


# grid documents call this private name per value: traces wrap public ones
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
    values reconstructed from the recorded affine map, so nan and -inf
    samples come back as vmin and +inf as vmax.  emit writes the magic,
    each comment, the size and the maximum gray level on lines of their
    own, and this reads only that layout."""
    header, comments, pos = [], {}, 0
    while len(header) < 4:
        eol = data.index(b"\n", pos)
        line = data[pos:eol].decode()
        pos = eol + 1
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value
        else:
            header += line.split()
    if header[0] != "P5":
        raise ValueError("not a binary PGM")
    nx, ny, maxval = map(int, header[1:4])
    if maxval != 65535:
        raise ValueError("expected 16-bit PGM")
    if "bounds" not in comments:
        raise ValueError("missing bounds comment")
    vmin, vmax = map(float, comments.get("clamp", "0 0").split())
    raw = np.frombuffer(data, dtype=">u2", offset=pos, count=nx * ny)
    img = raw.reshape(ny, nx).astype(float)
    values = vmin + img[::-1, :].T * ((vmax - vmin) / 65535.0 if vmax > vmin else 0.0)
    grid = Grid(*map(float, comments["bounds"].split()), nx, ny, values)
    return grid, vmin, vmax
