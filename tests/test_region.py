"""Grid evaluation, level-set extraction, boundary mapping, emission."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownscope import (Boundary, Chain, EvaluationOnSupport, Grid,
                        MapEvaluationError, distance_to_boundary, emit,
                        evaluate_grid, extract_levelset, map_boundary,
                        parse_pgm, point_in_region)
from brownscope.region import document, read_boundary


def all_points(b: Boundary) -> np.ndarray:
    return np.concatenate([c.points for c in b.polylines])


def sq_modulus(z):
    return np.abs(z) ** 2


# --- evaluate_grid ----------------------------------------------------------

def test_grid_center_node():
    g = evaluate_grid(sq_modulus, (-1, 1, -1, 1), 3, 3)
    assert g.values.shape == (3, 3)
    assert g.values[1, 1] == 0.0


def test_grid_constant():
    g = evaluate_grid(lambda z: np.full_like(z, 5.0, dtype=float),
                      (-1, 1, -1, 1), 4, 5)
    assert np.all(g.values == 5.0)


def test_grid_nodes_at_cell_centers():
    g = evaluate_grid(sq_modulus, (0, 1, 0, 2), 4, 8)
    assert g.node_re()[0] == pytest.approx(0.125)
    assert g.node_re()[-1] == pytest.approx(0.875)
    assert g.node_im()[0] == pytest.approx(0.125)
    assert g.node_im()[-1] == pytest.approx(1.875)


def test_grid_vectorized_error_propagates_once():
    # f is called once, on the node array; its errors are not retried
    calls = []

    def f(z):
        calls.append(np.shape(z))
        raise EvaluationOnSupport("inside the guard band")
    with pytest.raises(EvaluationOnSupport):
        evaluate_grid(f, (-1, 1, -1, 1), 5, 5)
    assert calls == [(5, 5)]


def test_grid_refuses_a_wrong_shaped_result():
    with pytest.raises(ValueError, match="shape"):
        evaluate_grid(lambda z: 1.0, (-1, 1, -1, 1), 5, 5)
    with pytest.raises(ValueError, match="shape"):
        evaluate_grid(lambda z: np.ones(z.size), (-1, 1, -1, 1), 5, 6,
                      conj_symmetric=True)


def _recording(f):
    """f, with the shape of every argument it is called on recorded."""
    def g(z):
        g.shapes.append(np.shape(z))
        return f(z)
    g.shapes = []
    return g


@pytest.mark.parametrize("ny", [8, 9])
def test_conj_symmetric_grid_evaluates_the_upper_half_once(ny):
    f = _recording(lambda z: np.abs(z - 0.3) ** 2 + z.imag ** 2)
    g = evaluate_grid(f, (-1, 2, -1.5, 1.5), 6, ny, conj_symmetric=True)
    assert f.shapes == [(6, ny - ny // 2)]
    for j in range(ny):
        assert np.array_equal(g.values[:, j], g.values[:, ny - 1 - j])
    # the evaluated half is the plain grid's upper half, bit for bit
    plain = evaluate_grid(f, (-1, 2, -1.5, 1.5), 6, ny)
    assert np.array_equal(g.values[:, ny // 2:], plain.values[:, ny // 2:])
    assert np.allclose(g.values, plain.values, rtol=1e-14, atol=0)
    # a copied value is f at the conjugate of its upper node, which is off
    # the lower node by rounding only (1/3 is not a dyadic cell size)
    im = g.node_im()
    assert np.all(np.abs(im[::-1] + im) <= 3 * np.spacing(1.5))


def test_conj_symmetric_flag_needs_mirrored_bounds():
    f = _recording(lambda z: np.abs(z) ** 2)
    for bounds in [(-1, 1, -1, 2), (-1, 1, 0, 1), (-1, 1, -1, 1 + 1e-15)]:
        f.shapes.clear()
        flagged = evaluate_grid(f, bounds, 5, 6, conj_symmetric=True)
        assert f.shapes == [(5, 6)]
        plain = evaluate_grid(f, bounds, 5, 6)
        assert flagged.values.tobytes() == plain.values.tobytes()


# --- extract_levelset -------------------------------------------------------

def test_levelset_circle():
    nx = 128
    g = evaluate_grid(sq_modulus, (-2, 2, -2, 2), nx, nx)
    b = extract_levelset(g, 1.0)
    assert len(b.polylines) == 1
    assert b.polylines[0].closed
    r = np.abs(all_points(b))
    assert np.max(np.abs(r - 1.0)) < 2 * (4.0 / nx)


def test_levelset_empty_below_minimum():
    g = evaluate_grid(sq_modulus, (0.5, 1.0, 0.5, 1.0), 8, 8)
    b = extract_levelset(g, -1.0)
    assert b.polylines == []


def test_levelset_sign_flip_identity():
    g = evaluate_grid(sq_modulus, (-2, 2, -2, 2), 32, 32)
    neg = Grid(g.re_min, g.re_max, g.im_min, g.im_max, g.nx, g.ny, -g.values)
    b1 = extract_levelset(g, 1.0)
    b2 = extract_levelset(neg, -1.0)
    p1 = np.sort_complex(all_points(b1))
    p2 = np.sort_complex(all_points(b2))
    assert len(p1) == len(p2)
    assert np.allclose(p1, p2)


def test_levelset_deterministic_saddle():
    # checkerboard 2x2 produces the ambiguous saddle codes
    vals = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = Grid(0, 1, 0, 1, 2, 2, vals)
    b1 = extract_levelset(g, 0.5)
    b2 = extract_levelset(g, 0.5)
    assert len(b1.polylines) == len(b2.polylines) > 0
    for c1, c2 in zip(b1.polylines, b2.polylines):
        assert np.array_equal(c1.points, c2.points)


def test_levelset_handles_infinities():
    def f(z):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(z) ** 2
    g = evaluate_grid(f, (-2, 2, -2, 2), 64, 64)
    # f = inf near 0; level 1 isolates |z| = 1
    b = extract_levelset(g, 1.0)
    r = np.abs(all_points(b))
    assert np.max(np.abs(r - 1.0)) < 0.2


def test_levelset_refinement():
    g1 = evaluate_grid(sq_modulus, (-2, 2, -2, 2), 64, 64)
    g2 = evaluate_grid(sq_modulus, (-2, 2, -2, 2), 128, 128)
    b1 = extract_levelset(g1, 1.0)
    b2 = extract_levelset(g2, 1.0)
    diag = np.hypot(4 / 64, 4 / 64)
    # every coarse point is within a coarse cell diagonal of the fine curve
    fine = all_points(b2)
    for p in all_points(b1):
        assert np.min(np.abs(fine - p)) < diag


# --- periodic imaginary axis -------------------------------------------------

# integer fields on 17 x 32 nodes over [0, 1] x [0, 2 pi]: exact corner values,
# so the traced points are the same bytes on any machine
_I, _J = np.meshgrid(np.arange(17), np.arange(32), indexing="ij")


def seam_blob(center=0):
    """Squared distance to node (8, center), periodic in the row index j."""
    dj = np.minimum((_J - center) % 32, (center - _J) % 32)
    return Grid(0.0, 1.0, 0.0, 2 * np.pi, 17, 32, (_I - 8) ** 2 + dj ** 2)


def winding_band():
    """A band around a zigzag that runs once around the angle axis."""
    zigzag = 2 - np.abs(_J % 8 - 4)
    return Grid(0.0, 1.0, 0.0, 2 * np.pi, 17, 32, (_I - 8 - zigzag) ** 2)


def test_wrap_closes_a_blob_straddling_the_seam():
    g = seam_blob()
    (chain,) = extract_levelset(g, 10.5, wrap_im=True).polylines
    assert chain.closed
    # seam points lie up to half a cell above the top of the grid
    assert np.all(chain.points.imag > 0)
    assert np.all(chain.points.imag <= 2 * np.pi + g.dim / 2)
    # the same blob away from the seam, traced without wrapping, is the
    # same chain shifted by 16 rows
    (ref,) = extract_levelset(seam_blob(16), 10.5).polylines
    assert ref.closed and len(ref.points) == len(chain.points)
    moved = chain.points + 16j * g.dim
    moved = moved.real + 1j * np.mod(moved.imag, 2 * np.pi)
    assert np.abs(moved[:, None] - ref.points[None, :]).min(axis=1).max() < 1e-12


def test_wrap_closes_a_band_winding_around_the_axis():
    chains = extract_levelset(winding_band(), 6.5, wrap_im=True).polylines
    assert len(chains) == 2
    for c in chains:
        assert c.closed and len(c.points) == 64
        # the chain winds once: its steps in angle add up to one period
        steps = np.diff(np.append(c.points, c.points[0]).imag)
        steps = np.mod(steps + np.pi, 2 * np.pi) - np.pi
        assert abs(abs(steps.sum()) - 2 * np.pi) < 1e-9


@pytest.mark.parametrize("field, level, digest", [
    (seam_blob, 10.5,
     "f7c2bd9bfa62f2bdab7f8356ed9ad89a1e4c90acba5846679fb3852fb9cedc42"),
    (winding_band, 6.5,
     "7c72ae441736c7c699a68b9433a0b075cd61d175e0c1e94bbec60d23088dd149"),
])
def test_no_wrap_keeps_the_rectangular_trace(field, level, digest):
    g = field()
    plain = emit(extract_levelset(g, level, wrap_im=False), "json")
    assert plain == emit(extract_levelset(g, level), "json")
    # the trace as it was before wrap_im existed, seam chains left open
    assert hashlib.sha256(plain).hexdigest() == digest
    assert not any(c.closed for c in extract_levelset(g, level).polylines)


# integer corners with a nan, a +inf and a -inf; at level 0.5 the grid, traced
# with and without the periodic row, holds all 14 mixed corner codes and both
# saddle resolutions of codes 5 and 10
_NAN, _INF = np.nan, np.inf
_CODES_GRID = Grid(0.0, 7.0, 0.0, 6.0, 7, 6, np.array([
    [0, 1, 2, 3, -2, -2],
    [2, 3, _NAN, -1, 3, 0],
    [-1, 2, -1, 0, 1, 1],
    [-2, -2, 3, 2, 3, 1],
    [2, -1, 0, 2, _INF, -1],
    [-2, -_INF, 3, -2, 0, 0],
    [3, -1, 1, -1, -2, 2]]))


def _cell_cases(v, level):
    """The corner code of every mixed cell, with the saddles 5 and 10 paired
    with whether their centre mean is above the level."""
    v = np.clip(np.nan_to_num(v, nan=np.nan), -1e30, 1e30)
    a = v > level
    codes = a[:-1, :-1] + 2 * a[1:, :-1] + 4 * a[1:, 1:] + 8 * a[:-1, 1:]
    centre = (v[:-1, :-1] + v[1:, :-1] + v[1:, 1:] + v[:-1, 1:]) / 4 > level
    return {(int(c), bool(m)) if c in (5, 10) else int(c)
            for c, m in zip(codes.ravel(), centre.ravel()) if 0 < c < 15}


def test_codes_grid_reaches_every_cell_case():
    v = _CODES_GRID.values
    cases = (_cell_cases(v, 0.5)
             | _cell_cases(np.concatenate([v, v[:, :1]], axis=1), 0.5))
    assert cases == {1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14,
                     (5, False), (5, True), (10, False), (10, True)}


@pytest.mark.parametrize("level, wrap, digest", [
    (0.5, False,
     "df876a6d30e845ff66dba3e5a026dad974ef0651a8cad39750f0967148369e10"),
    (0.5, True,
     "76c50fa7148a3d3a7acb2792c766a5e640b38be5371c2f5383942ff7e5f33b47"),
    (1.0, False,
     "cf733f13649d54c7d34b14e7bab740029804296c9d6b341d0436a0ef089776fe"),
    (1.0, True,
     "28a3eb422c75a7fbf8dc8309be509e016f8ce1a3febf92b73e29424df61800ee"),
])
def test_levelset_bytes_over_every_cell_case(level, wrap, digest):
    # corners equal to the level 1.0 put points on nodes; the digests are the
    # per-cell tracer's output, so the segment order and every point's bits
    # are pinned
    out = emit(extract_levelset(_CODES_GRID, level, wrap_im=wrap), "json")
    assert hashlib.sha256(out).hexdigest() == digest


# --- map_boundary -----------------------------------------------------------

def unit_circle_boundary(n=256):
    ang = 2 * np.pi * np.arange(n) / n
    return Boundary([Chain(np.exp(1j * ang), True)], 1.0)


def test_map_identity():
    b = unit_circle_boundary()
    m = map_boundary(b, lambda z: z)
    assert np.array_equal(m.polylines[0].points, b.polylines[0].points)
    assert m.polylines[0].closed


def test_map_ellipse():
    b = unit_circle_boundary(720)
    m = map_boundary(b, lambda z: z + 0.5 * np.conj(z))
    pts = all_points(m)
    assert np.abs(pts.real).max() == pytest.approx(1.5, abs=1e-3)
    assert np.abs(pts.imag).max() == pytest.approx(0.5, abs=1e-3)
    # vertex points: 1 -> 1.5, i -> 0.5i
    assert np.min(np.abs(pts - 1.5)) < 1e-6
    assert np.min(np.abs(pts - 0.5j)) < 1e-6
    # on-curve check: (x/1.5)^2 + (y/0.5)^2 = 1
    assert np.max(np.abs((pts.real / 1.5) ** 2 + (pts.imag / 0.5) ** 2 - 1)) < 1e-6


def test_map_degenerate_segment():
    # z + 1/z on the unit circle collapses to [-2, 2] on the real axis
    b = unit_circle_boundary(720)
    m = map_boundary(b, lambda z: z + 1.0 / z)
    pts = all_points(m)
    assert np.max(np.abs(pts.imag)) < 1e-12
    assert pts.real.min() == pytest.approx(-2.0, abs=1e-6)
    assert pts.real.max() == pytest.approx(2.0, abs=1e-6)


def test_map_functoriality():
    b = unit_circle_boundary(360)
    f = lambda z: z + 0.2 * np.conj(z)
    g = lambda z: z * np.exp(0.3j)
    m1 = map_boundary(map_boundary(b, f), g)
    m2 = map_boundary(b, lambda z: g(f(z)))
    p1, p2 = all_points(m1), all_points(m2)
    # refinement may insert different midpoints; compare as point sets
    for p in p2[::7]:
        assert np.min(np.abs(p1 - p)) < 1e-3


def test_map_refines_long_segments():
    # a sparse polyline through a strongly expanding map gains points
    ang = 2 * np.pi * np.arange(8) / 8
    b = Boundary([Chain(np.exp(1j * ang), True)], 1.0)
    m = map_boundary(b, lambda z: z ** 3 * 50.0)
    assert len(m.polylines[0].points) > 8


def test_map_error_formats_the_point_as_a_python_complex():
    err = MapEvaluationError(3, np.complex128(0.5 + 0.1j), ValueError("off"))
    assert "np." not in str(err) and "(0.5+0.1j)" in str(err)

    def refuse(z):
        raise ValueError("off")

    with pytest.raises(MapEvaluationError, match=r"point 0 \(1\+0j\)") as info:
        map_boundary(unit_circle_boundary(), refuse)
    assert "np." not in str(info.value)



def test_map_calls_once_per_chain_and_once_per_level():
    ang = 2 * np.pi * np.arange(24) / 24
    b = Boundary([Chain(np.exp(1j * ang), True),
                  Chain(np.linspace(2.0, 3.0, 9) + 0.5j, False)], 1.0)
    calls = []

    def m(z):
        calls.append(np.shape(z))
        return 40.0 * np.asarray(z) ** 3

    out = map_boundary(b, m)
    # |m'| = 120 |z|^2 > 5 everywhere, so every source segment is bisected
    # down to the depth cap
    assert [len(c.points) for c in out.polylines] == [24 * 4096, 8 * 4096 + 1]
    # each chain's source points (a closed chain's first one again at its
    # end) in one call, then each level's midpoints in one
    assert calls == ([(25,)] + [(24 << k,) for k in range(12)]
                     + [(9,)] + [(8 << k,) for k in range(12)])


def test_map_names_the_guard_band_point_of_a_batch():
    from functools import partial
    from brownscope import SpectralMeasure, phi_formula
    mu = SpectralMeasure.from_density(
        lambda x: np.sqrt(max(4.0 - x * x, 0.0)) / (2 * np.pi), -2.0, 2.0, n=101)
    pts = 3.0 * np.exp(1j * np.linspace(0.2, 2.9, 12))
    pts[5] = 0.5 + 1e-3j  # within 10 node spacings of the support
    phi = partial(phi_formula, mu, 0.5)
    with pytest.raises(EvaluationOnSupport):
        phi(pts)
    calls = []

    def m(z):
        calls.append(np.shape(z))
        return phi(z)

    with pytest.raises(MapEvaluationError) as info:
        map_boundary(Boundary([Chain(pts, False)], 1.0), m)
    assert info.value.index == 5 and info.value.point == pts[5]
    assert isinstance(info.value.cause, EvaluationOnSupport)
    # the refused batch, then the points up to the one that fails
    assert calls == [(12,)] + [()] * 6

def test_map_names_the_segment_end_of_a_failing_midpoint():
    # m expands every segment 10-fold, so each is bisected level by level;
    # it refuses only 1.25, the midpoint the second level inserts between
    # 1 and 1.5, both on the source segment that ends at point 2
    calls = []

    def m(z):
        z = np.asarray(z)
        calls.append(z.shape)
        if np.any(z == 1.25):
            raise ValueError("refused")
        return 10.0 * z

    with pytest.raises(MapEvaluationError) as info:
        map_boundary(Boundary([Chain(np.array([0.0, 1.0, 2.0]) + 0j, False)],
                              1.0), m)
    assert info.value.index == 2 and info.value.point == 1.25
    assert isinstance(info.value.cause, ValueError)
    # the chain, the first level, the refused second level, then its
    # midpoints up to the one that fails
    assert calls == [(3,), (2,), (4,), (), (), ()]


# --- point membership and ray crossing ---------------------------------------

def test_point_in_region():
    b = unit_circle_boundary()
    assert point_in_region(b, 0.0)
    assert point_in_region(b, 0.7 + 0.2j)
    assert not point_in_region(b, 1.4)
    assert not point_in_region(b, -2.0 + 1j)
    arr = point_in_region(b, np.array([0.0, 2.0, 0.5j]))
    assert arr.tolist() == [True, False, True]


def test_distance_to_boundary():
    b = unit_circle_boundary(2048)
    assert distance_to_boundary(b, 0.0) == pytest.approx(1.0, abs=1e-5)
    assert distance_to_boundary(b, 3.0) == pytest.approx(2.0, abs=1e-5)


def test_distance_to_an_open_polyline():
    # the L from 0 to 1 to 1+i: -1-i is nearest the end 0, 0.5-0.25i the
    # inside of the first segment, and 0.2+0.8i the second segment, since
    # no chord closes an open chain (the chord from 1+i to 0 is 0.42 away)
    b = Boundary([Chain(np.array([0.0, 1.0, 1.0 + 1.0j]), False)], 1.0)
    got = distance_to_boundary(b, np.array([-1.0 - 1.0j, 0.5 - 0.25j,
                                            0.2 + 0.8j]))
    assert got == pytest.approx([np.sqrt(2.0), 0.25, 0.8], abs=1e-15)
    assert distance_to_boundary(b, 2.0 + 2.0j) == pytest.approx(np.sqrt(2.0))


# --- emission ---------------------------------------------------------------

def test_csv_grid_rows():
    g = evaluate_grid(sq_modulus, (0, 1, 0, 1), 2, 2)
    text = emit(g, "csv").decode()
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "re,im,value"
    assert len(rows) == 1 + 4


def test_csv_meta_header():
    g = evaluate_grid(sq_modulus, (0, 1, 0, 1), 2, 2)
    text = emit(g, "csv", meta={"command": "lifetime", "config": "abc"}).decode()
    assert "# command = lifetime" in text
    assert "# config = abc" in text


def test_json_boundary_schema():
    b = unit_circle_boundary(16)
    doc = json.loads(emit(b, "json"))
    assert doc["schema"] == "brownscope-region/1"
    assert doc["kind"] == "boundary"
    assert doc["polylines"][0]["closed"] is True
    assert len(doc["polylines"][0]["points"]) == 16


def test_json_grid_infinities():
    vals = np.array([[1.0, np.inf], [-np.inf, np.nan]])
    g = Grid(0, 1, 0, 1, 2, 2, vals)
    doc = json.loads(emit(g, "json"))
    flat = sum(doc["values"], [])
    assert "inf" in flat and "-inf" in flat and "nan" in flat


def test_pgm_round_trip():
    g = evaluate_grid(sq_modulus, (-2, 2, -2, 2), 16, 16)
    data = emit(g, "pgm")
    assert data.startswith(b"P5")
    g2, vmin, vmax = parse_pgm(data)
    assert (g2.nx, g2.ny) == (16, 16)
    step = (vmax - vmin) / 65535
    assert np.max(np.abs(g2.values - g.values)) <= 0.5 * step + 1e-12


def test_pgm_clamps_infinities():
    vals = np.array([[0.0, np.inf], [1.0, -np.inf]])
    g = Grid(0, 1, 0, 1, 2, 2, vals)
    data = emit(g, "pgm")
    assert b"# clamp" in data
    g2, vmin, vmax = parse_pgm(data)
    assert np.isfinite(g2.values).all()
    assert g2.values.max() == pytest.approx(vmax)
    assert g2.values.min() == pytest.approx(vmin)


def test_pgm_top_row_is_max_imag():
    # value increases with im; the first pgm row must hold the largest values
    g = evaluate_grid(lambda z: z.imag, (0, 1, 0, 1), 4, 4)
    data = emit(g, "pgm")
    header_end = data.rfind(b"65535") + 6
    raster = np.frombuffer(data[header_end:], dtype=">u2").reshape(4, 4)
    assert raster[0].min() > raster[-1].max()


_sample = st.one_of(st.floats(-1e6, 1e6, allow_subnormal=False),
                    st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def pgm_grids(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    bounds = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=4, max_size=4))
    values = draw(st.lists(_sample, min_size=nx * ny, max_size=nx * ny))
    return Grid(*bounds, nx, ny, np.reshape(values, (nx, ny)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pgm_grids())
def test_pgm_round_trip_property(g):
    g2, vmin, vmax = parse_pgm(emit(g, "pgm"))
    assert (g2.re_min, g2.re_max, g2.im_min, g2.im_max, g2.nx, g2.ny) == \
        (g.re_min, g.re_max, g.im_min, g.im_max, g.nx, g.ny)
    v = g.values
    finite = np.isfinite(v)
    if finite.any():
        assert (vmin, vmax) == (v[finite].min(), v[finite].max())
    else:
        assert (vmin, vmax) == (0.0, 0.0)
    # half a gray level, plus rounding of the affine map back
    tol = (vmax - vmin) / 131070 + 4 * np.spacing(max(abs(vmin), abs(vmax)))
    assert np.all(np.abs(g2.values[finite] - v[finite]) <= tol)
    # the clamps: nan and -inf read back as vmin, +inf as vmax
    assert np.all(g2.values[np.isnan(v) | (v == -np.inf)] == vmin)
    assert np.all(np.abs(g2.values[v == np.inf] - vmax) <= tol)


_coordinate = st.floats(allow_nan=False)


@st.composite
def boundaries(draw):
    chains = [Chain(np.asarray([complex(re, im) for re, im in draw(st.lists(
        st.tuples(_coordinate, _coordinate), min_size=1, max_size=6))]),
        draw(st.booleans())) for _ in range(draw(st.integers(0, 3)))]
    return Boundary(chains, draw(_coordinate))


def _assert_same_boundary(got, b):
    assert got.level == b.level
    assert [c.closed for c in got.polylines] == [c.closed for c in b.polylines]
    for cg, cb in zip(got.polylines, b.polylines):
        np.testing.assert_array_equal(cg.points, cb.points)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(boundaries())
def test_read_boundary_inverts_emit_property(b):
    # points, closed flags and level come back exactly, from a boundary
    # document and from the sigma of a domain document
    _assert_same_boundary(read_boundary(json.loads(emit(b, "json"))), b)
    domain = {"schema": "brownscope-region/1", "kind": "domain",
              "level": b.level, "sigma": document(b), "mapped": document(b)}
    _assert_same_boundary(read_boundary(json.loads(emit(domain, "json"))), b)
