"""Grid evaluation, level-set extraction, boundary mapping, emission."""

import json

import numpy as np
import pytest

from brownscope import (Boundary, Chain, EvaluationOnSupport, Grid,
                        distance_to_boundary, emit, evaluate_grid,
                        extract_levelset, level_crossing_on_ray, map_boundary,
                        parse_pgm, point_in_region)


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


def test_grid_pointwise_fallback():
    # scalar-only f (raises on arrays) must still work
    def f(z):
        return abs(complex(z)) ** 2
    ga = evaluate_grid(f, (-1, 1, -1, 1), 5, 5)
    gb = evaluate_grid(sq_modulus, (-1, 1, -1, 1), 5, 5)
    assert np.allclose(ga.values, gb.values)


def test_grid_vectorized_error_propagates_once():
    # only TypeError or a wrong shape falls back to pointwise calls
    calls = []

    def f(z):
        calls.append(np.shape(z))
        raise EvaluationOnSupport("inside the guard band")
    with pytest.raises(EvaluationOnSupport):
        evaluate_grid(f, (-1, 1, -1, 1), 5, 5)
    assert calls == [(5, 5)]


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


def test_level_crossing_on_ray():
    r = level_crossing_on_ray(sq_modulus, 0.0, 0.7, 0.1, 3.0, 1.0)
    assert r == pytest.approx(1.0, abs=1e-9)
    # infinite values on the inner end are tolerated
    def f(z):
        with np.errstate(divide="ignore"):
            return -1.0 / np.abs(z) ** 2
    r2 = level_crossing_on_ray(f, 0.0, 0.0, 0.0, 3.0, -1.0)
    assert r2 == pytest.approx(1.0, abs=1e-9)


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
