"""Measure container and integral transforms."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from brownscope import (EvaluationOnSupport, NegativeEpsilon, SpectralMeasure,
                        T_additive, T_mult_positive, WrongSupportKind,
                        cauchy_transform, herglotz, log_potential,
                        neg2_moments, neg2_trace, neg4_trace, reg_resolvent,
                        reg_resolvent_deps, symmetrize)
from brownscope import evaluate_grid, measures


def bernoulli():
    return SpectralMeasure.atomic([-1.0, 1.0], [0.5, 0.5], support="real")


def delta(pos, support="real"):
    return SpectralMeasure.atomic([pos], [1.0], support=support)


# --- container ------------------------------------------------------------

def test_atomic_normalizes_weights():
    mu = SpectralMeasure.atomic([0.0, 3.0], [2.0, 6.0], support="nonneg")
    assert np.allclose(mu.weights, [0.25, 0.75])
    assert mu.weights.sum() == 1.0


def test_atomic_drops_zero_weight_atoms():
    mu = SpectralMeasure.atomic([0.0, 1.0, 2.0], [0.5, 0.0, 0.5],
                                support="real")
    assert len(mu.positions) == 2
    # the dropped atom must not poison divergent-sum arithmetic
    assert np.isfinite(neg2_trace(mu, 1.0))


def test_support_kind_validation():
    with pytest.raises(WrongSupportKind):
        SpectralMeasure.atomic([-1.0], [1.0], support="nonneg")
    with pytest.raises(WrongSupportKind):
        SpectralMeasure.atomic([0.5], [1.0], support="circle")
    with pytest.raises(WrongSupportKind):
        SpectralMeasure.atomic([1j], [1.0], support="real")
    with pytest.raises(WrongSupportKind):
        SpectralMeasure.atomic([1.0], [1.0], support="banana")


# --- cauchy transform -----------------------------------------------------

def test_cauchy_single_atom():
    assert cauchy_transform(delta(0.0), 2.0) == pytest.approx(0.5, abs=1e-15)


def test_cauchy_two_atoms():
    # direct two-term sum: 1/2 (1/(2-(-1)) + 1/(2-1)) = 1/2 (1/3 + 1) = 2/3
    assert cauchy_transform(bernoulli(), 2.0) == pytest.approx(2.0 / 3, abs=1e-14)


def test_cauchy_uniform_circle_matches_brute_force():
    # oracle: 1e5-node trapezoid sum of 1/(z - e^{i a}) / (2 pi)
    ang = np.linspace(0.0, 2 * np.pi, 100001)[:-1]
    oracle = np.mean(1.0 / (2.0 - np.exp(1j * ang)))
    assert abs(oracle - 0.5) < 1e-12
    mu = SpectralMeasure.uniform_circle()
    assert cauchy_transform(mu, 2.0) == pytest.approx(oracle, abs=1e-10)
    assert cauchy_transform(mu, 2.0) == pytest.approx(0.5, abs=1e-10)


def test_cauchy_on_support_raises():
    with pytest.raises(EvaluationOnSupport):
        cauchy_transform(bernoulli(), 1.0)
    mu = bernoulli()
    with pytest.raises(EvaluationOnSupport):
        cauchy_transform(mu, 1.0 + 0.1 * mu.guard_band)


def test_cauchy_guard_raises_without_warnings():
    mu = bernoulli()
    density = SpectralMeasure.from_density(
        lambda x: np.sqrt(max(4.0 - x * x, 0.0)), -2.0, 2.0, n=64)
    cases = [(mu, 1.0), (mu, np.array([3.0, -1.0, 0.5j])),
             (density, np.array([3.0, 0.3 + 0.5 * density.guard_band * 1j]))]
    for measure, z in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationOnSupport,
                               match="cauchy transform requested within"):
                cauchy_transform(measure, z)


def test_cauchy_upper_to_lower_half_plane():
    rng = np.random.default_rng(42)
    mu = bernoulli()
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
        assert cauchy_transform(mu, z).imag < 0


def test_cauchy_decay_at_infinity():
    # G(z) = 1/z + O(1/z^2)
    mu = bernoulli()
    for r in (1e3, 1e5):
        z = r * np.exp(0.3j)
        assert abs(cauchy_transform(mu, z) - 1.0 / z) < 2.0 / r ** 2


# --- herglotz -------------------------------------------------------------

def test_herglotz_at_zero_is_half():
    for mu in (delta(1.0, "circle"), bernoulli(),
               SpectralMeasure.uniform_circle(),
               SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], "nonneg")):
        assert herglotz(mu, 0.0) == pytest.approx(0.5, abs=1e-13)


def test_herglotz_single_atom_values():
    mu = delta(1.0, "circle")
    # (1/2)(xi + lam)/(xi - lam) at xi = 1
    assert herglotz(mu, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert herglotz(mu, 2.0) == pytest.approx(-1.5, abs=1e-14)


# --- regularized resolvent ------------------------------------------------

def test_reg_resolvent_values():
    assert reg_resolvent(delta(0.0), 0.0, 1.0) == pytest.approx(1.0)
    assert reg_resolvent(bernoulli(), 0.0, 0.0) == pytest.approx(1.0)
    assert reg_resolvent(bernoulli(), 2.0, 0.0) == pytest.approx(5.0 / 9)


def test_reg_resolvent_divergence_is_inf_not_exception():
    assert reg_resolvent(delta(1.0), 1.0, 0.0) == np.inf


def test_reg_resolvent_negative_epsilon():
    # far from the support a small negative epsilon is fine
    v = reg_resolvent(bernoulli(), 2.0, -1e-3)
    assert v == pytest.approx(0.5 * (1 / (9 - 1e-3) + 1 / (1 - 1e-3)), rel=1e-12)
    # singular integrand once dist^2 <= -eps
    with pytest.raises(NegativeEpsilon):
        reg_resolvent(bernoulli(), 1.1, -0.02)


def test_reg_resolvent_decreasing_in_eps():
    mu = bernoulli()
    eps = np.linspace(0.0, 4.0, 40)
    vals = np.array([reg_resolvent(mu, 0.3 + 0.2j, e) for e in eps])
    assert np.all(np.diff(vals) < 0)


# --- neg2 trace -----------------------------------------------------------

def test_neg2_trace_values():
    assert neg2_trace(delta(1.0), 1.0) == np.inf
    # 1/2 (1/|2i+1|^2 + 1/|2i-1|^2) = 1/2 (1/5 + 1/5)
    assert neg2_trace(bernoulli(), 2j) == pytest.approx(0.2, abs=1e-14)


def test_neg2_trace_density_against_quad():
    # oracle: adaptive quadrature of 3 xi^2 / xi^2 on [0, 1]
    oracle, err = integrate.quad(lambda x: 3 * x ** 2 / x ** 2, 0.0, 1.0)
    assert abs(oracle - 3.0) < 1e-10
    mu = SpectralMeasure.from_density(lambda x: 3 * x ** 2, 0.0, 1.0,
                                      support="nonneg")
    assert neg2_trace(mu, 0.0) == pytest.approx(oracle, rel=1e-8)


# --- log potential --------------------------------------------------------

def test_log_potential_values():
    assert log_potential(delta(0.0), np.e) == pytest.approx(2.0, abs=1e-13)
    assert log_potential(delta(0.0), 0.0) == -np.inf


def test_log_potential_uniform_circle_at_zero():
    # oracle: quadrature of log|e^{i a}|^2 = 0 identically
    ang = np.linspace(0.0, 2 * np.pi, 100001)[:-1]
    oracle = np.mean(np.log(np.abs(np.exp(1j * ang)) ** 2))
    assert abs(oracle) < 1e-14
    assert abs(log_potential(SpectralMeasure.uniform_circle(), 0.0)) < 1e-10


def test_log_potential_growth():
    mu = bernoulli()
    for r in (1e4, 1e6):
        lam = r * np.exp(1.1j)
        assert abs(log_potential(mu, lam) - np.log(abs(lam) ** 2)) < 1e-6


# --- symmetrize -----------------------------------------------------------

def test_symmetrize_atoms():
    s = symmetrize(delta(1.0, "nonneg"))
    assert s.support == "real"
    assert sorted(s.positions.real) == [-1.0, 1.0]
    assert np.allclose(s.weights, 0.5)

    s2 = symmetrize(SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], "nonneg"))
    assert sorted(s2.positions.real) == [-2.0, -1.0, 1.0, 2.0]
    assert np.allclose(s2.weights, 0.25)


def test_symmetrize_keeps_zero_atom_whole():
    s = symmetrize(SpectralMeasure.atomic([0.0, 2.0], [0.5, 0.5], "nonneg"))
    w0 = s.weights[np.abs(s.positions) < 1e-15]
    assert w0.sum() == pytest.approx(0.5)
    assert s.weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("atoms, weights", [
    ([1e-16, 2.0], [0.5, 0.5]),
    ([0.0, 1e-300, 3.0], [0.2, 0.3, 0.5]),
    ([2.0, 0.0, 5e-16, 1.0], [0.1, 0.2, 0.3, 0.4]),
])
def test_symmetrized_atomic_laws_are_mirror_symmetric(atoms, weights):
    s = symmetrize(SpectralMeasure.atomic(atoms, weights, "nonneg"))
    order = np.argsort(s.positions.real, kind="stable")
    x, w = s.positions.real[order], s.weights[order]
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert s.weights.sum() == pytest.approx(1.0)


def test_symmetrize_density():
    # 3 xi^2 on [0,1] -> (3/2) xi^2 on [-1,1]; check mass and a transform
    mu = SpectralMeasure.from_density(lambda x: 3 * x ** 2, 0.0, 1.0,
                                      support="nonneg")
    s = symmetrize(mu)
    assert s.support == "real"
    assert s.prob_weights.sum() == pytest.approx(1.0, abs=1e-12)
    # even function: G(iy) purely imaginary
    g = cauchy_transform(s, 2j)
    assert abs(g.real) < 1e-10
    # oracle for G(2i) of (3/2) xi^2 on [-1,1]
    re_o, _ = integrate.quad(lambda x: 1.5 * x ** 2 * (-x) / (4 + x ** 2), -1, 1)
    im_o, _ = integrate.quad(lambda x: 1.5 * x ** 2 * (-2) / (4 + x ** 2), -1, 1)
    assert g == pytest.approx(complex(re_o, im_o), abs=5e-7)


def test_symmetrize_wrong_kind():
    with pytest.raises(WrongSupportKind):
        symmetrize(bernoulli())


# --- quadrature convergence and atomic exactness ---------------------------

def test_atomic_transforms_match_explicit_sums():
    rng = np.random.default_rng(7)
    pos = rng.uniform(-2, 2, size=6)
    w = rng.uniform(0.1, 1.0, size=6)
    w = w / w.sum()
    mu = SpectralMeasure.atomic(pos, w, support="real")
    z = 1.3 + 0.9j
    assert cauchy_transform(mu, z) == pytest.approx(
        np.sum(w / (z - pos)), abs=1e-13)
    assert neg2_trace(mu, z) == pytest.approx(
        np.sum(w / np.abs(pos - z) ** 2), abs=1e-13)
    assert log_potential(mu, z) == pytest.approx(
        np.sum(w * np.log(np.abs(pos - z) ** 2)), abs=1e-13)


def test_density_node_doubling_convergence():
    pts = [0.5 + 0.5j, 2.0, -1.0 + 0.2j]
    for n in (2048,):
        mu_a = SpectralMeasure.from_density(lambda x: 1 - x ** 2, -1.0, 1.0,
                                            support="real", n=n)
        mu_b = SpectralMeasure.from_density(lambda x: 1 - x ** 2, -1.0, 1.0,
                                            support="real", n=2 * n)
        for z in pts:
            assert abs(cauchy_transform(mu_a, z)
                       - cauchy_transform(mu_b, z)) < 1e-8
            assert abs(neg2_trace(mu_a, z) - neg2_trace(mu_b, z)) < 1e-8


# --- serialization --------------------------------------------------------

def test_json_round_trip_atomic():
    mu = SpectralMeasure.atomic([1.0, 1j, -1.0, -1j], [0.25] * 4, "circle")
    doc = mu.to_json_dict()
    back = SpectralMeasure.from_json_dict(doc)
    assert back.support == "circle"
    assert np.allclose(back.positions, mu.positions)
    assert np.allclose(back.weights, mu.weights)
    # document format is plain JSON
    json.dumps(doc)


def test_json_round_trip_density():
    # the JSON document stores only (node, density) pairs; the loader
    # rebuilds weights with the trapezoid rule and renormalizes, so the
    # round trip is accurate at quadrature resolution, not bit-exact
    mu = SpectralMeasure.from_density(lambda x: 1.0, 0.0, 2.0, support="nonneg",
                                      n=256)
    with pytest.warns(UserWarning):
        back = SpectralMeasure.from_json_dict(mu.to_json_dict())
    z = 3.0 + 1.0j
    assert cauchy_transform(back, z) == pytest.approx(
        cauchy_transform(mu, z), rel=1e-4)


def test_mass_that_overflows_is_refused():
    with pytest.raises(ValueError, match="overflows"):
        SpectralMeasure.atomic([0.0, 1.0], [1e308, 1e308])
    with pytest.raises(ValueError, match="overflows"):  # w * qw overflows
        SpectralMeasure("real", [0.0, 4.0], [1e308, 1e308], [2.0, 2.0])


def test_load_refuses_before_it_warns():
    doc = {"kind": "density", "support": "real",
           "grid": [[0.0, 0.3], [1.0, -0.1], [2.0, 0.3]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonnegative"):
            SpectralMeasure.from_json_dict(doc)


def test_load_renormalizes_with_warning():
    doc = {"kind": "atomic", "support": "real",
           "atoms": [[0.0, 0.0, 0.4], [1.0, 0.0, 0.4]]}
    with pytest.warns(UserWarning):
        mu = SpectralMeasure.from_json_dict(doc)
    assert mu.weights.sum() == pytest.approx(1.0)
    # tiny drift is repaired silently
    doc2 = {"kind": "atomic", "support": "real",
            "atoms": [[0.0, 0.0, 0.5], [1.0, 0.0, 0.5 + 1e-13]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SpectralMeasure.from_json_dict(doc2)


def test_density_load_trapezoid_weights():
    # uneven nodes, given out of order: the loader sorts them and weights
    # each by half the gap between its neighbours
    x = np.array([0.0, 0.3, 0.35, 1.0, 1.8, 2.0])
    order = [3, 0, 5, 1, 4, 2]
    doc = {"kind": "density", "support": "real",
           "grid": [[x[i], 0.5] for i in order]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mu = SpectralMeasure.from_json_dict(doc)
    want = np.empty_like(x)
    want[1:-1] = 0.5 * (x[2:] - x[:-2])
    want[0] = 0.5 * (x[1] - x[0])
    want[-1] = 0.5 * (x[-1] - x[-2])
    assert np.array_equal(mu.quad_weights, want)
    # on the circle the end nodes take their neighbours one turn away
    th = np.array([-3.0, -1.0, 0.5, 2.0, 3.1])
    doc = {"kind": "density", "support": "circle",
           "grid": [[v, 1.0] for v in th[::-1]]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        circ = SpectralMeasure.from_json_dict(doc)
    ext = np.concatenate([[th[-1] - 2 * np.pi], th, [th[0] + 2 * np.pi]])
    assert np.array_equal(circ.quad_weights, 0.5 * (ext[2:] - ext[:-2]))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        SpectralMeasure.from_json_dict(
            {"kind": "density", "support": "real", "grid": [[0.0, 1.0]]})


# --- the kernel layer against direct complex-arithmetic sums ---------------

def _kernel_measures():
    g = np.linspace(-1.0, 1.0, 7)
    plane = (g[:, None] + 1j * g[None, :]).ravel()
    return {
        "atomic-real": SpectralMeasure.atomic(
            [-1.5, 0.2, 1.0], [0.2, 0.5, 0.3], "real"),
        "atomic-nonneg": SpectralMeasure.atomic(
            [0.0, 0.7, 2.0], [0.3, 0.3, 0.4], "nonneg"),
        "atomic-circle": SpectralMeasure.atomic(
            np.exp(1j * np.array([0.3, 2.0, 4.0])), [0.2, 0.3, 0.5], "circle"),
        "atomic-complex": SpectralMeasure.atomic(
            [0.5 + 0.5j, -1j, 1.5], [0.2, 0.3, 0.5], "complex"),
        "density-real": SpectralMeasure.from_density(
            lambda v: 1.0 - v * v, -1.0, 1.0, "real", n=40),
        "density-nonneg": SpectralMeasure.from_density(
            lambda v: 1.0 + v, 0.0, 2.0, "nonneg", n=40),
        "density-circle": SpectralMeasure.circle_density(
            lambda th: 1.0 + 0.5 * np.cos(th), n=40),
        "density-complex": SpectralMeasure(
            "complex", plane, np.ones(plane.size), np.full(plane.size, 0.1)),
    }


KERNEL_MEASURES = _kernel_measures()
NEG_EPS = -0.01

# (name, kernel, direct summand of d = lam - xi, only off the guard band,
#  only where |d|^2 > -NEG_EPS everywhere)
KERNELS = [
    ("cauchy_transform", measures.cauchy_transform, lambda d: 1.0 / d, True),
    ("reg_cauchy_transform",
     lambda mu, z: measures.reg_cauchy_transform(mu, z, 0.3),
     lambda d: np.conj(d) / (np.abs(d) ** 2 + 0.3), False),
    ("cauchy_derivative", measures.cauchy_derivative,
     lambda d: -1.0 / d ** 2, True),
    ("reg_resolvent eps > 0", lambda mu, z: reg_resolvent(mu, z, 0.3),
     lambda d: 1.0 / (np.abs(d) ** 2 + 0.3), False),
    ("reg_resolvent eps = 0", lambda mu, z: reg_resolvent(mu, z, 0.0),
     lambda d: 1.0 / np.abs(d) ** 2, False),
    ("reg_resolvent eps < 0", lambda mu, z: reg_resolvent(mu, z, NEG_EPS),
     lambda d: 1.0 / (np.abs(d) ** 2 + NEG_EPS), False),
    ("reg_resolvent_deps", lambda mu, z: reg_resolvent_deps(mu, z, 0.3),
     lambda d: -1.0 / (np.abs(d) ** 2 + 0.3) ** 2, False),
    ("neg4_trace", neg4_trace, lambda d: np.abs(d) ** -4.0, False),
    ("log_potential", log_potential,
     lambda d: np.log(np.abs(d) ** 2), False),
]


def _kernel_points(mu, guarded):
    band = mu.guard_band if guarded else 0.2
    rng = np.random.default_rng(5)
    r = 2.5 + band
    z = rng.uniform(-r, r, 400) + 1j * rng.uniform(-r, r, 400)
    return z[mu.min_node_distance(z) > band][:60]


def _direct(mu, z, summand):
    return np.array([np.sum(mu.prob_weights * summand(p - mu.positions))
                     for p in np.atleast_1d(z)])


def _rel_err(got, ref):
    return np.max(np.abs(np.asarray(got) - ref) / np.abs(ref))


@pytest.mark.parametrize("name", list(KERNEL_MEASURES))
def test_kernels_match_direct_complex_sums(name, monkeypatch):
    mu = KERNEL_MEASURES[name]
    # blocks of 7 points, so 60 points run several blocks and a ragged one
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 7 * len(mu.positions) + 3)
    for label, kernel, summand, guarded in KERNELS:
        z = _kernel_points(mu, guarded)
        assert len(z) == 60, label
        ref = _direct(mu, z, summand)
        assert _rel_err(kernel(mu, z), ref) <= 1e-13, label
        assert _rel_err(kernel(mu, z.reshape(-1, 1)).ravel(), ref) <= 1e-13
        for p, r in zip(z[:3], ref[:3]):
            val = kernel(mu, complex(p))
            assert np.ndim(val) == 0, label
            assert _rel_err(val, r) <= 1e-13, label
    if mu.support == "nonneg":
        z = _kernel_points(mu, False)
        p0, p2 = neg2_moments(mu, z)
        assert _rel_err(p0, _direct(mu, z, lambda d: np.abs(d) ** -2.0)) <= 1e-13
        xi2 = np.abs(mu.positions) ** 2
        ref2 = np.array([np.sum(mu.prob_weights * xi2 / np.abs(p - mu.positions) ** 2)
                         for p in z])
        assert _rel_err(p2, ref2) <= 1e-13


@pytest.mark.parametrize("name", list(KERNEL_MEASURES))
def test_regularized_neg2_moments_match_direct_sums(name):
    mu = KERNEL_MEASURES[name]
    z = _kernel_points(mu, False)
    xi2 = np.abs(mu.positions) ** 2
    p0, p2 = measures.neg2_moments(mu, z, 0.3)
    ref0 = _direct(mu, z, lambda d: 1.0 / (np.abs(d) ** 2 + 0.3))
    assert _rel_err(p0, ref0) <= 1e-13
    ref2 = _direct(mu, z, lambda d: xi2 / (np.abs(d) ** 2 + 0.3))
    assert _rel_err(p2, ref2) <= 1e-13
    # at 0 a node at 0 adds 0 / eps to p2: the eps = 0 limit is not used
    want = np.sum(mu.prob_weights * xi2 / (xi2 + 0.3))
    assert measures.neg2_moments(mu, 0.0, 0.3)[1] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("name", [n for n in KERNEL_MEASURES
                                  if n.startswith("atomic")])
def test_kernels_exact_infinities_at_atoms(name, monkeypatch):
    mu = KERNEL_MEASURES[name]
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 2 * len(mu.positions))
    atoms = mu.positions
    for lam in (atoms, *atoms):
        assert np.all(reg_resolvent(mu, lam, 0.0) == np.inf)
        assert np.all(neg2_trace(mu, lam) == np.inf)
        assert np.all(neg4_trace(mu, lam) == np.inf)
        assert np.all(reg_resolvent_deps(mu, lam, 0.0) == -np.inf)
        assert np.all(log_potential(mu, lam) == -np.inf)
        assert np.all(np.isfinite(reg_resolvent(mu, lam, 0.3)))
    if mu.support == "nonneg":
        p0, p2 = neg2_moments(mu, atoms)
        assert np.all(p0 == np.inf)
        assert np.all(p2[atoms != 0] == np.inf)
        # at 0 the atom there drops out of p2: its limit is the mass off 0
        off = mu.prob_weights[atoms != 0].sum()
        assert np.all(p2[atoms == 0] == off)
        assert neg2_moments(mu, 0.0)[1] == off
        # a point mass at 0 written as two atoms there has no mass off 0
        for w in (1.406, 1.8235):
            point = SpectralMeasure.atomic([0.0, 0.0], [1.0, w], "nonneg")
            assert neg2_moments(point, 0.0)[1] == 0.0
            assert np.all(neg2_moments(point, np.zeros(2))[1] == 0.0)


_coord = st.floats(-3.0, 3.0, allow_nan=False)
_atoms = st.lists(st.tuples(_coord, st.floats(0.05, 1.0)), min_size=1,
                  max_size=5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_atoms, st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
def test_scalar_and_array_calls_agree(atoms, pts):
    mu = SpectralMeasure.atomic([a for a, _ in atoms], [w for _, w in atoms],
                                "real")
    z = np.array([complex(a, b) for a, b in pts])
    off = z[mu.min_node_distance(z) > 1e-3]
    # (kernel, points, magnitude of one summand at lam - xi = d)
    calls = [(lambda lam: reg_resolvent(mu, lam, 0.3), z,
              lambda lam, d: 1.0 / (np.abs(d) ** 2 + 0.3)),
             (lambda lam: neg2_trace(mu, lam), off,
              lambda lam, d: np.abs(d) ** -2.0),
             (lambda lam: log_potential(mu, lam), off,
              lambda lam, d: np.abs(np.log(np.abs(d) ** 2))),
             (lambda lam: cauchy_transform(mu, lam), off,
              lambda lam, d: 1.0 / np.abs(d)),
             (lambda lam: herglotz(mu, lam), off,
              lambda lam, d: 0.5 + np.abs(lam / d))]
    for kernel, lam, size in calls:
        if lam.size == 0:
            continue
        batch = kernel(lam)
        for i, p in enumerate(lam):
            single = kernel(complex(p))
            assert np.ndim(single) == 0
            # one row and many rows may sum the nodes in another order, so
            # they agree to rounding of the summed magnitudes
            scale = np.sum(mu.prob_weights * size(p, p - mu.positions))
            assert abs(single - batch[i]) <= 1e-14 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_atoms, _coord, st.floats(1e-3, 5.0), st.booleans(),
       st.sampled_from(["atomic", "density"]))
def test_poisson_identity_on_real_support(atoms, x, y, lower, kind):
    # for real nodes Im 1/(x + iy - xi) = -y / |x + iy - xi|^2
    if kind == "atomic":
        mu = SpectralMeasure.atomic([a for a, _ in atoms],
                                    [w for _, w in atoms], "real")
    else:
        mu = KERNEL_MEASURES["density-real"]
    y = -y if lower else y
    lam = complex(x, y)
    if mu.min_node_distance(lam) <= mu.guard_band:
        return
    g = cauchy_transform(mu, lam)
    assert -g.imag / y == pytest.approx(neg2_trace(mu, lam), rel=1e-13)


REAL_LINE_MEASURES = [n for n in KERNEL_MEASURES
                      if n.endswith(("-real", "-nonneg"))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(REAL_LINE_MEASURES),
       st.lists(st.tuples(_coord, _coord), min_size=1, max_size=30))
def test_real_line_lifetimes_are_conjugation_symmetric(name, pts):
    # |lam - xi|^2 sees Im lam only through its square, so a lifetime grid
    # may be evaluated on the upper half-plane and mirrored bit for bit
    mu = KERNEL_MEASURES[name]
    z = np.array([complex(a, b) for a, b in pts])
    lifetimes = [T_additive]
    if mu.support == "nonneg":
        lifetimes.append(T_mult_positive)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 7 points: the same layout gives the same partition
        mp.setattr(measures, "_BLOCK_ELEMENTS", 7 * len(mu.positions))
        for T in lifetimes:
            assert T(mu, np.conj(z)).tobytes() == T(mu, z).tobytes()
            for p in z[mu.min_node_distance(z) > 0]:
                if p != 0:  # a scalar 0 is refused by T_mult_positive
                    assert T(mu, np.conj(p)) == T(mu, p)
        off = z[mu.min_node_distance(z) > mu.guard_band]
        if off.size:
            assert np.array_equal(cauchy_transform(mu, np.conj(off)),
                                  np.conj(cauchy_transform(mu, off)))
            p = complex(off[0])
            assert cauchy_transform(mu, p.conjugate()) == np.conj(
                cauchy_transform(mu, p))


def test_on_real_line_marks_the_real_and_nonneg_supports():
    # the one predicate by which callers mirror a lifetime grid
    assert [n for n, mu in KERNEL_MEASURES.items()
            if mu.on_real_line] == REAL_LINE_MEASURES
    assert SpectralMeasure.atomic([1.0, -1.0], [1, 1], "circle").on_real_line is False
    assert SpectralMeasure.atomic([1j], [1.0], "complex").on_real_line is False


# --- blocked sums: one pass, errors and warnings intact ---------------------

@pytest.fixture
def count_blocks(monkeypatch):
    """Count the blocks the direct sums run: one _sq_dist call each."""
    calls = [0]
    sq_dist = measures._sq_dist

    def counted(zb, xb):
        calls[0] += 1
        return sq_dist(zb, xb)

    monkeypatch.setattr(measures, "_sq_dist", counted)
    return calls


@pytest.mark.parametrize("name", list(KERNEL_MEASURES))
def test_negative_eps_guard_reads_its_own_pass(name, monkeypatch, count_blocks):
    mu = KERNEL_MEASURES[name]
    # blocks of 7 points: 60 points run nine blocks, in a single pass
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 7 * len(mu.positions))
    z = _kernel_points(mu, False)
    blocks = []
    for eps in (0.0, NEG_EPS):
        count_blocks[0] = 0
        got = reg_resolvent(mu, z, eps)
        blocks.append(count_blocks[0])
        # the plain sum, with no guard around it
        with np.errstate(divide="ignore"):
            plain = measures._summed(
                mu, z, lambda zb, xb, r2: measures._inv(r2, eps))
        np.testing.assert_array_equal(got, plain)
    assert blocks == [9, 9]


def test_pooled_guard_and_infinities_raise_no_warnings(monkeypatch, count_blocks):
    # one point per block, so every array below runs many blocks
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 1)
    test_cauchy_guard_raises_without_warnings()
    for name in KERNEL_MEASURES:
        if name.startswith("atomic"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                test_kernels_exact_infinities_at_atoms(name, monkeypatch)
    assert count_blocks[0] > 0


def test_pooled_error_surfaces_once_and_pool_recovers(monkeypatch):
    # an error in one block stops the call and is raised once
    mu = KERNEL_MEASURES["density-real"]
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 7 * len(mu.positions))
    z = _kernel_points(mu, False)
    raised = []

    def node_fn(zb, xb, r2):
        if zb[0, 0] == z[3 * 7]:  # the first point of block 3 (from 0)
            raised.append(len(zb))
            raise ZeroDivisionError("block 3")
        return r2

    with pytest.raises(ZeroDivisionError, match="block 3"):
        measures._summed(mu, z, node_fn)
    assert raised == [7]


def test_cli_import_leaves_the_pool_unloaded():
    # no thread pool is left to load: concurrent.futures imports logging,
    # which every CLI run would pay for
    src = str(Path(measures.__file__).resolve().parents[1])
    code = ("import sys, brownscope.cli; print(sorted(m for m in "
            "('concurrent.futures', 'logging') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "[]"


def test_kernel_memory_stays_cache_sized():
    # 65,536 points x 2,049 nodes: 1 GiB as one float buffer.  The real
    # density is summed through its panel tree, the circle density directly
    # in blocks
    g = np.linspace(-2.0, 2.0, 256)
    z = g[:, None] + 1j * g[None, :]
    for mu in (SpectralMeasure.from_density(lambda v: 1.0 - v * v, -1.0, 1.0,
                                            n=2049),
               SpectralMeasure.uniform_circle(2048)):
        tracemalloc.start()
        try:
            neg2_trace(mu, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, mu.support


# --- the panel tree: far nodes summed through Chebyshev proxies -------------

def _tree_measures():
    # a 2,049-row trapezoid semicircle, as loaded from a grid document, and
    # a 2,048-node Gauss-Legendre density on the half-line
    x = np.linspace(-2.0, 2.0, 2049)
    rows = [[a, float(np.sqrt(max(4.0 - a * a, 0.0)))] for a in x]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the rows are not normalized
        trap = SpectralMeasure.from_json_dict(
            {"kind": "density", "support": "real", "grid": rows})
    gl = SpectralMeasure.from_density(lambda v: v * np.exp(-v), 0.0, 6.0,
                                      "nonneg", n=2048)
    return {"trapezoid-2049": trap, "gauss-legendre-2048": gl}


TREE_MEASURES = _tree_measures()


def _one_leaf(mu):
    """A copy of mu whose panel tree is one leaf: every sum direct."""
    copy = SpectralMeasure(mu.support, mu.positions, mu.weights, mu.quad_weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_LEAF_NODES", 1 << 40)
        assert measures._tree(copy).depth == 0
    return copy


def test_tree_measures_engage_the_tree():
    for mu in TREE_MEASURES.values():
        tree = measures._tree(mu)
        # halving stops at the first level of leaves of at most 64 nodes
        assert tree.depth > 0
        assert 32 <= tree.leaf_sizes.min() <= tree.leaf_sizes.max() <= 64
    # off the real line, or at most 64 nodes: one leaf, every sum direct
    for name in ("density-circle", "density-complex", "density-real"):
        assert measures._tree(KERNEL_MEASURES[name]).depth == 0


# a point: Re relative to the hull [a, b] (0 and 1 are its ends), |Im| in
# guard bands (0 is on the axis, 1 at the band, 1 + 1e-9 just off it), and
# the half-plane
_tree_points = st.lists(
    st.tuples(st.floats(-0.5, 1.5),
              st.sampled_from([0.0, 1e-6, 0.3, 1.0, 1.0 + 1e-9, 2.5, 40.0, 1e3]),
              st.booleans()),
    min_size=8, max_size=40)


def _place(mu, pts):
    a, b = mu.positions.real.min(), mu.positions.real.max()
    return np.array([complex(a + u * (b - a), -v * mu.guard_band if low
                             else v * mu.guard_band) for u, v, low in pts])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(list(TREE_MEASURES)), _tree_points)
def test_tree_sums_match_direct_sums(name, pts):
    # the far field is a Chebyshev interpolant of each kernel on the panel
    # hull; within 1e-13 of the summed magnitudes everywhere, up to the
    # guard band and inside the hull
    mu = TREE_MEASURES[name]
    z = _place(mu, pts)
    dist = mu.min_node_distance(z)
    kernels = KERNELS + [
        ("neg2_moments p0", lambda mu, z: measures.neg2_moments(mu, z)[0],
         lambda d: np.abs(d) ** -2.0, False),
        ("neg2_moments p2", lambda mu, z: measures.neg2_moments(mu, z)[1],
         None, False)]
    for label, kernel, summand, guarded in kernels:
        if guarded:
            keep = dist > mu.guard_band
        elif "eps < 0" in label:
            keep = dist * dist > -NEG_EPS
        else:
            keep = dist > 0
        lam = z[keep]
        if len(lam) * len(mu.positions) < measures._LIST_MIN_PAIRS:
            continue
        d = lam[:, None] - mu.positions[None, :]
        if summand is None:  # |xi|^2 / |lam - xi|^2
            terms = np.abs(mu.positions) ** 2 / np.abs(d) ** 2
        else:
            terms = summand(d)
        ref = terms @ mu.prob_weights
        size = np.abs(terms) @ mu.prob_weights
        got = kernel(mu, lam)
        assert np.all(np.abs(got - ref) <= 1e-13 * size), label


@pytest.mark.parametrize("name", list(TREE_MEASURES))
def test_tree_sums_keep_their_bytes(name):
    mu = TREE_MEASURES[name]
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 7, 600) + 1j * rng.uniform(-3, 3, 600)
    z = z[mu.min_node_distance(z) > mu.guard_band]
    lifetimes = [T_additive] + ([T_mult_positive] if mu.support == "nonneg" else [])
    # conjugation: the lists see Im lam only through |Im lam|
    for T in lifetimes:
        assert T(mu, np.conj(z)).tobytes() == T(mu, z).tobytes()
    assert np.array_equal(cauchy_transform(mu, np.conj(z)),
                          np.conj(cauchy_transform(mu, z)))
    # a half row of 128 points is one list block in the mirrored grid and
    # in the full one, so the evaluated half is the full grid's, bit for bit
    f = lambda w: T_additive(mu, w)  # noqa: E731
    bounds = (-3.0, 7.0, -2.0, 2.0)
    half = evaluate_grid(f, bounds, 5, 2 * measures._LIST_POINTS,
                         conj_symmetric=True)
    full = evaluate_grid(f, bounds, 5, 2 * measures._LIST_POINTS)
    assert half.values.tobytes() == full.values.tobytes()


@pytest.mark.parametrize("name", list(TREE_MEASURES))
def test_tree_guard_decisions_match_a_one_leaf_tree(name):
    # the nearest node is found, not bounded, so every guard band and
    # NegativeEpsilon decision is the direct sum's
    mu = TREE_MEASURES[name]
    flat = _one_leaf(mu)
    x = mu.positions.real
    band = mu.guard_band
    z = np.concatenate([x[::97] + 1j * band, x[::89] - 1j * band * (1 + 1e-15),
                        x[::101] + 1j * band * (1 - 1e-15), x[5::83] + 0.1j,
                        [x.min() - band, x.max() + band, x.max() + 2 * band]])
    node_fn = lambda zb, xb, r2: measures._inv(r2, 0.0)  # noqa: E731
    for pts in (z, z[:40], z[::-1]):
        _, d_tree = measures._sum_and_distance(mu, pts, node_fn)
        _, d_flat = measures._sum_and_distance(flat, pts, node_fn)
        assert d_tree == d_flat
    for p in z:
        batch = np.concatenate([[p], z[:15] + 5j])
        outcomes = []
        for m in (mu, flat):
            got = []
            for kernel in (lambda lam: cauchy_transform(m, lam),
                           lambda lam: reg_resolvent(m, lam, -(0.1 * band) ** 2),
                           lambda lam: reg_resolvent(m, lam, -band * band)):
                try:
                    kernel(batch)
                    got.append("ok")
                except (EvaluationOnSupport, NegativeEpsilon) as exc:
                    got.append(type(exc).__name__)
            outcomes.append(got)
        assert outcomes[0] == outcomes[1], p


def test_tree_sums_are_exactly_infinite_at_atoms():
    rng = np.random.default_rng(3)
    atoms = np.sort(rng.uniform(-2.0, 2.0, 500))
    mu = SpectralMeasure.atomic(atoms, rng.uniform(0.1, 1.0, 500), "real")
    assert measures._tree(mu).depth > 0
    for lam in (atoms, atoms[::7] + 0j, atoms[123]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(reg_resolvent(mu, lam, 0.0) == np.inf)
            assert np.all(neg2_trace(mu, lam) == np.inf)
            assert np.all(neg4_trace(mu, lam) == np.inf)
            assert np.all(reg_resolvent_deps(mu, lam, 0.0) == -np.inf)
            assert np.all(log_potential(mu, lam) == -np.inf)
            assert np.all(np.isfinite(reg_resolvent(mu, lam, 0.3)))
    # on the half-line, with an atom at 0: p2 there is the mass off 0
    pos = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 3.0, 499))])
    mu = SpectralMeasure.atomic(pos, np.full(500, 0.002), "nonneg")
    p0, p2 = neg2_moments(mu, pos)
    assert np.all(p0 == np.inf)
    assert p2[0] == np.sum(mu.prob_weights[1:]) and np.all(p2[1:] == np.inf)
