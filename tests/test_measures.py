"""Measure container and integral transforms."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from brownscope import (EvaluationOnSupport, NegativeEpsilon, SpectralMeasure,
                        WrongSupportKind, cauchy_transform, herglotz,
                        log_potential, neg2_trace, neg4_trace, p0_p2_positive,
                        reg_resolvent, reg_resolvent_deps, symmetrize)
from brownscope import measures


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
        p0, p2 = p0_p2_positive(mu, z)
        assert _rel_err(p0, _direct(mu, z, lambda d: np.abs(d) ** -2.0)) <= 1e-13
        xi2 = np.abs(mu.positions) ** 2
        ref2 = np.array([np.sum(mu.prob_weights * xi2 / np.abs(p - mu.positions) ** 2)
                         for p in z])
        assert _rel_err(p2, ref2) <= 1e-13


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
        with np.errstate(invalid="ignore"):  # p2 is 0 * inf at an atom at 0
            p0, p2 = p0_p2_positive(mu, atoms)
        assert np.all(p0 == np.inf)
        assert np.all(p2[atoms != 0] == np.inf)


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


# --- pooled blocks: same bytes as inline, errors and warnings intact --------

class _CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def use_pool(monkeypatch):
    """Install a fresh pool of a given worker count and force every
    multi-block call onto it; yields the installer.  Threads switch often,
    so state shared between workers would show."""
    pools = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def install(workers):
        pool = _CountingPool(workers)
        pools.append(pool)
        monkeypatch.setattr(measures, "_pool", pool)
        monkeypatch.setattr(measures, "_POOL_PAIRS", 0)
        return pool

    try:
        yield install
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown(wait=True)


# every public function that sums over the nodes, as (name, fn, guarded)
POOLED = [(label, kernel, guarded) for label, kernel, _, guarded in KERNELS] + [
    ("neg2_trace", neg2_trace, False),
    ("neg2_moments", lambda mu, z: np.stack(measures.neg2_moments(mu, z)), False),
    ("herglotz", herglotz, True),
    ("min_node_distance", lambda mu, z: mu.min_node_distance(z), False),
]


@pytest.mark.parametrize("name", list(KERNEL_MEASURES))
def test_pooled_kernels_match_inline_bit_for_bit(name, monkeypatch, use_pool):
    mu = KERNEL_MEASURES[name]
    # blocks of 7 points: 60 points run eight full blocks and a ragged one
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 7 * len(mu.positions))
    for label, kernel, guarded in POOLED:
        monkeypatch.setattr(measures, "_POOL_PAIRS", 1 << 62)
        z = _kernel_points(mu, guarded)
        inline = kernel(mu, z)
        for workers in (4, 1):
            pool = use_pool(workers)
            np.testing.assert_array_equal(kernel(mu, z), inline, err_msg=label)
            assert pool.tasks >= 9, label


def test_pooled_guard_and_infinities_raise_no_warnings(monkeypatch, use_pool):
    # one point per block, so every array below runs on the pool
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 1)
    pool = use_pool(2)
    test_cauchy_guard_raises_without_warnings()
    for name in KERNEL_MEASURES:
        if name.startswith("atomic"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                test_kernels_exact_infinities_at_atoms(name, monkeypatch)
    assert pool.tasks > 0


def test_pooled_error_surfaces_once_and_pool_recovers(monkeypatch, use_pool):
    mu = KERNEL_MEASURES["density-real"]
    monkeypatch.setattr(measures, "_BLOCK_ELEMENTS", 7 * len(mu.positions))
    pool = use_pool(2)
    z = _kernel_points(mu, False)
    raised = []

    def node_fn(zb, xb, r2):
        if zb[0, 0] == z[3 * 7]:  # the first point of block 3 (from 0)
            raised.append(len(zb))
            raise ZeroDivisionError("block 3")
        return r2

    with pytest.raises(ZeroDivisionError, match="block 3"):
        measures._blocked_sum(mu, z, node_fn)
    assert raised == [7]
    monkeypatch.setattr(measures, "_POOL_PAIRS", 1 << 62)
    inline = neg2_trace(mu, z)
    monkeypatch.setattr(measures, "_POOL_PAIRS", 0)
    tasks = pool.tasks
    np.testing.assert_array_equal(neg2_trace(mu, z), inline)
    assert pool.tasks > tasks


def test_kernel_memory_stays_cache_sized(use_pool, monkeypatch):
    # 65,536 points x 2,049 nodes: 1 GiB as one float buffer; two workers,
    # so the bound does not depend on the machine's CPU count
    pairs = measures._POOL_PAIRS
    use_pool(2)
    monkeypatch.setattr(measures, "_POOL_PAIRS", pairs)
    mu = SpectralMeasure.from_density(lambda v: 1.0 - v * v, -1.0, 1.0, n=2049)
    g = np.linspace(-2.0, 2.0, 256)
    z = g[:, None] + 1j * g[None, :]
    tracemalloc.start()
    try:
        neg2_trace(mu, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_pool():
    # the child inherits the started pool but none of its threads
    script = """
import os, signal, numpy as np
from brownscope import measures
measures._POOL_PAIRS, measures._BLOCK_ELEMENTS = 0, 1
mu = measures.SpectralMeasure.atomic([0.0, 1.0], [0.5, 0.5])
z = np.array([2.0, 3.0j, 4.0])
ref = measures.neg2_trace(mu, z)
pid = os.fork()
if pid == 0:
    signal.alarm(30)
    os._exit(0 if np.array_equal(measures.neg2_trace(mu, z), ref) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    src = str(Path(measures.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "0"


def test_cli_import_leaves_the_pool_unloaded():
    # concurrent.futures imports logging, which every CLI run would pay for
    src = str(Path(measures.__file__).resolve().parents[1])
    code = ("import sys, brownscope.cli; print(sorted(m for m in "
            "('concurrent.futures', 'logging') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "[]"
