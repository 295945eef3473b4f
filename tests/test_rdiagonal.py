"""Annulus radii, subordination region, and density recovery."""

import numpy as np
import pytest

from brownscope import (AnnulusSpec, InversionFailed, OutsideOmega,
                        SpectralMeasure, WrongSupportKind,
                        biane_Ht, cauchy_transform, circ_inner_radius,
                        hl_radii, perturbed_symmetrized_law, rdiagonal,
                        stieltjes_invert, symmetrize, vt)


def two_atoms():
    return SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")


def rademacher():
    return SpectralMeasure.atomic([-1.0, 1.0], [0.5, 0.5], support="real")


def cubic_density():
    # density 3 xi^2 on [0, 1]
    return SpectralMeasure.from_density(lambda x: 3 * x ** 2, 0.0, 1.0,
                                        n=64, support="nonneg")


# --- annulus radii ------------------------------------------------------------

def test_hl_radii_point_mass():
    mu = SpectralMeasure.atomic([1.0], [1.0], support="nonneg")
    spec = hl_radii(mu)
    assert spec.inner == pytest.approx(1.0)
    assert spec.outer == pytest.approx(1.0)


def test_hl_radii_two_atoms():
    spec = hl_radii(two_atoms())
    assert spec.inner == pytest.approx(np.sqrt(1.6), abs=1e-14)
    assert spec.outer == pytest.approx(np.sqrt(2.5), abs=1e-14)


def test_hl_radii_density():
    spec = hl_radii(cubic_density())
    assert spec.inner == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    assert spec.outer == pytest.approx(np.sqrt(3 / 5), rel=1e-12)


def test_hl_radii_ordering_and_degenerate():
    assert hl_radii(two_atoms()).inner < hl_radii(two_atoms()).outer
    # atom at 0 kills the inverse second moment
    mu0 = SpectralMeasure.atomic([0.0, 1.0], [0.5, 0.5], support="nonneg")
    assert hl_radii(mu0).inner == 0.0
    with pytest.raises(WrongSupportKind):
        hl_radii(SpectralMeasure.atomic([1.0], [1.0], support="circle"))


def test_annulus_spec_validation():
    with pytest.raises(ValueError):
        AnnulusSpec(2.0, 1.0)
    assert AnnulusSpec(1.0, 2.0).contains_modulus(1.5)
    assert not AnnulusSpec(1.0, 2.0).contains_modulus(2.5)
    assert AnnulusSpec(1.0, 2.0).contains_modulus(2.05, slack=0.05)


def test_circ_inner_values():
    mu = two_atoms()
    assert circ_inner_radius(mu, 0.0) == pytest.approx(np.sqrt(1.6))
    assert circ_inner_radius(mu, 0.5) == pytest.approx(np.sqrt(1.1))
    assert circ_inner_radius(mu, 1.6) == pytest.approx(0.0, abs=1e-7)
    assert circ_inner_radius(cubic_density(), 0.1) == pytest.approx(
        np.sqrt(1 / 3 - 0.1), rel=1e-12)


def test_circ_inner_cap_and_monotonicity():
    # past the cap 1/m the hole has closed: the radius is 0, and with an atom
    # at 0 (m diverges) it is 0 from t = 0 on
    mu = two_atoms()
    assert circ_inner_radius(mu, 1.7) == 0.0
    assert circ_inner_radius(mu, 1e300) == 0.0
    ts = np.linspace(0, 1.5, 7)
    vals = [circ_inner_radius(mu, t) for t in ts]
    assert np.all(np.diff(vals) < 0)
    mu0 = SpectralMeasure.atomic([0.0, 1.0], [0.5, 0.5], support="nonneg")
    assert circ_inner_radius(mu0, 0.0) == 0.0
    assert circ_inner_radius(mu0, 0.1) == 0.0


# --- constraint graph -----------------------------------------------------------

def test_vt_closed_form():
    got = vt(rademacher(), 3.0, 0.0)
    assert got == pytest.approx(np.sqrt(2.0), abs=1e-9)
    # scan oracle on a fine grid
    y = np.linspace(0.0, 2.0, 2000001)
    ok = 1.0 / (1.0 + y ** 2) > 1.0 / 3.0
    assert got == pytest.approx(y[ok][-1], abs=2e-6)


def test_vt_zero_when_unconstrained():
    assert vt(rademacher(), 3.0, 10.0) == 0.0
    assert vt(rademacher(), 1e-4, 0.5) == 0.0


def test_vt_positive_at_atoms_and_boundary_equality():
    mu = rademacher()
    v = vt(mu, 1e-4, 1.0)
    assert 0.0 < v < 0.01
    for t, x in ((3.0, 0.0), (1e-4, 1.0), (0.8, 0.4)):
        v = vt(mu, t, x)
        if v > 0:
            g = np.sum(mu.prob_weights /
                       ((x - mu.positions.real) ** 2 + v ** 2))
            assert g == pytest.approx(1.0 / t, rel=1e-6)


# --- subordination map -----------------------------------------------------------

def test_biane_values():
    mu0 = SpectralMeasure.atomic([0.0], [1.0], support="real")
    assert biane_Ht(mu0, 0.3, 1j) == pytest.approx(0.7j, abs=1e-14)
    assert biane_Ht(rademacher(), 1.0, 2j) == pytest.approx(1.6j, abs=1e-14)


def test_biane_small_t_identity():
    z = 0.7 + 1.3j
    assert biane_Ht(rademacher(), 1e-8, z) == pytest.approx(z, abs=1e-7)


def test_biane_refuses_below_graph():
    with pytest.raises(OutsideOmega):
        biane_Ht(rademacher(), 1.0, 0.5 + 0.3j)
    with pytest.raises(OutsideOmega):
        biane_Ht(SpectralMeasure.atomic([0.0], [1.0], "real"), 0.3, 0.1j)


# --- density recovery -------------------------------------------------------------

def test_stieltjes_lorentzian_spikes():
    mu = rademacher()
    xs = np.linspace(-3, 3, 6001)
    rec = stieltjes_invert(lambda z: cauchy_transform(mu, z), xs, 1e-2)
    pw = rec.prob_weights
    x = rec.positions.real
    left = pw[(x > -1.5) & (x < -0.5)].sum()
    right = pw[(x > 0.5) & (x < 1.5)].sum()
    assert left == pytest.approx(0.5, abs=1e-2)
    assert right == pytest.approx(0.5, abs=1e-2)


def test_stieltjes_uniform_density():
    # exact transform of the uniform law on [-1, 1]
    def g(z):
        return 0.5 * (np.log(z + 1) - np.log(z - 1))

    xs = np.linspace(-2, 2, 2001)
    rec = stieltjes_invert(g, xs, 1e-3)
    interior = np.abs(rec.positions.real) < 0.8
    assert np.max(np.abs(rec.weights[interior] - 0.5)) < 1e-2


def test_stieltjes_real_G_gives_zero_density():
    xs = np.linspace(-1, 1, 101)
    g = np.where(xs < 0, 1.0 + 0j, -1j)  # real on the left half
    rec = stieltjes_invert(g, xs, 1e-3)
    assert np.all(rec.weights[rec.positions.real < 0] == 0.0)


def test_stieltjes_round_trip_cdf():
    mu = rademacher()
    xs = np.linspace(-4, 4, 8001)
    rec = stieltjes_invert(lambda z: cauchy_transform(mu, z), xs, 1e-3)
    pw = rec.prob_weights
    x = rec.positions.real
    for probe, want in ((-2.0, 0.0), (0.0, 0.5), (2.0, 1.0)):
        assert pw[x <= probe].sum() == pytest.approx(want, abs=2e-2)


# --- perturbed law --------------------------------------------------------------

def test_perturbed_law_small_t_recovers_symmetrization():
    mu_h = two_atoms()
    xs = np.linspace(-3, 3, 3001)
    rec = perturbed_symmetrized_law(mu_h, 1e-4, xs, y=1e-3)
    pw = rec.prob_weights
    x = rec.positions.real
    sym = symmetrize(mu_h)
    for probe in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5):
        want = sym.prob_weights[sym.positions.real <= probe].sum()
        assert pw[x <= probe].sum() == pytest.approx(want, abs=2e-2)


def test_perturbed_law_symmetric_and_normalized():
    mu_h = two_atoms()
    xs = np.linspace(-4, 4, 2001)
    rec = perturbed_symmetrized_law(mu_h, 0.5, xs, y=1e-3)
    pw = rec.prob_weights
    assert pw.sum() == pytest.approx(1.0, abs=1e-12)
    dens = rec.weights
    assert np.max(np.abs(dens - dens[::-1])) < 1e-3


def test_perturbed_law_refuses_a_failed_inversion(monkeypatch):
    # a Newton solve that cannot go on, or does not converge, raises
    # instead of handing on its last iterate
    mu_h = two_atoms()
    xs = np.linspace(-3, 3, 5)
    monkeypatch.setattr(rdiagonal, "phi_derivative", lambda mu, t, z: 0.0)
    with pytest.raises(InversionFailed, match="derivative"):
        perturbed_symmetrized_law(mu_h, 0.5, xs)
    # steps a million times too short never reach the target
    monkeypatch.setattr(rdiagonal, "phi_derivative", lambda mu, t, z: 1e6)
    with pytest.raises(InversionFailed, match="converge"):
        perturbed_symmetrized_law(mu_h, 0.5, xs)


def test_perturbed_law_inner_radius_chain():
    # inverse second moment of the perturbed symmetrized law must match
    # the closed-form inner radius: probe it through G(i eps) / (-i eps)
    mu_h = two_atoms()
    t = 0.5
    xs = np.linspace(-4, 4, 2001)
    tilde = perturbed_symmetrized_law(mu_h, t, xs, y=1e-4)
    eps = 0.05
    g = cauchy_transform(tilde, 1j * eps)
    m_est = (g / (-1j * eps)).real
    assert 1.0 / np.sqrt(m_est) == pytest.approx(
        circ_inner_radius(mu_h, t), rel=2e-2)
