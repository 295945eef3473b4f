"""Additive model: characteristic flow, lifetime, domain, extension, map."""

import numpy as np
import pytest

from brownscope import (ContinuationFailed, EvaluationOnSupport,
                        InversionFailed, LifetimeExceeded, Membership,
                        NegativeEpsilon, SpectralMeasure,
                        T_additive, Verdict, analytic_extension_trace,
                        evaluate_grid, extension_margin, extract_levelset,
                        flow_additive, laplacian_identity_check, map_boundary,
                        neg2_trace, phi_derivative, phi_formula,
                        point_in_region, preimage, reg_resolvent,
                        spectral_test)
from brownscope.additive import _band_membership


def bernoulli():
    return SpectralMeasure.atomic([-1.0, 1.0], [0.5, 0.5], support="real")


def delta0():
    return SpectralMeasure.atomic([0.0], [1.0], support="real")


def _domain(mu, t, bounds, nx, ny):
    """The T = t level set on an nx-by-ny grid, as the CLI extracts it."""
    grid = evaluate_grid(lambda z: T_additive(mu, z), bounds, nx, ny,
                         conj_symmetric=mu.on_real_line)
    return extract_levelset(grid, t)


# --- characteristic flow ----------------------------------------------------

def test_flow_zero_momentum_freezes():
    st = flow_additive(1.0, 1e-300, 5.0)
    assert st.epsilon == pytest.approx(1.0)
    assert st.p_epsilon == pytest.approx(0.0, abs=1e-12)


def test_flow_closed_form_values():
    st = flow_additive(1.0, 1.0, 0.5)
    assert st.epsilon == pytest.approx(0.25, abs=1e-15)
    assert st.p_epsilon == pytest.approx(2.0, abs=1e-14)

    st2 = flow_additive(4.0, 0.5, 1.0)
    assert st2.epsilon == pytest.approx(1.0, abs=1e-15)
    assert st2.p_epsilon == pytest.approx(1.0, abs=1e-15)
    assert np.sqrt(st2.epsilon) * st2.p_epsilon == pytest.approx(1.0, abs=1e-13)


def test_flow_lifetime_exceeded():
    with pytest.raises(LifetimeExceeded):
        flow_additive(1.0, 2.0, 0.5)
    with pytest.raises(LifetimeExceeded):
        flow_additive(1.0, 2.0, 0.7)


def test_flow_conservation_random_triples():
    rng = np.random.default_rng(314)
    eps0 = rng.uniform(0.0, 5.0, 10000)
    p0 = rng.uniform(0.01, 10.0, 10000)
    t = rng.uniform(0.0, 1.0, 10000) * (0.999 / p0)
    err = np.empty(10000)
    for i in range(10000):
        st = flow_additive(eps0[i], p0[i], t[i])
        err[i] = abs(np.sqrt(st.epsilon) * st.p_epsilon
                     - np.sqrt(eps0[i]) * p0[i])
    assert err.max() < 1e-12


def test_flow_epsilon_stays_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p0 = rng.uniform(0.1, 5.0)
        st = flow_additive(rng.uniform(0, 2), p0, rng.uniform(0, 0.99) / p0)
        assert st.epsilon >= 0


# --- lifetime and membership --------------------------------------------------

def test_lifetime_bernoulli_values():
    mu = bernoulli()
    assert T_additive(mu, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert T_additive(mu, 2.0) == pytest.approx(9.0 / 5, abs=1e-14)
    assert T_additive(mu, 1j) == pytest.approx(2.0, abs=1e-14)


def test_lifetime_zero_at_atoms():
    assert T_additive(bernoulli(), 1.0) == 0.0


def test_lifetime_x_zero_is_square_modulus():
    mu = delta0()
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert T_additive(mu, lam) == pytest.approx(abs(lam) ** 2, rel=1e-14)


def test_lifetime_monotone_in_eps0():
    # t_*(lam, eps0) = 1/reg_resolvent is nondecreasing in eps0 and its
    # eps0 -> 0 limit is T
    mu = bernoulli()
    lam = 0.4 + 0.3j
    eps = np.linspace(0, 2, 30)
    tstar = np.array([1.0 / reg_resolvent(mu, lam, e) for e in eps])
    assert np.all(np.diff(tstar) >= -1e-15)
    assert tstar[0] == pytest.approx(T_additive(mu, lam), abs=1e-14)


def test_membership_bands():
    mu = bernoulli()
    assert _band_membership(T_additive(mu, 0.0), 2.0) is Membership.INSIDE
    assert _band_membership(T_additive(mu, 0.0), 1.0) is Membership.BOUNDARY
    assert _band_membership(T_additive(mu, 2.0), 1.0) is Membership.OUTSIDE


def test_continuity_proxy_at_non_atom_points():
    # grid refinement: neighbor values approach T(lam) at continuity points
    mu = bernoulli()
    pts = [0.3 + 0.4j, -1.5 + 0.2j, 2.0 - 1.0j]
    for lam in pts:
        base = T_additive(mu, lam)
        prev = np.inf
        for h in (1e-2, 1e-3, 1e-4):
            nb = [lam + h, lam - h, lam + 1j * h, lam - 1j * h]
            dev = max(abs(T_additive(mu, z) - base) for z in nb)
            assert dev < prev + 1e-15
            prev = dev
        assert dev < 1e-3


# --- spectral test -----------------------------------------------------------

def test_spectral_test_verdicts():
    mu = bernoulli()
    assert spectral_test(mu, T_additive, 3.0, 1.0) is Verdict.OUTSIDE_SPECTRUM
    assert T_additive(mu, 3.0) == pytest.approx(6.4)
    assert spectral_test(mu, T_additive, 1.0, 0.5) is Verdict.UNDETERMINED
    assert spectral_test(mu, T_additive, 0.0, 2.0) is Verdict.UNDETERMINED


# --- analytic extension -------------------------------------------------------

def test_extension_x_zero_closed_form():
    # p_tilde = 1/|lam|^2 = 1/4, value p/(1 - t p) = 1/3
    val = analytic_extension_trace(delta0(), 2.0, 1.0, 0.0)
    assert val == pytest.approx(1.0 / 3, abs=1e-12)


def test_extension_bernoulli_closed_form():
    # p_tilde = (1/2)(1/4 + 1/16) = 5/32, value (5/32)/(1 - 5/32) = 5/27
    val = analytic_extension_trace(bernoulli(), 3.0, 1.0, 0.0)
    assert val == pytest.approx(5.0 / 27, abs=1e-12)


def test_extension_agrees_with_flow_for_positive_eps():
    # for eps > 0 the extension must reproduce the direct characteristic:
    # scan eps0 on a fine grid (explicit two-atom integrand, no package
    # code), locate the preimage of eps, and compare the flowed momentum
    lam, t = 2.5, 1.0
    d2 = np.array([abs(lam - 1.0) ** 2, abs(lam + 1.0) ** 2])
    e0 = np.linspace(0.0, 2.0, 2000001)
    p0 = 0.5 * (1.0 / (d2[0] + e0) + 1.0 / (d2[1] + e0))
    image = e0 * (1 - t * p0) ** 2
    mu = bernoulli()
    for eps in (1e-3, 0.05, 0.4):
        val = analytic_extension_trace(mu, lam, t, eps)
        i = np.argmin(np.abs(image - eps))
        want = p0[i] / (1 - t * p0[i])
        assert val == pytest.approx(want, rel=1e-5)


def test_extension_smooth_across_zero():
    # overdetermined quartic fit across eps = 0; more sample points than
    # coefficients so the residual actually measures smoothness
    mu = bernoulli()
    eps = np.array([-1e-3, -7e-4, -4e-4, -1e-4, -3e-5, 0.0,
                    3e-5, 1e-4, 4e-4, 7e-4, 1e-3])
    vals = analytic_extension_trace(mu, 2.5, 1.0, eps)
    coef = np.polynomial.polynomial.polyfit(eps, vals, 4)
    resid = vals - np.polynomial.polynomial.polyval(eps, coef)
    assert np.max(np.abs(resid)) < 1e-8
    # monotone decreasing through 0 (derivative of a resolvent)
    assert np.all(np.diff(vals) < 0)


def test_extension_margin_positive_and_usable():
    mu = bernoulli()
    delta = extension_margin(mu, 2.5, 1.0)
    assert delta > 0
    v = analytic_extension_trace(mu, 2.5, 1.0, -0.5 * delta)
    assert np.isfinite(v) and v > 0


def test_extension_refused_past_the_margin():
    # the margin at 2.5 is 0.30989; eps0 -> eps(t) turns back before
    # -1.5 delta, and no eps0 > -d^2 = -2.25 reaches -10
    mu = bernoulli()
    delta = extension_margin(mu, 2.5, 1.0)
    assert delta == pytest.approx(0.30989, abs=1e-5)
    with pytest.raises(InversionFailed, match="invertibility"):
        analytic_extension_trace(mu, 2.5, 1.0, -1.5 * delta)
    with pytest.raises(InversionFailed, match="past the") as info:
        analytic_extension_trace(mu, 2.5, 1.0, -10.0)
    assert isinstance(info.value.__cause__, NegativeEpsilon)


def test_extension_refused_inside_the_domain():
    # T(0.5) = 0.45 < t: no margin, and no extension at eps = 0 or above
    mu = bernoulli()
    assert T_additive(mu, 0.5) == pytest.approx(0.45)
    assert extension_margin(mu, 0.5, 1.0) == 0.0
    with pytest.raises(InversionFailed, match="into the domain"):
        analytic_extension_trace(mu, 0.5, 1.0, 1e-3)
    with pytest.raises(InversionFailed, match="not outside"):
        analytic_extension_trace(mu, 0.5, 1.0, 0.0)


# --- push-forward map ----------------------------------------------------------

def test_phi_values():
    assert phi_formula(delta0(), 1.0, 2.0) == pytest.approx(2.5)
    # gamma = 0 -> identity
    assert phi_formula(bernoulli(), 0.0, 3.0) == pytest.approx(3.0)
    # G_x(2i) = -2i/5
    got = phi_formula(bernoulli(), 1.0, 2j)
    assert got == pytest.approx(1.6j, abs=1e-14)


def test_phi_derivative_matches_differences():
    mu, gamma, lam, h = bernoulli(), 0.7 - 0.2j, 1.3 + 0.8j, 1e-6
    fd = (phi_formula(mu, gamma, lam + h)
          - phi_formula(mu, gamma, lam - h)) / (2 * h)
    assert phi_derivative(mu, gamma, lam) == pytest.approx(fd, rel=1e-8)
    # 1 - gamma / lam^2 for the point mass at 0
    assert phi_derivative(delta0(), 0.5, 2j) == pytest.approx(1.125)
    with pytest.raises(EvaluationOnSupport):
        phi_derivative(mu, gamma, 1.0)


def _phi_preimage(mu, gamma, t, z):
    return preimage(mu, lambda lam: phi_formula(mu, gamma, lam),
                    lambda lam: phi_derivative(mu, gamma, lam),
                    T_additive, t, z)


def test_preimage_inverts_phi_on_the_exterior():
    mu, t, gamma = bernoulli(), 1.0, 0.9
    for lam in (2.2, -2.5 + 0.3j, 0.4 + 1.5j, 3j):
        assert T_additive(mu, lam) > t
        z = complex(phi_formula(mu, gamma, lam))
        assert _phi_preimage(mu, gamma, t, z) == pytest.approx(lam, abs=1e-10)
    # 2.3 is the image of a point inside the domain (phi reaches 2.51 on
    # the real axis), so the path enters the domain
    assert _phi_preimage(mu, gamma, t, 2.3) is None


def test_preimage_of_a_fixed_point_is_the_point():
    # at gamma = 0 every z is fixed and faces the lifetime check alone
    mu = bernoulli()
    assert _phi_preimage(mu, 0.0, 1.0, 3.0) == 3.0
    assert _phi_preimage(mu, 0.0, 1.0, 0.5) is None
    assert _phi_preimage(mu, 0.0, 1.0, 1.0) is None  # on an atom


def test_preimage_of_zero_follows_the_positive_axis():
    mu = SpectralMeasure.atomic([-1.0, -2.0], [0.5, 0.5], support="real")
    lam = _phi_preimage(mu, 0.2, 0.1, 0.0)
    assert abs(complex(phi_formula(mu, 0.2, lam))) < 1e-12
    assert T_additive(mu, lam) > 0.1


def test_preimage_stalls_loudly():
    mu = bernoulli()
    with pytest.raises(ContinuationFailed):
        preimage(mu, lambda lam: 2.0 * lam, lambda lam: 0.0, T_additive,
                 1.0, 3.0)


def test_e_region_ellipse():
    mu = delta0()
    b = _domain(mu, 1.0, (-2, 2, -2, 2), 256, 256)
    m = map_boundary(b, lambda z: phi_formula(mu, 0.5, z))
    pts = np.concatenate([c.points for c in m.polylines])
    assert np.abs(pts.real).max() == pytest.approx(1.5, abs=2e-3)
    assert np.abs(pts.imag).max() == pytest.approx(0.5, abs=2e-3)


def test_e_region_gamma_zero_unchanged():
    mu = bernoulli()
    b = _domain(mu, 1.0, (-2.5, 2.5, -2, 2), 128, 128)
    m = map_boundary(b, lambda z: phi_formula(mu, 0.0, z))
    for c0, c1 in zip(b.polylines, m.polylines):
        assert np.allclose(c0.points, c1.points)


def test_phi_injectivity_bound():
    # |Phi(a) - Phi(b)| >= (1 - |gamma|/sqrt(T(a)T(b))) |a - b| on the
    # exterior, via Cauchy-Schwarz on the resolvent difference
    mu = bernoulli()
    t, gamma = 1.0, 0.8j
    rng = np.random.default_rng(2718)
    pts = rng.uniform(-4, 4, (4, 40000))
    a = pts[0] + 1j * pts[1]
    b = pts[2] + 1j * pts[3]
    Ta, Tb = T_additive(mu, a), T_additive(mu, b)
    keep = (Ta > t) & (Tb > t) & (a != b)
    assert keep.sum() > 10000
    a, b, Ta, Tb = a[keep], b[keep], Ta[keep], Tb[keep]
    lhs = np.abs(phi_formula(mu, gamma, a) - phi_formula(mu, gamma, b))
    bound = (1 - abs(gamma) / np.sqrt(Ta * Tb)) * np.abs(a - b)
    assert np.all(lhs >= bound - 1e-12)
    assert np.min(lhs) > 1e-10


def test_exterior_exclusion():
    # every sampled point outside the extracted domain has T > t
    mu = bernoulli()
    t = 1.0
    b = _domain(mu, t, (-3, 3, -3, 3), 256, 256)
    rng = np.random.default_rng(11)
    n = 0
    while n < 1000:
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if bool(point_in_region(b, lam)):
            continue
        if float(np.min(mu.support_distance(lam))) < 1e-6:
            continue
        n += 1
        assert T_additive(mu, lam) > t


# --- laplacian identity ---------------------------------------------------------

def test_laplacian_identity_delta0():
    lhs, rhs = laplacian_identity_check(delta0(), 2.0, h=1e-3)
    assert lhs == pytest.approx(4.0 / 16, rel=1e-5)
    assert rhs == pytest.approx(1.0 / 16, rel=1e-12)
    lhs2, rhs2 = laplacian_identity_check(delta0(), 1.0 + 1.0j, h=1e-3)
    assert lhs2 == pytest.approx(1.0, rel=1e-5)
    assert rhs2 == pytest.approx(0.25, rel=1e-12)


def test_laplacian_ratio_constant():
    mu = bernoulli()
    rng = np.random.default_rng(23)
    ratios = []
    for _ in range(20):
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if float(np.min(mu.support_distance(lam))) < 0.5:
            continue
        lhs, rhs = laplacian_identity_check(mu, lam, h=1e-3)
        assert lhs > 0
        ratios.append(lhs / rhs)
    ratios = np.array(ratios)
    assert ratios.std() / ratios.mean() < 1e-3
