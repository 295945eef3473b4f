"""Multiplicative models: unitary and positive initial conditions."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brownscope import (BlowUp, BrownscopeError, ContinuationFailed,
                        EvaluationOnSupport, Membership, NegativeEpsilon,
                        OriginExcluded, SpectralMeasure, T_mult_positive,
                        T_mult_unitary, Verdict, WrongSupportKind,
                        blow_up_time, curvature_check_circle, evaluate_grid,
                        extract_levelset, f_gamma_formula, flow_dSde,
                        hamilton_flow_mult, herglotz, neg2_moments,
                        neg2_trace, point_in_region, preimage,
                        psi_derivative, psi_formula, reg_resolvent,
                        sigma_boundary_positive, spectral_test)
from brownscope import multiplicative
from brownscope.additive import _band_membership
from brownscope.multiplicative import (_atom_mass_at_zero, _characteristic,
                                       _initial_state, _landing, _T_at_zero,
                                       _zero_outside_closed_domain)


def delta1_circle():
    return SpectralMeasure.atomic([1.0], [1.0], support="circle")


def fourth_roots():
    return SpectralMeasure.atomic([1.0, 1j, -1.0, -1j], [0.25] * 4,
                                  support="circle")


def two_atoms():
    return SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")


# --- unitary lifetime -------------------------------------------------------

def test_p_tilde_values():
    mu = delta1_circle()
    assert neg2_trace(mu, -1.0) == pytest.approx(0.25)
    assert neg2_trace(mu, 0.0) == pytest.approx(1.0)
    assert neg2_trace(fourth_roots(), 0.0) == pytest.approx(1.0)
    with pytest.raises(WrongSupportKind):
        T_mult_unitary(SpectralMeasure.atomic([0.0], [1.0], "real"), 2.0)
    with pytest.raises(WrongSupportKind):
        T_mult_unitary(two_atoms(), 2.0)


def test_T_unitary_values():
    mu = delta1_circle()
    assert T_mult_unitary(mu, -1.0) == pytest.approx(4.0, abs=1e-12)
    assert T_mult_unitary(mu, 2.0) == pytest.approx(np.log(4) / 3, abs=1e-12)
    assert T_mult_unitary(mu, 1 + 1j) == pytest.approx(np.log(2), abs=1e-12)
    assert T_mult_unitary(mu, 0.0) == np.inf
    assert T_mult_unitary(mu, 1.0) == 0.0  # atom: p_tilde infinite


def test_T_unitary_near_zero_is_relative():
    # log(|lam|^2) / (|lam|^2 - 1) cancels near 0 and |lam|^2 underflows;
    # T keeps its relative accuracy all the way down, and T(0) is inf
    mu = fourth_roots()
    for r in (1e-3, 1e-7, 1e-9, 1e-100, 1e-200):
        want = -2.0 * np.log(r) / ((1.0 - r * r) * neg2_trace(mu, r))
        got = T_mult_unitary(mu, r)
        assert abs(got - want) <= 1e-13 * want, r
        assert T_mult_unitary(mu, np.array([r * 1j]))[0] == pytest.approx(
            want, rel=1e-13)
    assert T_mult_unitary(mu, 0.0) == np.inf
    assert T_mult_unitary(mu, np.array([0.0, 1e-200]))[0] == np.inf


def test_T_unitary_series_branch_on_circle():
    # on |lam| = 1 the log-ratio factor takes its limiting value 1,
    # so T = |lam - 1|^2 exactly for the point mass at 1
    mu = delta1_circle()
    for th in (0.5, 2.0, 3.0):
        lam = np.exp(1j * th)
        assert T_mult_unitary(mu, lam) == pytest.approx(
            abs(lam - 1) ** 2, abs=1e-10)
    # continuity across |lam| = 1, where u = a/p2 - 1 changes sign
    for s in (1 - 2e-8, 1 - 1e-9, 1 + 1e-9, 1 + 2e-8):
        lam = s * np.exp(2.0j)
        ref = T_mult_unitary(mu, np.exp(2.0j))
        assert T_mult_unitary(mu, lam) == pytest.approx(ref, rel=1e-6)


def test_T_unitary_rotation_equivariance():
    rng = np.random.default_rng(77)
    ang = rng.uniform(0, 2 * np.pi, 5)
    w = rng.uniform(0.2, 1.0, 5)
    mu = SpectralMeasure.atomic(np.exp(1j * ang), w, support="circle")
    for alpha in (0.7, 2.1):
        rot = SpectralMeasure.atomic(np.exp(1j * (ang + alpha)), w,
                                     support="circle")
        for lam in (0.3 + 0.2j, 1.5 - 0.4j, 2.0):
            assert T_mult_unitary(rot, np.exp(1j * alpha) * lam) == \
                pytest.approx(T_mult_unitary(mu, lam), rel=1e-12)


def test_membership_unitary():
    mu = delta1_circle()
    T = T_mult_unitary(mu, -1.0)
    assert _band_membership(T, 3.0) is Membership.OUTSIDE
    assert _band_membership(T, 5.0) is Membership.INSIDE
    assert _band_membership(T, 4.0) is Membership.BOUNDARY


# --- push-forward maps --------------------------------------------------------

def test_psi_values():
    mu = delta1_circle()
    assert psi_formula(mu, 0.0, 0.5j) == pytest.approx(0.5j)
    # J vanishes at -1 for the point mass at 1
    assert psi_formula(mu, 0.7 + 0.2j, -1.0) == pytest.approx(-1.0, abs=1e-14)
    got = psi_formula(mu, 0.3, 2.0)
    assert got == pytest.approx(2 * np.exp(-0.45), abs=1e-13)


def test_psi_injectivity_sampling():
    mu = fourth_roots()
    t, gamma = 1.0, -0.5j
    rng = np.random.default_rng(321)
    pts = rng.uniform(-3, 3, (4, 40000))
    a = pts[0] + 1j * pts[1]
    b = pts[2] + 1j * pts[3]
    Ta = T_mult_unitary(mu, a)
    Tb = T_mult_unitary(mu, b)
    keep = (Ta > t) & (Tb > t) & (np.abs(a - b) > 1e-8)
    assert keep.sum() > 10000
    im_a = psi_formula(mu, gamma, a[keep])
    im_b = psi_formula(mu, gamma, b[keep])
    assert np.min(np.abs(im_a - im_b)) > 1e-10


# --- hamilton flow ------------------------------------------------------------

def test_flow_initial_momentum_matches_resolvent():
    mu = fourth_roots()
    lam0, eps0 = -1.3 + 0.4j, 0.37
    st = hamilton_flow_mult(mu, lam0, eps0, 1e-13)
    want = reg_resolvent(mu, lam0, eps0)
    assert st.p_epsilon == pytest.approx(want, abs=1e-10)
    assert st.lam == pytest.approx(lam0, abs=1e-12)
    assert st.epsilon == pytest.approx(eps0, abs=1e-12)


def test_flow_nearly_frozen_small_t():
    mu = delta1_circle()
    st = hamilton_flow_mult(mu, 50.0 + 0.0j, 30.0, 1e-3)
    assert st.epsilon == pytest.approx(30.0, rel=1e-2)


def test_flow_blow_up_example():
    t_star = blow_up_time(delta1_circle(), -1.0, 1e-6, t_max=50.0)
    assert 3.9 < t_star < 4.1


def test_flow_blow_up_monotone_convergence():
    mu = delta1_circle()
    lam = 2.0
    T = T_mult_unitary(mu, lam)
    times = [blow_up_time(mu, lam, e0, t_max=50.0)
             for e0 in (1e-4, 1e-5, 1e-6)]
    assert times[0] > times[1] > times[2] > T
    assert times[2] == pytest.approx(T, rel=1e-5)


def test_flow_raises_blow_up_past_lifetime():
    with pytest.raises(BlowUp) as exc:
        hamilton_flow_mult(delta1_circle(), -1.0, 1e-6, 10.0)
    assert 3.9 < exc.value.t_detected < 4.1


def test_flow_survives_before_lifetime():
    st = hamilton_flow_mult(delta1_circle(), -1.0, 1e-6, 2.0)
    assert np.isfinite(st.p_epsilon)
    assert st.elapsed == pytest.approx(2.0)
    assert st.epsilon >= 0


def _mult_rhs(_t, y):
    """The characteristic system of the multiplicative module's docstring,
    in the real coordinates (x, y, eps, Re p_lam, Im p_lam, p_eps)."""
    x, yi, eps, plr, pli, pe = y
    r2 = x * x + yi * yi
    re_lp = x * plr - yi * pli  # Re(lam * p_lam)
    inner = 1.0 + (r2 - eps) * pe - 2.0 * re_lp
    return [eps * pe * x, eps * pe * yi, -eps * (inner + (r2 - eps) * pe),
            eps * pe * (pe * x - plr), eps * pe * (-pe * yi - pli),
            pe * (inner - eps * pe)]


def _ode_state(start, t):
    """The system integrated from the state start over [0, t] by RK45, as
    (lam, eps, p_lam, p_eps)."""
    from scipy.integrate import solve_ivp
    y0 = [start.lam.real, start.lam.imag, start.epsilon, start.p_lambda.real,
          start.p_lambda.imag, start.p_epsilon]
    sol = solve_ivp(_mult_rhs, (0.0, t), y0, method="RK45", rtol=1e-10,
                    atol=1e-12)
    assert sol.success
    x, yi, eps, plr, pli, pe = sol.y[:, -1]
    return complex(x, yi), eps, complex(plr, pli), pe


def _invariants(state):
    """H = -Phi (b + A + Phi), Phi + Re(lam p_lam) and Im(lam p_lam), with
    Phi = eps p_eps, A = |lam|^2 p_eps and b = 1 - 2(Phi + Re(lam p_lam))."""
    phi = state.epsilon * state.p_epsilon
    a = abs(state.lam) ** 2 * state.p_epsilon
    lp = state.lam * state.p_lambda
    b = 1.0 - 2.0 * (phi + lp.real)
    return -phi * (b + a + phi), phi + lp.real, lp.imag


@st.composite
def atomic_laws(draw):
    """Up to four atoms on the unit circle or on [0, 3] of the half-line."""
    atoms = draw(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 1.0)),
                          min_size=1, max_size=4))
    xs, ws = (np.array(v) for v in zip(*atoms))
    if draw(st.booleans()):
        return SpectralMeasure.atomic(np.exp(2j * np.pi * xs / 3.0), ws,
                                      support="circle")
    return SpectralMeasure.atomic(xs, ws, support="nonneg")


def _exact_lifetime(mu, lam):
    """log(a/p2)/(a - p2), a = |lam|^2 p0, to 40 digits: the lifetime of
    T_mult_positive and, with p2 = p0 on the circle, of T_mult_unitary."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        z = mp.mpc(complex(lam))
        p0 = p2 = mp.mpf(0)
        for x, w in zip(mu.positions, mu.prob_weights):
            if z == mp.mpc(complex(x)):  # at an atom
                return 0.0
            q = mp.mpf(float(w)) / abs(z - mp.mpc(complex(x))) ** 2
            p0 += q
            p2 += q * abs(mp.mpc(complex(x))) ** 2
        a = abs(z) ** 2 * p0
        if p2 == 0:  # a point mass at 0
            return np.inf
        # log1p keeps the digits of a/p2 - 1 where a and p2 nearly agree
        u = (a - p2) / p2
        return float((mp.log(a / p2) if abs(u) > 0.5 else mp.log1p(u))
                     / (u * p2) if u else 1 / p2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(atoms=st.lists(st.tuples(st.just(0.0) | st.floats(1e-3, 3.0),
                                st.floats(0.1, 1.0)), min_size=1, max_size=4),
       log_r=st.floats(-6.0, 0.5), theta=st.floats(0.0, 2.0 * np.pi))
def test_positive_lifetime_keeps_its_digits_near_zero(atoms, log_r, theta):
    # near 0, off an atom there, a = |lam|^2 p0 is far below p2, where
    # log1p(a/p2 - 1) would keep only the digits above eps p2/a
    mu = SpectralMeasure.atomic(*map(np.array, zip(*atoms)), support="nonneg")
    lam = 10.0 ** log_r * np.exp(1j * theta)
    assume(mu.support_distance(lam) > mu.guard_band)
    T = _exact_lifetime(mu, lam)
    assume(np.isfinite(T))
    assert T_mult_positive(mu, lam) == pytest.approx(T, rel=1e-12)
    assert T_mult_positive(mu, np.array([lam]))[0] == pytest.approx(
        T, rel=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mu=atomic_laws(), w0=st.none() | st.floats(0.1, 100.0),
       log_r=st.floats(-300.0, 2.0), theta=st.floats(0.0, 2.0 * np.pi),
       as_array=st.booleans())
# 0.9 delta_0 + 0.1 delta_1 at 2e-154: p0 / p2 alone overflows, a / p2 not
@example(mu=SpectralMeasure.atomic([1.0], [1.0], "nonneg"), w0=9.0,
         log_r=np.log10(2e-154), theta=0.0, as_array=False)
@example(mu=SpectralMeasure.atomic([1.0], [1.0], "nonneg"), w0=9.0,
         log_r=np.log10(2e-154), theta=0.0, as_array=True)
def test_lifetime_is_the_one_formula_from_1e_minus_300_to_100(
        mu, w0, log_r, theta, as_array):
    # circle and half-line laws, |lam| down to 1e-300, where |lam|^2
    # underflows and, with an atom at 0 (of weight w0 added), p0 overflows
    if w0 is not None and mu.support == "nonneg":
        mu = SpectralMeasure.atomic(np.append(mu.positions.real, 0.0),
                                    np.append(mu.weights, w0), "nonneg")
    # nonzero atoms near the float range's edge are out of reach: one whose
    # square underflows drops out of p2 (an open defect), and the radial
    # limit stands in for T below |lam| ~ 1e-154 only as |lam| / xi -> 0
    xi = np.abs(mu.positions)
    assume(np.all((xi == 0) | (xi >= 1e-100)))
    lam = 10.0 ** log_r * np.exp(1j * theta)
    T = _exact_lifetime(mu, lam)
    lifetime = T_mult_unitary if mu.support == "circle" else T_mult_positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (lifetime(mu, np.array([lam]))[0] if as_array
               else lifetime(mu, lam))
    if T == 0 or np.isinf(T):
        assert got == T
    else:
        assert got == pytest.approx(T, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mu=atomic_laws(), log_r=st.floats(-12.0, 1.5),
       theta=st.floats(0.0, 2.0 * np.pi))
def test_blow_up_time_at_eps0_zero_is_the_lifetime(mu, log_r, theta):
    # the paper's anchor: from eps0 = 0 the flow blows up at T(lam)
    lam = 10.0 ** log_r * np.exp(1j * theta)
    assume(mu.support_distance(lam) > mu.guard_band)
    T = _exact_lifetime(mu, lam)
    assume(0.0 < T < 50.0)
    assert blow_up_time(mu, lam, 0.0) == pytest.approx(T, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mu=atomic_laws(), log_r=st.floats(-10.0, 0.6),
       theta=st.floats(0.0, 2.0 * np.pi), log_eps=st.floats(-10.0, 1.0),
       frac=st.floats(0.0, 1.0, exclude_max=True))
def test_flow_keeps_its_constants_of_motion(mu, log_r, theta, log_eps, frac):
    lam0, eps0 = 10.0 ** log_r * np.exp(1j * theta), 10.0 ** log_eps
    t = frac * blow_up_time(mu, lam0, eps0)  # +inf past t_max = 50
    assume(np.isfinite(t))
    start = _initial_state(mu, complex(lam0), eps0)[0]
    end = hamilton_flow_mult(mu, lam0, eps0, t)
    for a, b in zip(_invariants(start), _invariants(end)):
        assert abs(b - a) <= 1e-12 * max(1.0, abs(a))
    # Phi = eps p_eps falls from Phi0 towards 0, and lam moves out along
    # its ray at the rate Phi: 1 <= lam / lam0 <= e^{Phi0 t}
    phi0 = start.epsilon * start.p_epsilon
    assert 0.0 <= end.epsilon * end.p_epsilon <= phi0 * (1.0 + 1e-12)
    growth = end.lam / lam0
    assert abs(growth.imag) <= 1e-12 * abs(growth)
    assert 1.0 - 1e-12 <= growth.real <= np.exp(phi0 * t) * (1.0 + 1e-12)


def test_flow_from_a_negative_eps0_agrees_with_solve_ivp():
    # k^2 = b^2/4 - H < 0 only from eps0 < 0: the trigonometric branch
    mu = fourth_roots()
    start = _initial_state(mu, 1.2 + 1.2j, -0.888)
    t_blow = _characteristic(start, 0.0)[1]
    assert 0.6 < t_blow < 0.7
    state = _characteristic(start, 0.5)[0]
    lam, eps, pl, pe = _ode_state(start[0], 0.5)
    assert state.lam == pytest.approx(lam, rel=1e-8)
    assert state.epsilon == pytest.approx(eps, rel=1e-8)
    assert state.p_lambda == pytest.approx(pl, rel=1e-8)
    assert state.p_epsilon == pytest.approx(pe, rel=1e-8)
    assert _characteristic(start, t_blow)[0] is None


@pytest.mark.parametrize("call", [
    lambda mu: hamilton_flow_mult(mu, 3.0, 0.1, 1e4),
    lambda mu: flow_dSde(mu, 3.0, 1e6, 0.0),
    lambda mu: hamilton_flow_mult(mu, 1.0 + 1e-9, 0.0, 1.0),
    lambda mu: hamilton_flow_mult(mu, 0.0, 1e-3, 800.0)],
    ids=["past-blow-up", "reference-past-blow-up", "next-to-an-atom",
         "p-eps-overflows"])
def test_flow_raises_only_package_errors(call):
    # far past the blow-up time, next to an atom, or where p_eps = p_eps0
    # e^{bt} leaves the float range (lam0 = 0, b near 1)
    with pytest.raises(BrownscopeError):
        call(fourth_roots())


# --- the flow reference dS/deps ------------------------------------------------

def _riccati(mu, lam, t):
    """p_eps at time t on the eps0 = 0 characteristic, which keeps lam:
    the solution of dp/dt = p (a + b p) with a = 2 Re J(lam), b = |lam|^2."""
    a, b = 2.0 * herglotz(mu, lam).real, abs(lam) ** 2
    p0 = reg_resolvent(mu, lam, 0.0)
    grow = np.exp(a * t)
    return a * p0 * grow / (a + b * p0 * (1.0 - grow))


# every point lies outside the closed time-2 domain of its law, with
# lifetime at least 2.5
@pytest.mark.parametrize("law, lam", [
    (fourth_roots, 4.0), (fourth_roots, 3.0 + 3.0j), (fourth_roots, 0.0),
    (two_atoms, -3.0), (two_atoms, 4.0j), (two_atoms, 0.0)])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [1e-3, 0.3])
def test_flow_reference_agrees_with_solve_ivp(law, lam, t, eps):
    _assert_landing_agrees_with_solve_ivp(law(), lam, t, eps)


# shootings whose Newton steps must be halved: 6 halvings in all on delta_1
# (at most 2 in one step, so 3 trial steps), 1 on the fourth roots
@pytest.mark.parametrize("law, lam, eps, trials", [
    (delta1_circle, 0.35 + 0.25j, 1e-5, 3),
    (fourth_roots, 0.76 + 1.11j, 2e-3, 2)])
def test_flow_reference_agrees_with_solve_ivp_after_step_halvings(
        monkeypatch, law, lam, eps, trials):
    _assert_landing_agrees_with_solve_ivp(law(), lam, 1.0, eps)
    # one trial step fewer, and a Newton step finds no shorter residual
    monkeypatch.setattr(multiplicative, "_SHOOT_HALVINGS", trials - 1)
    with pytest.raises(ContinuationFailed, match="no shooting step reduced"):
        _landing(law(), lam, 1.0, eps)


def _assert_landing_agrees_with_solve_ivp(mu, lam, t, eps):
    # the shooting lands on (lam, eps); an ODE solve of the system from
    # the same start lands there too, with the same p_eps
    lam0, eps0, state = _landing(mu, lam, t, eps)
    assert state.p_epsilon == flow_dSde(mu, lam, t, eps)
    got_lam, got_eps, got_pl, got_pe = _ode_state(
        _initial_state(mu, lam0, eps0)[0], t)
    assert abs(got_lam - lam) <= 1e-8 * max(abs(lam), 1.0)
    assert got_eps == pytest.approx(eps, rel=1e-8)
    assert abs(got_pl - state.p_lambda) <= 1e-8 * max(abs(got_pl), 1.0)
    assert got_pe == pytest.approx(state.p_epsilon, rel=1e-8)


@pytest.mark.parametrize("law, lam", [
    (fourth_roots, 3.0), (fourth_roots, 1.6 + 1.6j), (fourth_roots, 0.2),
    (two_atoms, -3.0), (two_atoms, 4.0j)])
def test_flow_reference_tends_to_the_riccati_form(law, lam):
    mu, t = law(), 0.5 if law is two_atoms else 1.0
    want = _riccati(mu, lam, t)
    gaps = [abs(flow_dSde(mu, lam, t, eps) - want)
            for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1e-6 * want
    assert flow_dSde(mu, lam, t, 0.0) == pytest.approx(want, rel=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=st.sampled_from([fourth_roots, two_atoms]),
       r=st.floats(0.0, 4.0), theta=st.floats(0.0, 2.0 * np.pi),
       t=st.sampled_from([0.5, 1.0, 2.0]),
       log_eps=st.floats(-4.0, 1.0), log_ratio=st.floats(0.2, 1.0))
def test_flow_reference_decreases_in_eps(law, r, theta, t, log_eps, log_ratio):
    # d^2 S / d eps^2 = -tr((... + eps)^-2) < 0, wherever lam lies outside
    # the closed time-t domain with its band
    mu = law()
    lam = r * np.exp(1j * theta)
    lifetime = T_mult_unitary if law is fourth_roots else T_mult_positive
    assume(lam != 0 or law is fourth_roots)  # T_mult_positive excludes 0
    assume(_band_membership(lifetime(mu, lam), t) is Membership.OUTSIDE)
    eps = 10.0 ** log_eps
    assert flow_dSde(mu, lam, t, eps) > flow_dSde(mu, lam, t,
                                                  eps * 10.0 ** log_ratio)


def test_flow_reference_failures_are_package_errors():
    mu = fourth_roots()
    with pytest.raises(NegativeEpsilon):
        flow_dSde(mu, 3.0, 1.0, -1e-3)
    with pytest.raises(ContinuationFailed):  # on an atom, inside the domain
        flow_dSde(mu, 1.0, 1.0, 1e-3)
    with pytest.raises(BlowUp):  # eps = 0 on an atom
        flow_dSde(mu, 1j, 1.0, 0.0)


# --- circle curvature ----------------------------------------------------------

def test_curvature_closed_form_values():
    mu = delta1_circle()
    assert curvature_check_circle(mu, np.pi) == pytest.approx(1.0 / 8, abs=1e-13)
    assert curvature_check_circle(mu, np.pi / 2) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(EvaluationOnSupport):
        curvature_check_circle(mu, 0.0)


def test_curvature_matches_finite_differences():
    mu = fourth_roots()
    h = 1e-4
    for th in (0.4, 1.0, 2.2, 3.9):
        def inv_T(a):
            return 1.0 / T_mult_unitary(mu, np.exp(1j * a))
        fd = (inv_T(th + h) - 2 * inv_T(th) + inv_T(th - h)) / h ** 2
        assert curvature_check_circle(mu, th) == pytest.approx(fd, rel=1e-4)
        assert curvature_check_circle(mu, th) > 0


# --- positive case ---------------------------------------------------------------

def test_p0_p2_values():
    mu1 = SpectralMeasure.atomic([1.0], [1.0], support="nonneg")
    p0, p2 = neg2_moments(mu1, 2.0)
    assert (p0, p2) == (pytest.approx(1.0), pytest.approx(1.0))
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    p0, p2 = neg2_moments(mu, 4.0)
    assert p0 == pytest.approx(13.0 / 72, abs=1e-14)
    assert p2 == pytest.approx(5.0 / 9, abs=1e-14)
    for law in (fourth_roots(), SpectralMeasure.atomic([1.0], [1.0], "real")):
        with pytest.raises(WrongSupportKind):
            T_mult_positive(law, 2.0)


def test_p0_p2_equal_when_mass_on_unit_modulus():
    mu1 = SpectralMeasure.atomic([1.0], [1.0], support="nonneg")
    p0, p2 = neg2_moments(mu1, 0.3 + 0.4j)
    assert p0 == pytest.approx(p2)


def test_T_positive_reduces_to_unitary_at_delta1():
    mu1 = SpectralMeasure.atomic([1.0], [1.0], support="nonneg")
    assert T_mult_positive(mu1, -1.0) == pytest.approx(4.0, abs=1e-12)
    # |lam| = 1 gives a = p2, where the log-ratio factor is 1: value 1/p2
    assert T_mult_positive(mu1, 1j) == pytest.approx(2.0, abs=1e-10)


def test_T_positive_two_atoms():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    a, b = 16 * 13 / 72, 5.0 / 9
    want = np.log(a / b) / (a - b)
    assert T_mult_positive(mu, 4.0) == pytest.approx(want, rel=1e-13)
    # limit oracle: the log ratio evaluated at a 1e-6 perturbation brackets it
    lo = np.log((a - 1e-6) / b) / ((a - 1e-6) - b)
    hi = np.log((a + 1e-6) / b) / ((a + 1e-6) - b)
    assert min(lo, hi) <= T_mult_positive(mu, 4.0) <= max(lo, hi)


def test_T_positive_origin_excluded():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    with pytest.raises(OriginExcluded):
        T_mult_positive(mu, 0.0)


@pytest.mark.parametrize("atoms, weights, at_zero", [
    ([0.0, 1.0], [0.3, 0.7], np.log(0.3 / 0.7) / (0.3 - 0.7)),
    ([0.0, 2.0], [0.5, 0.5], 2.0),  # w0 = 1 - w0: the value is 1/p2
    ([0.0], [1.0], np.inf),
    ([1.0, 2.0], [0.5, 0.5], np.inf)])
def test_T_positive_array_at_the_origin_is_the_radial_limit(atoms, weights,
                                                            at_zero):
    mu = SpectralMeasure.atomic(atoms, weights, support="nonneg")
    pts = np.array([0.5 + 0.5j, 0.0, 3.0, 1e-200j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = T_mult_positive(mu, pts)
        ray = [T_mult_positive(mu, r * np.exp(0.3j)) for r in (1e-3, 1e-7)]
    assert vals[1] == pytest.approx(at_zero, rel=1e-14)
    if _atom_mass_at_zero(mu):
        # |lam|^2 underflows to 0 at 1e-200: the same limit
        assert vals[3] == vals[1]
    else:
        # no atom at 0: the lifetime at 1e-200 is finite, about 921.5
        want = _exact_lifetime(mu, 1e-200j)
        assert vals[3] == pytest.approx(want, rel=1e-12)
    if np.isfinite(at_zero):
        assert ray[1] == pytest.approx(at_zero, rel=1e-5)
    else:
        # log-divergent towards the origin (inf throughout for a point mass)
        assert ray[0] < ray[1] or ray[0] == np.inf
    # the other entries are the values they take without the origin
    others = T_mult_positive(mu, np.array([0.5 + 0.5j, 1j, 3.0, 1j]))
    assert vals[[0, 2]].tobytes() == others[[0, 2]].tobytes()
    with pytest.raises(OriginExcluded):
        T_mult_positive(mu, 0.0)


def test_T_positive_zero_at_atoms():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    assert T_mult_positive(mu, 2.0) == 0.0


def test_f_gamma_values():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    assert f_gamma_formula(mu, 0.0, 5.0) == pytest.approx(5.0)
    # direct-sum oracle
    G = 0.5 * (1 / (10 - 1) + 1 / (10 - 2))
    J = 0.5 - 10 * G
    assert f_gamma_formula(mu, 1.0, 10.0) == pytest.approx(
        10 * np.exp(J), abs=1e-12)
    # for the point mass at 1 the formula coincides with the unitary map
    mu1 = SpectralMeasure.atomic([1.0], [1.0], support="nonneg")
    u1 = delta1_circle()
    for lam in (2.0, -1.5 + 0.3j):
        assert f_gamma_formula(mu1, 0.4j, lam) == pytest.approx(
            psi_formula(u1, 0.4j, lam), abs=1e-14)


def test_f_gamma_injectivity_sampling():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    t, gamma = 0.5, 0.25
    rng = np.random.default_rng(99)
    pts = rng.uniform(-4, 4, (4, 30000))
    a = pts[0] + 1j * pts[1]
    b = pts[2] + 1j * pts[3]
    ok_a = np.abs(a) > 1e-3
    ok_b = np.abs(b) > 1e-3
    keep = ok_a & ok_b
    a, b = a[keep], b[keep]
    Ta = T_mult_positive(mu, a)
    Tb = T_mult_positive(mu, b)
    keep2 = (Ta > t) & (Tb > t) & (np.abs(a - b) > 1e-8)
    assert keep2.sum() > 10000
    im_a = f_gamma_formula(mu, gamma, a[keep2])
    im_b = f_gamma_formula(mu, gamma, b[keep2])
    assert np.min(np.abs(im_a - im_b)) > 1e-10


# --- d region -------------------------------------------------------------------
# z lies outside the image region D of the positive-case map exactly when
# its preimage path stays exterior to the closed time-t domain

def _f_gamma_preimage(mu, gamma, t, z):
    return preimage(mu, lambda lam: f_gamma_formula(mu, gamma, lam),
                    lambda lam: psi_derivative(mu, gamma, lam),
                    T_mult_positive, t, z)


def test_d_region_gamma_zero_matches_sigma():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    # T(4) about 0.7 > 0.5 -> outside; T(1.5 + 0i)? atoms nearby, inside
    assert _f_gamma_preimage(mu, 0.0, 0.5, 4.0) == 4.0
    assert _f_gamma_preimage(mu, 0.0, 0.5, 1.5) is None


def test_d_region_far_points_outside():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    for z in (30.0, -25.0 + 10j, 40j):
        assert _f_gamma_preimage(mu, 0.25, 0.5, z) is not None


def test_d_region_forward_image_consistency():
    # points produced by mapping exterior lambdas forward must be outside D
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    t, gamma = 0.5, 0.25
    for lam in (4.0, -2.0, 3.0j, 1.0 + 2.5j):
        assert T_mult_positive(mu, lam) > t
        z = f_gamma_formula(mu, gamma, lam)
        back = _f_gamma_preimage(mu, gamma, t, z)
        assert back == pytest.approx(lam, abs=1e-10)
        assert spectral_test(mu, T_mult_positive, back, t) is \
            Verdict.OUTSIDE_SPECTRUM


def test_psi_derivative_matches_differences():
    # one derivative serves psi and f_gamma, on the circle and the half-line
    for mu, lam in ((fourth_roots(), 1.7 - 0.4j),
                    (SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5],
                                            support="nonneg"), -0.5 + 1.2j)):
        h = 1e-6
        fd = (psi_formula(mu, 0.3 - 0.2j, lam + h)
              - psi_formula(mu, 0.3 - 0.2j, lam - h)) / (2 * h)
        assert psi_derivative(mu, 0.3 - 0.2j, lam) == pytest.approx(
            fd, rel=1e-7)
    with pytest.raises(EvaluationOnSupport):
        psi_derivative(fourth_roots(), 0.3, 1j)


# --- spectral tests ----------------------------------------------------------------

def test_spectral_test_unitary():
    mu = delta1_circle()
    assert spectral_test(mu, T_mult_unitary, -1.0, 3.0) is \
        Verdict.OUTSIDE_SPECTRUM
    assert spectral_test(mu, T_mult_unitary, -1.0, 5.0) is Verdict.UNDETERMINED
    # lam = 0: T = +inf, outside the closed domain for every t
    assert spectral_test(mu, T_mult_unitary, 0.0, 2.0) is \
        Verdict.OUTSIDE_SPECTRUM
    # midway between two nodes of a uniform circle density the node sums
    # stay finite, so T > t there; the point is on the support all the same
    dens = SpectralMeasure.uniform_circle(256)
    lam = np.exp(1j * (np.pi / 256 - np.pi))
    assert T_mult_unitary(dens, lam) > 1e-3
    assert spectral_test(dens, T_mult_unitary, lam, 1e-3) is \
        Verdict.UNDETERMINED


def test_spectral_test_positive_far_point():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    lam = _f_gamma_preimage(mu, 0.25, 0.5, 20.0)
    assert spectral_test(mu, T_mult_positive, lam, 0.5) is \
        Verdict.OUTSIDE_SPECTRUM


def test_spectral_test_zero_atom_cases():
    # 0 is outside the closed domain for both laws, so the zero-atom
    # dichotomy applies; its side is the law's atom at 0, which the CLI
    # reports as zero_atom
    with_atom = SpectralMeasure.atomic([0.0, 2.0], [0.5, 0.5],
                                       support="nonneg")
    assert _zero_outside_closed_domain(with_atom, 1.0)
    assert _atom_mass_at_zero(with_atom) > 0

    without = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    assert _zero_outside_closed_domain(without, 0.5)
    assert _atom_mass_at_zero(without) == 0

    # an atom at 1e-16 is off 0: the radial limit there is +inf
    near = SpectralMeasure.atomic([1e-16, 2.0], [0.5, 0.5], support="nonneg")
    assert _zero_outside_closed_domain(near, 1.0)
    assert _atom_mass_at_zero(near) == 0
    assert _T_at_zero(near) == np.inf


# --- boundaries ---------------------------------------------------------------------

def _unitary_domain(mu, t, bounds, nx, ny):
    """The T = t level set on an nx-by-ny grid, as the CLI extracts it."""
    grid = evaluate_grid(lambda z: T_mult_unitary(mu, z), bounds, nx, ny,
                         conj_symmetric=mu.on_real_line)
    return extract_levelset(grid, t)


def test_sigma_unitary_boundary_through_minus_one():
    mu = delta1_circle()
    b = _unitary_domain(mu, 4.0, (-2, 2, -2, 2), 256, 256)
    pts = np.concatenate([c.points for c in b.polylines])
    cell = 4.0 / 256
    assert np.min(np.abs(pts + 1.0)) < 2 * cell


def test_sigma_unitary_conjugation_symmetry():
    mu = delta1_circle()
    b = _unitary_domain(mu, 1.0, (-2, 2, -2, 2), 128, 128)
    pts = np.concatenate([c.points for c in b.polylines])
    cell = 4.0 / 128
    for p in pts[::5]:
        assert np.min(np.abs(pts - np.conj(p))) < cell


def test_sigma_positive_boundary_lies_on_levelset():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")
    t = 0.5
    b = sigma_boundary_positive(mu, t, n_r=256, n_theta=256)
    assert b.polylines
    pts = np.concatenate([c.points for c in b.polylines])
    vals = T_mult_positive(mu, pts)
    assert np.median(np.abs(vals - t)) < 0.02 * t
    assert np.max(np.abs(vals - t)) < 0.2 * t


# (atoms, t, grid side): laws whose atoms' domains sit close to one another
# across the angular seam of the log-polar grid
SEAM_LAWS = [([1.0, 1.3], 0.01, 128), ([1.0, 2.0], 0.05, 48),
             ([1.0, 1.5, 2.0], 0.02, 96), ([0.0, 1.0, 1.2], 0.01, 256)]


def _seam_boundary(atoms, t, n):
    mu = SpectralMeasure.atomic(atoms, [1.0 / len(atoms)] * len(atoms),
                                support="nonneg")
    return mu, sigma_boundary_positive(mu, t, n_r=n, n_theta=n)


@pytest.mark.parametrize("atoms, t, n", SEAM_LAWS)
def test_sigma_positive_chains_close_around_their_atoms(atoms, t, n):
    _, b = _seam_boundary(atoms, t, n)
    assert b.polylines and all(c.closed for c in b.polylines)
    # T = 0 at an atom, so every nonzero atom is inside its domain
    for a in atoms:
        if a:
            assert point_in_region(b, a + 1e-9j), a


@pytest.mark.parametrize("atoms, t, n", SEAM_LAWS)
def test_sigma_positive_steps_stay_within_two_cells(atoms, t, n):
    mu, b = _seam_boundary(atoms, t, n)
    d_logr = (np.log(4.0 * (mu.support_radius() + 1.0)) - np.log(1e-6)) / n
    d_theta = 2 * np.pi / n
    for c in b.polylines:
        p = np.append(c.points, c.points[:1]) if c.closed else c.points
        # consecutive points in (log r, theta); a chord across the seam
        # would jump many cells
        assert np.max(np.abs(np.diff(np.log(np.abs(p))))) <= 2 * d_logr
        assert np.max(np.abs(np.angle(p[1:] / p[:-1]))) <= 2 * d_theta
