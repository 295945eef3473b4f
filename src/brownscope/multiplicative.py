"""Multiplicative-perturbation lifetime machinery.

Two reference situations share this module: a unitary reference with law
mu on the unit circle and a positive reference with law mu on the
nonnegative half-line, each multiplied by a free multiplicative Gaussian
family at time t.  Both have the lifetime

    T(lam) = log(a / p2) / (a - p2),   a = |lam|^2 p0,
    p0 = integral |xi - lam|^-2 dmu,   p2 = integral |xi|^2 |xi - lam|^-2 dmu,

with the limit 1/p2 where a = p2, T = 0 where p0 diverges and, at lam = 0,
the radial limit (+inf unless an atom sits at 0).  On the circle |xi| = 1,
so p2 = p0 and T = log(|lam|^2) / ((|lam|^2 - 1) p0).  _T_mult evaluates
both; T_mult_unitary and T_mult_positive check the law's support.

The regularized log potential S(t, lam, eps) obeys

    dS/dt = eps p_eps (1 + (|lam|^2 - eps) p_eps - x p_x - y p_y),

and the characteristic system used by hamilton_flow_mult is the standard
Hamiltonian lift of that PDE (H = -dS/dt with momenta substituted),
written in the complex momentum p_lam = (p_x - i p_y)/2:

    dlam/dt  = eps p_eps lam
    deps/dt  = -eps (1 + 2(|lam|^2 - eps) p_eps - 2 Re(lam p_lam))
    dplam/dt = eps p_eps (p_eps conj(lam) - p_lam)
    dpeps/dt = p_eps (1 + (|lam|^2 - 2 eps) p_eps - 2 Re(lam p_lam))

The sign convention is pinned by two facts: the same convention reproduces
the additive closed forms, and at eps0 = 0 the p_eps equation closes into
the Riccati equation dp/dt = p (2 Re J(lam) + |lam|^2 p) whose blow-up time
is exactly the lifetime formula above, for every circle law.

The system is solved in closed form (_characteristic).  With
Phi = eps p_eps and A = |lam|^2 p_eps, Phi' = -Phi A = -Re(lam p_lam)' and
Im(lam p_lam) is constant, so b = 1 - 2(Phi + Re(lam p_lam)) and the
Hamiltonian H = -Phi (b + A + Phi) are constants of motion, and Phi solves
the Riccati equation Phi' = Phi^2 + b Phi + H.  With k^2 = b^2/4 - H,
w = b/2 + Phi0 and m = w + A0,

    g = cosh kt - w sinh(kt)/k,     f = cosh kt - m sinh(kt)/k,
    lam = lam0 e^{-bt/2} / g,   Phi = Phi0 f / g,   p_eps = p_eps0 e^{bt} g / f,

with cos and sin for imaginary k and 1 and t for k = 0; eps = Phi / p_eps,
and lam p_lam = Phi0 + Re(lam0 p_lam0) - Phi + i Im(lam0 p_lam0), or
p_lam = p_lam0 e^{bt/2} g at lam0 = 0.  p_eps blows up at the first zero
of f.  At eps0 = 0 that time is log(1 + b/A0)/b, the lifetime T(lam0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import region as _region
from .additive import Membership, _band_membership
from .errors import (BlowUp, ContinuationFailed, EvaluationOnSupport,
                     NegativeEpsilon, WrongSupportKind)
from .measures import (SpectralMeasure, cauchy_derivative, cauchy_transform,
                       herglotz, neg2_moments, neg2_trace, neg4_trace,
                       reg_cauchy_transform)

# flow_dSde's shooting: Newton steps at most, the tolerance on the log
# residuals, step halvings at most per Newton step, and the
# forward-difference step of the Jacobian
_SHOOT_MAX_ITER = 20
_SHOOT_TOL = 1e-12
_SHOOT_HALVINGS = 10
_SHOOT_FD = 1e-7


@dataclass(frozen=True)
class HamiltonStateMult:
    lam: complex
    epsilon: float
    p_lambda: complex
    p_epsilon: float
    elapsed: float


def _log_ratio_factor(u):
    """log(1 + u) / u, with its limit 1 at u = 0; handles u = -1 (log 0)
    and infinite u."""
    u = np.asarray(u, dtype=float)
    zero = u == 0
    safe = np.where(zero, 1.0, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(safe, out=np.empty_like(safe))  # an array when 0-d
        out /= safe
    out[zero] = 1.0
    return out


# ---------------------------------------------------------------------------
# lifetime
# ---------------------------------------------------------------------------

# off both the unit circle and the half-line, so p0 and p2 are finite there
_STAND_IN = -2.0
# below this |lam|, |lam|^2 leaves the normal range; with a node at 0, p0
# overflows a little further in
_TINY_MOD = 1.4916681462400413e-154


def _far_out(mu: SpectralMeasure, arr):
    """(mask, points): the points so far out that |xi / lam| < 1e-150 on
    the support and |lam|^2 may overflow, and arr with _STAND_IN in their
    place.  There the lifetime is log(|lam|^2 / integral |xi|^2 d mu) to
    double precision, which _T_far_out returns."""
    far = np.abs(arr) > 1e150 * (1.0 + mu.support_radius())
    return far, (np.where(far, _STAND_IN, arr) if far.any() else arr)


def _T_far_out(mu: SpectralMeasure, arr):
    m2 = float(np.sum(mu.prob_weights * np.abs(mu.positions) ** 2))
    with np.errstate(divide="ignore"):  # m2 = 0: a point mass at 0
        return 2.0 * np.log(np.abs(arr)) - np.log(m2)


def _T_mult(mu: SpectralMeasure, lam):
    """log(a/p2) / (a - p2), a = |lam|^2 p0, on the circle (p2 = p0) or the
    half-line; vectorized.  a is formed first: near an atom at 0, p0/p2
    overflows.  The log-ratio factor is log1p(u)/u, u = a/p2 - 1; below
    a/p2 = 1/4, log(a/p2) is 2 log|lam| + log(p0/p2), which neither
    cancels nor underflows.  T = 0 where p0 diverges (at an atom) and +inf
    where p2 = 0 (a point mass at 0).  At lam = 0, and with a node at 0
    wherever |lam| < _TINY_MOD (p0 overflows there), T is the radial limit
    _T_at_zero; far out, _T_far_out."""
    arr = np.asarray(lam, dtype=complex)
    far, pts = _far_out(mu, arr)
    zero = np.abs(pts) < _TINY_MOD if (mu.positions == 0).any() else pts == 0
    if zero.any():
        pts = np.where(zero, _STAND_IN, pts)
    if mu.support == "circle":  # |xi| = 1: p2 = p0, so a / p2 = |lam|^2
        p0 = p2 = np.asarray(neg2_trace(mu, pts), dtype=float)
    else:
        p0, p2 = map(np.asarray, neg2_moments(mu, pts))
    mod = np.abs(pts)
    ratio = mod * mod
    with np.errstate(divide="ignore", invalid="ignore"):
        if p2 is not p0:
            ratio *= p0
            ratio /= p2
        T = _log_ratio_factor(ratio - 1.0)
        near = ratio < 0.25
        log_ratio = 2.0 * np.log(mod[near])
        if p2 is not p0:
            log_ratio += np.log(p0[near] / p2[near])
        T[near] = log_ratio / (ratio[near] - 1.0)
        T /= p2
    T[p2 == 0.0] = np.inf
    T[np.isinf(p0) | np.isinf(p2)] = 0.0
    if zero.any():
        T[zero] = _T_at_zero(mu)
    if far.any():
        T = np.where(far, _T_far_out(mu, arr), T)
    return float(T[()]) if arr.ndim == 0 else T


def T_mult_unitary(mu_u: SpectralMeasure, lam):
    """Unitary-case lifetime log(|lam|^2) / ((|lam|^2 - 1) p0): _T_mult on
    a circle law.  Vectorized; +inf at lam = 0 and 0 at an atom."""
    if mu_u.support != "circle":
        raise WrongSupportKind("T_mult_unitary needs a circle-supported law")
    return _T_mult(mu_u, lam)


def T_mult_positive(mu_x: SpectralMeasure, lam):
    """Positive-case lifetime log(a/p2) / (a - p2), a = |lam|^2 p0: _T_mult
    on a half-line law.  Vectorized; lam = 0 takes the radial limit
    _T_at_zero.  On the circle |lam|^2 p0 = p2 the value is 1/p2; at an
    atom it is 0."""
    if mu_x.support != "nonneg":
        raise WrongSupportKind("T_mult_positive needs a nonneg-supported law")
    return _T_mult(mu_x, lam)


def _T_at_zero(mu_x: SpectralMeasure) -> float:
    """Limit of the lifetime as lam -> 0: near 0, |lam|^2 p0 tends to
    the mass w0 of an atom at 0 and p2 to the mass b = 1 - w0 off 0, so
    the limit is finite when w0 and b are positive and +inf otherwise."""
    w0 = _atom_mass_at_zero(mu_x)
    b = float(np.sum(mu_x.weights[mu_x.positions != 0]))
    if w0 > 0 and b > 0:  # b = 0: the law is a point mass at 0
        return float(_log_ratio_factor(np.asarray((w0 - b) / b)) / b)
    return np.inf


def _atom_mass_at_zero(mu: SpectralMeasure) -> float:
    if mu.kind != "atomic":
        return 0.0
    return float(np.sum(mu.weights[mu.positions == 0]))


# ---------------------------------------------------------------------------
# push-forward maps and the circle's curvature
# ---------------------------------------------------------------------------


def psi_formula(mu_u: SpectralMeasure, gamma: complex, lam):
    """lam * exp(gamma * J(lam)) with J the half-plane transform of mu_u;
    the exterior evaluation of the unitary push-forward map.  The same
    formula, with J taken against a law on the half-line, is the
    positive-case map f_gamma_formula."""
    arr = np.asarray(lam, dtype=complex)
    return arr * np.exp(gamma * herglotz(mu_u, arr))


f_gamma_formula = psi_formula


def psi_derivative(mu_u: SpectralMeasure, gamma: complex, lam):
    """Derivative of psi_formula (and so of f_gamma_formula): with
    J = 1/2 - lam G, dJ/dlam = -G - lam G'.  Refused where
    cauchy_transform is."""
    arr = np.asarray(lam, dtype=complex)
    g = cauchy_transform(mu_u, arr)
    dj = -g - arr * cauchy_derivative(mu_u, arr)
    return np.exp(gamma * (0.5 - arr * g)) * (1.0 + arr * gamma * dj)


def curvature_check_circle(mu_u: SpectralMeasure, theta: float) -> float:
    """Closed-form second angular derivative of the inverse lifetime along
    the unit circle:

        d^2/dtheta^2 (1/T(e^{i theta}))
            = (1/2) integral (2 + cos(theta - phi)) / (1 - cos(theta - phi))^2 dmu_u,

    strictly positive, so 1/T is strictly convex in the angle between
    atoms.  Refuses evaluation on the support."""
    if mu_u.support != "circle":
        raise WrongSupportKind("curvature check needs a circle-supported law")
    z = np.exp(1j * float(theta))
    if float(np.min(mu_u.min_node_distance(z))) <= mu_u.guard_band:
        raise EvaluationOnSupport(f"theta = {theta:.6g} touches the support")
    # |z - xi|^2 = 2 - 2cos(theta - phi) makes it 6 |z - xi|^-4 - |z - xi|^-2
    return float(6.0 * neg4_trace(mu_u, z) - neg2_trace(mu_u, z))


# ---------------------------------------------------------------------------
# Hamiltonian flow (unitary-case PDE characteristics)
# ---------------------------------------------------------------------------


def _initial_state(mu: SpectralMeasure, lam0: complex, eps0: float):
    """(y, p2): the flow's start y at (lam0, eps0), with p_eps the
    regularized inverse-square integral and p_lam its complex spatial
    gradient, and p2 the same integral weighted by |xi|^2.  BlowUp at time
    0 where p_eps is infinite (eps0 = 0 on an atom).  An eps0 < 0 is taken
    as given: the caller keeps sqrt(-eps0) below the distance to the
    support."""
    pe0, p2 = map(float, neg2_moments(mu, lam0, eps0))
    if np.isinf(pe0):
        raise BlowUp(0.0, "initial momentum already divergent")
    pl0 = complex(reg_cauchy_transform(mu, lam0, eps0))
    return HamiltonStateMult(lam0, eps0, pl0, pe0, 0.0), p2


def _characteristic(start, t: float):
    """(state, t_blow): the characteristic from start = (y, p2) at time t,
    by the closed form of the module docstring, and the time p_eps blows
    up (+inf if never); the state is None when t_blow <= t.
    ContinuationFailed once any number on the way leaves the float range."""
    y, p2 = start
    lam0, pe0 = y.lam, y.p_epsilon
    try:
        phi0, a0 = y.epsilon * pe0, abs(lam0) ** 2 * pe0
        lp0 = lam0 * y.p_lambda
        b = 1.0 - 2.0 * (phi0 + lp0.real)
        w = 0.5 * b + phi0
        m = w + a0  # m + b/2 = p2, which b + Phi0 + A0 would reach by cancelling
        k2 = w * w + phi0 * a0  # b^2/4 - H
        if k2 > 0:
            k = math.sqrt(k2)
            # k - w and k - m, without cancellation where w or m is positive
            kw = phi0 * a0 / (k + w) if w > 0 else k - w
            km = -a0 * p2 / (k + m) if m > 0 else k - m
            t_blow = (math.log1p(-2.0 * k / km) / (2.0 * k) if km < 0
                      else math.inf)
        else:
            kappa = math.sqrt(-k2)
            t_blow = (math.atan2(kappa, m) / kappa if kappa
                      else 1.0 / m if m > 0 else math.inf)
        if t >= t_blow:
            return None, t_blow
        if k2 > 0:  # c = cosh kt, s = sinh(kt)/k, g and f, all times e^{-kt}
            e, scale = math.exp(-2.0 * k * t), k * t
            c, s = 0.5 * (1.0 + e), -0.5 * math.expm1(-2.0 * k * t) / k
            # for 0 < q < 2k, c - q s = (k - q + (k + q) e) / 2k cancels less
            g, f = (0.5 * (kq + (k + q) * e) / k if 0 < q < 2.0 * k
                    else c - q * s for q, kq in ((w, kw), (m, km)))
        else:
            c, s, scale = (math.cos(kappa * t), math.sin(kappa * t) / kappa,
                           0.0) if kappa else (1.0, t, 0.0)
            g, f = c - w * s, c - m * s
        u = math.exp(0.5 * b * t + scale) * g  # lam0 / lam
        ratio = f / g  # Phi / Phi0
        pe = pe0 * math.exp(b * t) / ratio
        phi = phi0 * ratio
        lam = lam0 / u
        pl = (complex(phi0 + lp0.real - phi, lp0.imag) / lam if lam0
              else y.p_lambda * u)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise ContinuationFailed(
            f"the characteristic left the float range before time t: {exc}"
        ) from exc
    if not all(map(math.isfinite, (abs(lam), abs(pl), pe, phi / pe))):
        raise ContinuationFailed(
            "the characteristic left the float range before time t")
    return HamiltonStateMult(lam, phi / pe, pl, pe, t), t_blow


def hamilton_flow_mult(mu_u: SpectralMeasure, lam0, eps0: float,
                       t: float) -> HamiltonStateMult:
    """The characteristic from (lam0, eps0) at time t, in closed form.

    Initial momenta are read off the regularized log potential itself:
    p_eps(0) is the regularized inverse-square integral and p_lam(0) its
    complex spatial gradient.

    Raises BlowUp when p_eps blows up by time t; the exception carries
    the exact blow-up time.  Raises ContinuationFailed when the start's
    constants or the state at t leave the float range, as at |lam0| = 1e200.
    """
    eps0 = float(eps0)
    if eps0 < 0:
        raise ValueError("eps0 must be nonnegative")
    state, t_blow = _characteristic(_initial_state(mu_u, complex(lam0), eps0),
                                    float(t))
    if state is None:
        raise BlowUp(t_blow)
    return state


def _landing(mu: SpectralMeasure, lam, t: float, eps: float):
    """(lam0, eps0, y): the start of the characteristic that lands on
    (lam, eps) at time t, and its state y there.

    Along a characteristic dlam/dt = eps p_eps lam, so arg lam is fixed
    and the start is (r0 e^{i arg lam}, eps0); Newton in (log r0, log eps0)
    with a forward-difference Jacobian, seeded at (|lam|, eps), drives the
    log residuals of |lam(t)| and eps(t) to zero.  Below |lam| = _TINY_MOD
    (lam = 0 included) only eps0 is solved for, from lam0 = 0: |lam|^2
    underflows there; at eps = 0 the characteristic from (lam, 0) keeps
    both, so one evaluation serves.  NegativeEpsilon for eps < 0, BlowUp for
    eps = 0 on an atom, ContinuationFailed when the seed's flow blows up
    or Newton does not converge within _SHOOT_MAX_ITER steps."""
    lam, eps, t = complex(lam), float(eps), float(t)
    if eps < 0:
        raise NegativeEpsilon(f"eps = {eps:.3g}: the flow reference needs eps >= 0")

    def flow(lam0, eps0):
        y = _characteristic(_initial_state(mu, lam0, eps0), t)[0]
        if y is None:
            raise ContinuationFailed("the characteristic blew up before time t")
        return y

    if eps == 0:
        return lam, 0.0, flow(lam, 0.0)
    radius = abs(lam) if abs(lam) >= _TINY_MOD else 0.0
    phase = lam / radius if radius else 1.0
    # plain floats throughout: u is (log r0, log eps0), or log eps0 alone
    target = [math.log(radius), math.log(eps)] if radius else [math.log(eps)]

    def start(u):
        return (phase * math.exp(u[0]) if radius else 0j), math.exp(u[-1])

    def residual(u):
        try:
            y = flow(*start(u))
            got = ([math.log(abs(y.lam))] if radius else []) + [math.log(y.epsilon)]
        except (OverflowError, ValueError) as exc:  # exp overflow, log(<= 0)
            raise ContinuationFailed(
                f"the shooting left the float range: {exc}") from exc
        return [a - b for a, b in zip(got, target)], y

    u = target
    f, y = residual(u)
    for _ in range(_SHOOT_MAX_ITER):
        norm = max(map(abs, f))
        if norm <= _SHOOT_TOL:
            return (*start(u), y)
        cols = []  # the Jacobian's columns, by forward differences
        for j in range(len(u)):
            shifted = list(u)
            shifted[j] += _SHOOT_FD
            cols.append([(a - b) / _SHOOT_FD
                         for a, b in zip(residual(shifted)[0], f)])
        try:  # the Newton step -J^{-1} f of a 1x1 or 2x2 J
            if radius:
                (a, c), (b, d) = cols
                det = a * d - b * c
                step = [(b * f[1] - d * f[0]) / det, (c * f[0] - a * f[1]) / det]
            else:
                step = [-f[0] / cols[0][0]]
        except ZeroDivisionError as exc:
            raise ContinuationFailed("singular shooting Jacobian") from exc
        # halve the step until its flow survives and the residual shrinks
        for _ in range(_SHOOT_HALVINGS):
            trial = [a + b for a, b in zip(u, step)]
            try:
                f_new, y_new = residual(trial)
            except ContinuationFailed:
                f_new = None
            if f_new is not None and max(map(abs, f_new)) < norm:
                break
            step = [0.5 * b for b in step]
        else:
            raise ContinuationFailed("no shooting step reduced the residual")
        u, f, y = trial, f_new, y_new
    raise ContinuationFailed(
        f"shooting did not converge in {_SHOOT_MAX_ITER} Newton steps")


def flow_dSde(mu: SpectralMeasure, lam, t: float, eps) -> float:
    """dS/deps at (t, lam, eps) of the plain (gamma = 0) model x b_t with x
    of law mu: p_eps at time t along the characteristic that lands on
    (lam, eps), found by shooting (_landing) through the closed-form
    flow.  No scipy.  NegativeEpsilon for eps < 0; BlowUp for eps = 0 on
    an atom; ContinuationFailed when the characteristic blows up or the
    shooting does not converge, as it does from lam inside the time-t
    domain at small eps."""
    return _landing(mu, lam, t, eps)[2].p_epsilon


def blow_up_time(mu_u: SpectralMeasure, lam0, eps0: float,
                 t_max: float = 50.0) -> float:
    """Blow-up time of the flow started at (lam0, eps0), +inf if the flow
    survives to t_max."""
    try:
        hamilton_flow_mult(mu_u, lam0, eps0, t_max)
    except BlowUp as b:
        return b.t_detected
    return np.inf


# ---------------------------------------------------------------------------
# positive reference
# ---------------------------------------------------------------------------


def _zero_outside_closed_domain(mu_x: SpectralMeasure, t: float) -> bool:
    """Probe whether 0 stays outside the closed time-t domain: lifetime
    values on shrinking rings around 0 must all be classified outside, and
    so must the radial limit of the lifetime at 0."""
    nonzero = np.abs(mu_x.positions[mu_x.positions != 0])
    r0 = 0.05 * float(np.min(nonzero)) if nonzero.size else 1e-3

    def lifetimes():
        for r in (r0, r0 / 4.0, r0 / 16.0):
            ring = r * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
            yield float(np.min(T_mult_positive(mu_x, ring)))
        yield _T_at_zero(mu_x)

    return all(_band_membership(T, t) is Membership.OUTSIDE for T in lifetimes())


def default_r_max(mu_x: SpectralMeasure) -> float:
    """Outer radius of sigma_boundary_positive's grid when none is given."""
    return 4.0 * (mu_x.support_radius() + 1.0)


def sigma_boundary_positive(mu_x: SpectralMeasure, t: float,
                            r_min: float = 1e-6, r_max: float | None = None,
                            n_r: int = 512, n_theta: int = 512
                            ) -> _region.Boundary:
    """Positive-case domain boundary on a log-polar grid (the domain hugs
    the origin at small t near an atom at 0, so uniform rectangular grids
    resolve it poorly).  The disk of radius r_min is excluded.  The angle
    axis is periodic, so chains crossing the positive axis close exactly.
    exp is conformal, so the chains keep the side T > t on their left: each
    runs clockwise round its piece of the domain."""
    if r_max is None:
        r_max = default_r_max(mu_x)
    bounds = (np.log(r_min), np.log(r_max), 0.0, 2.0 * np.pi)
    grid = _region.evaluate_grid(
        lambda w: T_mult_positive(mu_x, np.exp(w)), bounds, n_r, n_theta)
    raw = _region.extract_levelset(grid, t, wrap_im=True)
    chains = [_region.Chain(np.exp(c.points), c.closed) for c in raw.polylines]
    return _region.Boundary(chains, float(t))
