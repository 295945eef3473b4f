"""Additive-perturbation lifetime machinery.

For a normal reference operator with spectral law mu, perturbed additively
by a freely independent (elliptic) Gaussian family at time t, the domain of
interest is

    Sigma_t = { lam : T(lam) < t },   T(lam) = 1 / integral |xi - lam|^-2 dmu,

with T = 0 where the integral diverges.  Points outside the closure of
Sigma_t are reached by characteristics of the PDE  dS/dt = eps (dS/deps)^2
that start at eps0 = 0, and along those characteristics the closed forms

    eps(t) = eps0 (1 - t p0)^2,      p(t) = p0 / (1 - t p0)

hold, with p0 the regularized inverse-square integral at eps0.  The product
sqrt(eps) p is conserved.  Everything here works with those closed forms;
no ODE stepping is needed on the additive side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (ContinuationFailed, EvaluationOnSupport, InversionFailed,
                     LifetimeExceeded, NegativeEpsilon)
from .measures import (SpectralMeasure, cauchy_derivative, cauchy_transform,
                       neg2_trace, neg4_trace, reg_resolvent,
                       reg_resolvent_deps)

MEMBERSHIP_TOL = 1e-9
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class HamiltonState:
    epsilon: float
    p_epsilon: float
    elapsed: float


class Membership(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Verdict(enum.Enum):
    OUTSIDE_SPECTRUM = "outside-spectrum"
    UNDETERMINED = "undetermined"
    ZERO_ATOM_CASE = "zero-atom-case"  # the positive model at z = 0


def flow_additive(eps0: float, p0: float, t: float) -> HamiltonState:
    """Closed-form characteristic state at time t from (eps0, p0).

    Valid strictly before the lifetime 1/p0; at or past it the flow has
    blown up and LifetimeExceeded is raised.  p0 = 0 freezes the flow.
    """
    if eps0 < 0 or p0 < 0:
        raise ValueError("eps0 and p0 must be nonnegative")
    if p0 > 0 and t >= 1.0 / p0:
        raise LifetimeExceeded(f"t = {t:.6g} is past the lifetime {1.0 / p0:.6g}")
    shrink = 1.0 - t * p0
    return HamiltonState(eps0 * shrink * shrink, p0 / shrink, t)


def T_additive(mu_x: SpectralMeasure, lam):
    """Lifetime of the eps0 -> 0 characteristic at lam: the reciprocal of
    the inverse-square integral, 0 where that integral diverges (IEEE
    1/inf = 0 does the right thing, and the integral is never zero for a
    probability measure); far out, an integral that underflows to 0 gives
    the right limit T = inf."""
    with np.errstate(divide="ignore"):
        return 1.0 / neg2_trace(mu_x, lam)


def _band_membership(T: float, t: float) -> Membership:
    """Classify a lifetime value T against the level t with the relative
    band MEMBERSHIP_TOL; the one band rule of every model's tests."""
    band = MEMBERSHIP_TOL * max(abs(t), 1e-300)
    if T < t - band:
        return Membership.INSIDE
    if T > t + band:
        return Membership.OUTSIDE
    return Membership.BOUNDARY


def spectral_test(mu: SpectralMeasure, lifetime, lam, t: float) -> Verdict:
    """One-sided exclusion test for the spectrum of the perturbed operator,
    shared by every model: lam is certified outside when it keeps clear of
    the reference support (farther than mu.guard_band) and its lifetime
    lifetime(mu, lam) exceeds t beyond the membership band.  Everything
    else is undetermined (the test never certifies membership)."""
    if mu.support_distance(lam) <= mu.guard_band:
        return Verdict.UNDETERMINED
    if _band_membership(float(lifetime(mu, lam)), t) is Membership.OUTSIDE:
        return Verdict.OUTSIDE_SPECTRUM
    return Verdict.UNDETERMINED


def preimage(mu: SpectralMeasure, f, df, lifetime, t: float, z):
    """Preimage of z under a model map f(lam) with derivative df(lam) in
    the exterior of the closed time-t domain, where the map is injective.

    A z that f fixes exactly is its own preimage.  Otherwise capped Newton
    steps follow the path to z from a far point z0 on its ray (the positive
    axis for z = 0), seeded at z0^2 / f(z0): far out, every model map is a
    near rotation-dilation.  None as soon as an accepted point, z itself
    included, has lifetime(mu, lam) <= t; ContinuationFailed when the path
    stalls."""
    z = complex(z)

    def solve(target, cur):
        """Newton on f(lam) = target from cur; None when it fails."""
        for _ in range(40):
            try:
                err = complex(f(cur)) - target
                if abs(err) <= 1e-13 * abs(target):
                    return cur
                d = complex(df(cur))
            except EvaluationOnSupport:
                return None  # the iterate wandered onto the reference support
            if d == 0 or not (np.isfinite(d) and np.isfinite(err)):
                return None
            step = err / d
            # a target at or near 0 may sit below the rounding of f: a
            # step within rounding of the iterate ends the iteration
            if abs(step) <= 1e-15 * abs(cur):
                return cur
            # cap steps so the iterate cannot tunnel across the domain
            cap = 0.5 * abs(cur) + 0.1
            if abs(step) > cap:
                step *= cap / abs(step)
            cur -= step
        return None

    # an overflowing or invalid value fails its Newton step, quietly
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            fixed = complex(f(z)) == z
        except EvaluationOnSupport:
            fixed = False
        if fixed:
            return z if float(lifetime(mu, z)) > t else None
        r0 = max(10.0 * (mu.support_radius() + 1.0), 2.0 * abs(z))
        z0 = z / abs(z) * r0 if z else complex(r0)
        lam = z0 / (complex(f(z0)) / z0)  # z0^2 / f(z0), kept in range
        s, ds = 0.0, 0.25
        while s < 1.0:
            s_next = min(1.0, s + ds)
            # the last target is z itself, not z0 + (z - z0) rounded
            nxt = solve(z0 + s_next * (z - z0) if s_next < 1.0 else z, lam)
            if nxt is None:
                ds *= 0.5
                if ds < 1e-6:
                    raise ContinuationFailed(
                        f"path from {z0:.3g} to {z:.3g} stalled at s = {s:.4g}")
                continue
            lam, s = nxt, s_next
            if float(lifetime(mu, lam)) <= t:
                return None
            if ds < 0.25:
                ds *= 2.0
    return lam


# ---------------------------------------------------------------------------
# analytic extension of the regularized trace across eps = 0
# ---------------------------------------------------------------------------


def _eps_of_eps0(mu_x, lam, t, eps0):
    p = reg_resolvent(mu_x, lam, eps0)
    shrink = 1.0 - t * p
    return eps0 * shrink * shrink, p, shrink


def _eps_slope(mu_x, lam, t, eps0, shrink):
    """d eps / d eps0 of eps0 -> eps0 (1 - t p(eps0))^2, with shrink = 1 - t p;
    the map stays invertible while it is positive."""
    return (shrink * shrink
            - 2.0 * eps0 * t * shrink * reg_resolvent_deps(mu_x, lam, eps0))


def analytic_extension_trace(mu_x: SpectralMeasure, lam, t: float,
                             eps_samples):
    """Values of the analytically extended d S / d eps at time t.

    For lam with lifetime T(lam) > t the map eps0 -> eps0 (1 - t p(eps0))^2
    is invertible near 0 (including a margin of small negative eps0, see
    extension_margin); the extension evaluates p / (1 - t p) at the
    preimage eps0 of each requested eps.  Newton iteration with the
    analytic derivative, seeded at eps0 = eps; InversionFailed after
    _NEWTON_MAX_ITER steps without convergence.

    Returns a float array shaped like eps_samples.
    """
    eps_arr = np.atleast_1d(np.asarray(eps_samples, dtype=float))
    out = np.empty(eps_arr.shape)
    for idx, eps in enumerate(eps_arr):
        if eps == 0.0:  # then eps0 = 0: skip eps0 * shrink^2 (0 * inf at an atom)
            p = reg_resolvent(mu_x, lam, 0.0)
            shrink = 1.0 - t * p
            if shrink <= 0:
                raise InversionFailed(
                    "lam is not outside the closed time-t domain")
            out[idx] = p / shrink
            continue
        eps0 = float(eps)
        ok = False
        for _ in range(_NEWTON_MAX_ITER):
            try:
                f, p, shrink = _eps_of_eps0(mu_x, lam, t, eps0)
            except NegativeEpsilon as exc:
                raise InversionFailed(
                    f"eps = {eps:.3g} is past the invertibility margin") from exc
            if shrink <= 0:
                raise InversionFailed(
                    f"eps = {eps:.3g} drove the Newton iterate into the domain")
            resid = f - eps
            if abs(resid) <= 1e-15 * (abs(eps) + 1e-30) + 1e-300:
                ok = True
                break
            deriv = _eps_slope(mu_x, lam, t, eps0, shrink)
            if deriv <= 0:
                raise InversionFailed("regularization map lost invertibility")
            step = resid / deriv
            eps0 -= step
            if abs(step) <= 1e-16 * (abs(eps0) + 1e-30):
                ok = True
                break
        f, p, shrink = _eps_of_eps0(mu_x, lam, t, eps0)
        if not ok and abs(f - eps) > 1e-10 * (abs(eps) + 1e-12):
            raise InversionFailed(f"Newton did not converge for eps = {eps:.3g}")
        out[idx] = p / shrink
    if np.ndim(eps_samples) == 0:
        return float(out[0])
    return out


def extension_margin(mu_x: SpectralMeasure, lam, t: float) -> float:
    """Half-width delta of the eps interval around 0 on which the extension
    is defined: the image of the largest interval (eps0_min, 0] on which
    eps0 -> eps(t) stays invertible and the integrand stays bounded.
    Located by bisection on the first failure going down from 0."""
    d = float(np.min(mu_x.min_node_distance(lam)))
    floor = -(d * d) * (1.0 - 1e-9)

    def admissible(e0):
        try:
            _, _, shrink = _eps_of_eps0(mu_x, lam, t, e0)
        except NegativeEpsilon:
            return False
        return shrink > 0 and _eps_slope(mu_x, lam, t, e0, shrink) > 0

    if not admissible(0.0):
        return 0.0
    if admissible(floor):
        good = floor
    else:
        bad, good = floor, 0.0
        while good - bad > 1e-14 * abs(floor):
            mid = 0.5 * (bad + good)
            if admissible(mid):
                good = mid
            else:
                bad = mid
    eps_min, _, _ = _eps_of_eps0(mu_x, lam, t, good)
    return abs(eps_min)


# ---------------------------------------------------------------------------
# push-forward map
# ---------------------------------------------------------------------------


def phi_formula(mu_x: SpectralMeasure, gamma: complex, lam):
    """lam + gamma * G(lam): the exterior evaluation of the push-forward
    map, valid up to (and limiting onto) the domain boundary."""
    arr = np.asarray(lam, dtype=complex)
    return arr + gamma * cauchy_transform(mu_x, arr)


def phi_derivative(mu_x: SpectralMeasure, gamma: complex, lam):
    """1 + gamma * G'(lam), the derivative of phi_formula; refused on the
    support, as phi_formula is."""
    return 1.0 + gamma * cauchy_derivative(mu_x, lam)


def laplacian_identity_check(mu_x: SpectralMeasure, lam, h: float = 1e-3):
    """Five-point Laplacian of 1/T against the fourth-order inverse moment.

    Returns (lhs, rhs): lhs is the finite-difference Laplacian of the
    inverse lifetime at lam, rhs the integral of |xi - lam|^-4.  The two
    are proportional with a constant factor; the factor is left to the
    caller to measure, not hard-coded here.
    """
    lam = complex(lam)
    stencil = neg2_trace(mu_x, np.array([lam + h, lam - h,
                                         lam + 1j * h, lam - 1j * h, lam]))
    lhs = (stencil[0] + stencil[1] + stencil[2] + stencil[3]
           - 4.0 * stencil[4]) / (h * h)
    rhs = neg4_trace(mu_x, lam)
    return float(lhs), float(rhs)
