"""Annulus laws for rotation-invariant products and their additive
perturbations.

For a product of a free Haar unitary with a positive element of law mu_h,
the spectrum fills the disk of radius sqrt(m2) while the eigenvalue
distribution charges only the annulus

    inner = 1 / sqrt(integral xi^-2 dmu_h),   outer = sqrt(integral xi^2 dmu_h)

(inner radius 0 when the inverse second moment diverges).  Adding a free
circular perturbation at time t moves the inner radius to

    sqrt(1 / integral xi^-2 dmu_h  -  t),

until t reaches that inverse second moment's reciprocal, and 0 from then
on: the hole has closed (Haagerup and Larsen: the inner radius of an
R-diagonal T is ||T^-1||_2^-1, which is 0 once T^-1 is not in L^2).

The half-plane support machinery: for the symmetrized law mu of |x|, the
constraint function

    v_t(x) = min { y >= 0 : integral dmu(xi) / ((x - xi)^2 + y^2) <= 1/t }

cuts out the region above the graph where the time-t subordination map

    H_t(z) = z + t G_mu(z)

is injective; the boundary values of H_t carry the symmetrized perturbed
law, which is recovered numerically by Stieltjes inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .additive import phi_derivative, phi_formula
from .errors import InversionFailed, OutsideOmega, WrongSupportKind
from .measures import (SpectralMeasure, cauchy_transform, reg_resolvent,
                       symmetrize, _trapezoid_weights)

_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class AnnulusSpec:
    inner: float
    outer: float

    def __post_init__(self):
        if self.inner < 0 or self.outer < 0 or self.inner > self.outer + 1e-15:
            raise ValueError(f"bad annulus radii ({self.inner}, {self.outer})")

    def contains_modulus(self, r: float, slack: float = 0.0) -> bool:
        return self.inner * (1 - slack) <= r <= self.outer * (1 + slack)


def _moment(mu: SpectralMeasure, power: float) -> float:
    """Integral of xi^power; +inf when a negative power meets mass at 0."""
    x = np.maximum(mu.positions.real, 0.0)
    w = mu.prob_weights
    m = w > 0
    with np.errstate(divide="ignore"):
        vals = x[m] ** power
    return float(np.sum(vals * w[m]))


def hl_radii(mu_h: SpectralMeasure) -> AnnulusSpec:
    """Brown-support annulus radii for the Haar-unitary times positive
    product.  The inner radius is 0 when the inverse second moment
    diverges (an atom at 0, for instance)."""
    if mu_h.support != "nonneg":
        raise WrongSupportKind("hl_radii needs a nonneg-supported law")
    m2 = _moment(mu_h, 2.0)
    m_neg2 = _moment(mu_h, -2.0)
    outer = float(np.sqrt(m2))
    inner = 0.0 if np.isinf(m_neg2) else float(1.0 / np.sqrt(m_neg2))
    return AnnulusSpec(inner, outer)


def circ_inner_radius(mu_h: SpectralMeasure, t: float) -> float:
    """Inner Brown radius of the product after time-t circular addition:
    sqrt(max(1/m - t, 0)) with m the inverse second moment of mu_h, and
    1/m = 0 where m diverges.  t = 0 reproduces the unperturbed inner
    radius; from t = 1/m on the hole has closed and the radius is 0."""
    if mu_h.support != "nonneg":
        raise WrongSupportKind("circ_inner_radius needs a nonneg-supported law")
    if t < 0:
        raise ValueError("t must be nonnegative")
    cap = 1.0 / _moment(mu_h, -2.0)  # a float: 1/inf is 0
    return float(np.sqrt(max(cap - t, 0.0)))


def vt(mu_sym: SpectralMeasure, t: float, x: float) -> float:
    """Constraint function of the subordination region at abscissa x:
    the smallest y >= 0 with  integral dmu / ((x - xi)^2 + y^2) <= 1/t.
    Zero exactly when the y = 0 value already satisfies the bound; found
    by bisection otherwise (the integrand is strictly decreasing in y)."""
    if mu_sym.support != "real":
        raise WrongSupportKind("vt needs a real-supported symmetrized law")
    if not t > 0:
        raise ValueError("t must be positive")
    def g(y):
        return float(reg_resolvent(mu_sym, x, y * y))

    target = 1.0 / t
    if g(0.0) <= target:
        return 0.0
    diam = float(np.ptp(mu_sym.positions.real))
    hi = np.sqrt(t) * (1.0 + diam)
    lo = 0.0
    # g(hi) <= 1/hi^2 < 1/t by construction
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def biane_Ht(mu_sym: SpectralMeasure, t: float, z: complex) -> complex:
    """Subordination map H_t(z) = z + t G(z) on the open region above the
    constraint graph, the additive map phi_formula at gamma = t; refused
    below or on the graph."""
    z = complex(z)
    if z.imag <= vt(mu_sym, t, z.real):
        raise OutsideOmega(f"z = {z} is not above the constraint graph")
    return complex(phi_formula(mu_sym, t, z))


def stieltjes_invert(G, x_grid, y: float) -> SpectralMeasure:
    """Recover a real-line density from boundary values of a Cauchy
    transform:  density(x) ~ -Im G(x + i y) / pi  at small y > 0.

    G may be a callable or a precomputed array matching x_grid.  The
    result is wrapped as a density measure on x_grid (trapezoid weights,
    renormalized; tiny negative excursions are clipped)."""
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("x_grid must be a 1-d grid with at least 2 nodes")
    if callable(G):
        samples = np.asarray([complex(G(complex(xi, y))) for xi in x])
    else:
        samples = np.asarray(G, dtype=complex)
        if samples.shape != x.shape:
            raise ValueError("precomputed G samples must match x_grid")
    dens = np.clip(-samples.imag / np.pi, 0.0, None)
    return SpectralMeasure("real", x.astype(complex), dens, _trapezoid_weights(x))


def perturbed_symmetrized_law(mu_h: SpectralMeasure, t: float, x_grid,
                              y: float = 1e-3) -> SpectralMeasure:
    """Law of the symmetrized modulus of the time-t circular perturbation
    of a positive element: push boundary values of the subordination map
    through Stieltjes inversion.

    For each grid point u the preimage z with H_t(z) = u + iy is found by
    Newton started just above the constraint graph; G of the perturbed law
    at u + iy equals G_mu at that preimage (subordination relation).
    """
    mu_sym = symmetrize(mu_h)
    x = np.asarray(x_grid, dtype=float)
    samples = np.empty(x.shape, dtype=complex)
    z = None
    for idx, u in enumerate(x):
        target = complex(u, y)
        if z is None:
            z = complex(u, max(vt(mu_sym, t, u), y) + np.sqrt(t))
        z = _invert_Ht(mu_sym, t, target, z)
        samples[idx] = cauchy_transform(mu_sym, z)
    return stieltjes_invert(samples, x, y)


def _invert_Ht(mu_sym, t, target, z0):
    """Newton solve of H_t(z) = target in the upper region, warm-started
    from the previous preimage; InversionFailed after 80 steps or where
    the derivative vanishes."""
    z = complex(z0)
    floor = 1e-12
    for _ in range(80):
        f = complex(phi_formula(mu_sym, t, z)) - target
        if abs(f) <= 1e-13 * (1.0 + abs(target)):
            return z
        d = complex(phi_derivative(mu_sym, t, z))
        if d == 0:
            raise InversionFailed(f"H_t has a vanishing derivative at {z:.6g}")
        step = f / d
        cand = z - step
        while cand.imag <= floor:
            step *= 0.5
            cand = z - step
            if abs(step) < 1e-300:
                break
        z = cand
    raise InversionFailed(f"Newton did not converge for H_t(z) = {target:.6g}")
