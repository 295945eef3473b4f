"""Finite-N matrix ensembles used to cross-check the analytic predictions.

Randomness is counter-based: every matrix draw owns a Philox generator
keyed by (seed, stream), so draws are reproducible independently of the
order in which they happen.  Helper streams derived from a base stream
use disjoint high bits, keeping parallel factor draws collision-free.

Normalizations.  The time-t rotation-invariant (Ginibre) family has entry
variance t/n, so its empirical spectrum fills the disk of radius sqrt(t).
The elliptic family with second mixed moment gamma is a G + b G^* with G
that family at t = 1 and a, b = (sqrt(t + |gamma|) +- sqrt(t - |gamma|))
e^{i arg(gamma)/2} / 2, so that |a|^2 + |b|^2 = t and 2ab = gamma.  The
time-t multiplicative family is approximated by the ordered product of k
left factors

    I + i G_j / sqrt(k) - (gamma / (2k)) I,      G_j elliptic(t, gamma) draws

with k = 200 by default.  These are the draws of SAMPLER_VERSION 2; under
version 1 a (seed, stream) key gave other elliptic matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import _check_gamma
from .region import Boundary, distance_to_boundary, point_in_region

SAMPLER_VERSION = 2
_DEFAULT_K = 200
_STREAM_STRIDE = 1 << 20


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_ginibre(n: int, t: float, seed: int, stream: int = 0) -> np.ndarray:
    """Rotation-invariant Gaussian matrix with entry variance t/n."""
    rng = _rng(seed, stream)
    scale = np.sqrt(t / (2.0 * n))
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def sample_elliptic(n: int, t: float, gamma: complex, seed: int,
                    stream: int = 0) -> np.ndarray:
    """Elliptic Gaussian matrix: trace of the square tends to gamma, trace
    of the square modulus to t.  gamma = 0 is the rotation-invariant case,
    gamma = t the Hermitian one."""
    gamma = complex(gamma)
    _check_gamma(t, gamma)
    g = sample_ginibre(n, 1.0, seed, stream)
    plus, minus = np.sqrt(t + abs(gamma)), np.sqrt(max(t - abs(gamma), 0.0))
    phase = 0.5 * np.exp(0.5j * np.angle(gamma))
    z = ((plus + minus) * phase) * g
    if plus != minus:  # gamma = 0 needs no G^* pass
        z += ((plus - minus) * phase) * g.conj().T
    return z


def sample_haar_unitary(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix with the phase
    normalization that makes the factorization unique."""
    rng = _rng(seed, stream)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def multiplicities(weights, n: int) -> np.ndarray:
    """Largest-remainder apportionment of n slots to the given weights."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    raw = w * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def sample_atomic(n: int, positions, weights, seed: int,
                  stream: int = 0) -> np.ndarray:
    """Deterministic-spectrum normal matrix: a diagonal of the atoms (with
    largest-remainder multiplicities) conjugated by a Haar unitary."""
    pos = np.asarray(positions, dtype=complex)
    counts = multiplicities(weights, n)
    diag = np.repeat(pos, counts)
    u = sample_haar_unitary(n, seed, stream)
    return (u * diag[None, :]) @ u.conj().T


def sample_b(n: int, t: float, gamma: complex, k: int = _DEFAULT_K,
             seed: int = 0, stream: int = 0) -> np.ndarray:
    """Multiplicative Gaussian family at time t, product approximation
    with k factors.  Factor j draws its elliptic increment from the
    derived stream, so the draw set is independent of evaluation order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scale = 1j / np.sqrt(k)
    shift = 1.0 - gamma / (2.0 * k)
    for j in range(k):
        factor = sample_elliptic(n, t, gamma, seed, stream * _STREAM_STRIDE + j + 1)
        factor *= scale
        factor.flat[:: n + 1] += shift
        out = factor if j == 0 else out @ factor
    return out


# ---------------------------------------------------------------------------
# empirical probes
# ---------------------------------------------------------------------------


def shifted_singular_values(a: np.ndarray, lam: complex) -> np.ndarray:
    n = a.shape[0]
    return np.linalg.svd(a - complex(lam) * np.eye(n, dtype=complex),
                         compute_uv=False)


def _svd_probe(f, a: np.ndarray, lam: complex, eps) -> float | np.ndarray:
    """Mean of f(s_i^2 + eps) over the singular values s_i of a - lam, from
    one decomposition for every value of eps."""
    s2 = shifted_singular_values(a, lam) ** 2
    eps_arr = np.asarray(eps, dtype=float)
    vals = np.mean(f(s2[None, :] + eps_arr.reshape(-1, 1)), axis=1)
    return float(vals[0]) if eps_arr.ndim == 0 else vals.reshape(eps_arr.shape)


def empirical_S(a: np.ndarray, lam: complex, eps) -> float | np.ndarray:
    """Normalized log determinant probe: mean of log(s_i^2 + eps) over the
    singular values of a - lam.  eps may be an array (one decomposition is
    reused for all values)."""
    return _svd_probe(np.log, a, lam, eps)


def empirical_dSde(a: np.ndarray, lam: complex, eps) -> float | np.ndarray:
    """Normalized resolvent-trace probe: mean of 1/(s_i^2 + eps)."""
    return _svd_probe(np.reciprocal, a, lam, eps)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(a)


def support_report(eig: np.ndarray, boundary: Boundary,
                   dilation: float = 0.0) -> dict:
    """Fraction of the eigenvalues eig inside the region of a boundary
    polyline (the even-odd test), dilated by counting every eigenvalue
    within `dilation` of the polyline as inside."""
    inside = point_in_region(boundary, eig)
    if dilation > 0.0:
        inside = inside | (distance_to_boundary(boundary, eig) <= dilation)
    frac = float(np.count_nonzero(inside)) / len(eig)
    return {
        "n": int(len(eig)),
        "inside": int(np.count_nonzero(inside)),
        "fraction": frac,
        "dilation": float(dilation),
    }
