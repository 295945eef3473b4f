"""Finite-N matrix ensembles used to cross-check the analytic predictions.

Randomness is keyed: every matrix draw owns an SFC64 generator seeded by
SeedSequence from (seed, stream), each mod 2^64, so draws are reproducible
independently of the order in which they happen.  Factor j of sample_b's
stream s is keyed s * 2^20 + j + 1, which differs from every base stream
the CLI draws from (1 and 2) as long as s = 1 and k <= 2^16.

Normalizations.  The time-t rotation-invariant (Ginibre) family has entry
variance t/n, so its empirical spectrum fills the disk of radius sqrt(t).
The elliptic family with second mixed moment gamma is a G + b G^* with G
that family at t = 1 and a, b = (sqrt(t + |gamma|) +- sqrt(t - |gamma|))
e^{i arg(gamma)/2} / 2, so that |a|^2 + |b|^2 = t and 2ab = gamma.  The
time-t multiplicative family is approximated by the ordered product of k
left factors

    I + i G_j / sqrt(k) - (gamma / (2k)) I,      G_j elliptic(t, gamma) draws

with k = 200 by default.  These are the draws of SAMPLER_VERSION 3;
version 2 drew them from Philox, a Ginibre matrix's real parts before its
imaginary parts, and version 1 formed other elliptic matrices.

A Ginibre draw writes its 2 n^2 normals into the float view of the
output, real and imaginary parts interleaved, and scales them once in
place; an elliptic draw then forms b conj(G) in one scratch matrix.
sample_b draws each factor into a buffer that the product no longer
needs, so a call holds three n x n complex matrices: two products that
take turns and one factor (9.6 MB at n = 400).

The oracle needs no Haar conjugation.  Ginibre, elliptic and sample_b
draws E are unitarily invariant (V* E V has the law of E), so for
X = V D V* with V independent of E, X + E = V (D + V* E V) V* and
X E = V (D V* E V) V* have the eigenvalue and singular-value laws of
D + E and D E.  rdiag's U X + G, U Haar, is likewise similar to
(V* U V) D + V* G V, and V* U V is Haar.
"""

from __future__ import annotations

import numpy as np

from .errors import _check_gamma
from .region import Boundary, distance_to_boundary, point_in_region

SAMPLER_VERSION = 3
_DEFAULT_K = 200
_STREAM_STRIDE = 1 << 20
# Eigenvalues per block of support_report's region tests.
_REPORT_ROWS = 64


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    # seed and stream mod 2^64 as four fixed-width words, so that no two
    # keys give one entropy list
    words = [(v >> s) & 0xFFFFFFFF for v in (seed, stream) for s in (0, 32)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def _fill_ginibre(out, t: float, seed: int, stream: int) -> None:
    """Write the (seed, stream) Ginibre draw of entry variance t/n into the
    square C-contiguous complex array out: the key's 2 n^2 normals fill
    its float view, real and imaginary parts interleaved, and are scaled
    by sqrt(t / 2n) in place."""
    normals = out.reshape(-1).view(np.float64)
    _rng(seed, stream).standard_normal(out=normals)
    normals *= np.sqrt(t / (2.0 * out.shape[0]))


def _elliptic_coefficients(t: float, gamma: complex):
    """(a, b) with z = a G + b G^*; b is None at gamma = 0."""
    gamma = complex(gamma)
    _check_gamma(t, gamma)
    plus, minus = np.sqrt(t + abs(gamma)), np.sqrt(max(t - abs(gamma), 0.0))
    phase = 0.5 * np.exp(0.5j * np.angle(gamma))
    if plus == minus:  # gamma = 0 needs no G^* pass
        return (plus + minus) * phase, None
    return (plus + minus) * phase, (plus - minus) * phase


def _scale(c, x: np.ndarray) -> None:
    """x = c * x in place, rounded as c * x into a new array is.  numpy
    multiplies a one-element array into itself on another loop, whose
    complex product can differ in the last bit."""
    if x.size == 1:
        x[...] = c * x
    else:
        np.multiply(c, x, out=x)


def _fill_elliptic(out, scratch, coef, seed: int, stream: int) -> None:
    """Write a G + b G^* into out, G the t = 1 Ginibre draw of the key;
    scratch, an array like out, takes b conj(G) until it is added
    transposed."""
    _fill_ginibre(out, 1.0, seed, stream)
    a, b = coef
    if b is not None:
        np.conjugate(out, out=scratch)
        _scale(b, scratch)
    _scale(a, out)
    if b is not None:
        np.add(out, scratch.T, out=out)


def sample_ginibre(n: int, t: float, seed: int, stream: int = 0) -> np.ndarray:
    """Rotation-invariant Gaussian matrix with entry variance t/n."""
    out = np.empty((n, n), dtype=complex)
    _fill_ginibre(out, t, seed, stream)
    return out


def sample_elliptic(n: int, t: float, gamma: complex, seed: int,
                    stream: int = 0) -> np.ndarray:
    """Elliptic Gaussian matrix: trace of the square tends to gamma, trace
    of the square modulus to t.  gamma = 0 is the rotation-invariant case,
    gamma = t the Hermitian one."""
    coef = _elliptic_coefficients(t, gamma)
    out = np.empty((n, n), dtype=complex)
    _fill_elliptic(out, np.empty_like(out), coef, seed, stream)
    return out


def sample_haar_unitary(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unitary via QR of a Gaussian matrix with the phase
    normalization that makes the factorization unique.  The Gaussian is
    the key's Ginibre draw at t = 2n, whose scale sqrt(t / 2n) is exactly
    1."""
    a = np.empty((n, n), dtype=complex)
    _fill_ginibre(a, 2.0 * n, seed, stream)
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
    derived stream, so the draw set is independent of evaluation order.

    Factor 0 is drawn where the product starts and every later one into
    one factor buffer.  Each elliptic draw's scratch is spare, the product
    buffer that is free until it receives out @ factor."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scale = 1j / np.sqrt(k)
    shift = 1.0 - gamma / (2.0 * k)
    coef = _elliptic_coefficients(t, gamma)
    out = np.empty((n, n), dtype=complex)
    spare = np.empty_like(out)
    factor = np.empty_like(out) if k > 1 else None
    for j in range(k):
        dest = factor if j else out
        _fill_elliptic(dest, spare, coef, seed, stream * _STREAM_STRIDE + j + 1)
        dest *= scale
        dest.flat[:: n + 1] += shift
        if j:
            out, spare = np.matmul(out, factor, out=spare), out
    return out


# ---------------------------------------------------------------------------
# empirical probes
# ---------------------------------------------------------------------------


def shifted_singular_values(a: np.ndarray, lam: complex) -> np.ndarray:
    """Singular values of a - lam I.  lam is subtracted on the diagonal of
    a copy, which gives the bits of a - lam * eye(n): off the diagonal,
    that form subtracts a zero."""
    shifted = np.array(a, dtype=complex)
    shifted.flat[:: shifted.shape[0] + 1] -= complex(lam)
    return np.linalg.svd(shifted, compute_uv=False)


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
    within `dilation` of the polyline as inside.  Eigenvalues are tested
    _REPORT_ROWS at a time, which bounds the (eigenvalues x segments)
    temporaries of both tests."""
    eig = np.asarray(eig)
    inside = np.empty(len(eig), dtype=bool)
    for lo in range(0, len(eig), _REPORT_ROWS):
        block = eig[lo : lo + _REPORT_ROWS]
        hit = point_in_region(boundary, block)
        if dilation > 0.0:
            hit |= distance_to_boundary(boundary, block) <= dilation
        inside[lo : lo + _REPORT_ROWS] = hit
    frac = float(np.count_nonzero(inside)) / len(eig)
    return {
        "n": int(len(eig)),
        "inside": int(np.count_nonzero(inside)),
        "fraction": frac,
        "dilation": float(dilation),
    }
