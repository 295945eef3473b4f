"""Matrix ensembles and empirical probes."""

import json

import numpy as np
import pytest

from brownscope import (BadGamma, Boundary, Chain,
                        SpectralMeasure, eigenvalues, empirical_S,
                        empirical_dSde, multiplicities, sample_atomic,
                        sample_b, sample_elliptic,
                        sample_ginibre, sample_haar_unitary,
                        shifted_singular_values, support_report)
from brownscope import cli, rmt


# --- reproducible streams -------------------------------------------------------

def test_ginibre_reproducible_and_stream_separated():
    a = sample_ginibre(50, 1.0, seed=7, stream=0)
    b = sample_ginibre(50, 1.0, seed=7, stream=0)
    assert np.array_equal(a, b)
    c = sample_ginibre(50, 1.0, seed=7, stream=1)
    assert not np.allclose(a, c)
    d = sample_ginibre(50, 1.0, seed=8, stream=0)
    assert not np.allclose(a, d)


def test_ginibre_trace_moments():
    n = 400
    g = sample_ginibre(n, 1.0, seed=3)
    assert abs(np.trace(g @ g.conj().T) / n - 1.0) < 0.05
    assert abs(np.trace(g @ g) / n) < 0.05


def test_haar_unitary():
    u = sample_haar_unitary(100, seed=5)
    err = u @ u.conj().T - np.eye(100)
    assert np.max(np.abs(err)) < 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-9
    assert np.array_equal(u, sample_haar_unitary(100, seed=5))


# --- elliptic family ------------------------------------------------------------

def test_elliptic_hermitian_at_gamma_equals_t():
    g = sample_elliptic(200, 1.0, 1.0, seed=11)
    assert np.max(np.abs(g - g.conj().T)) < 1e-13
    assert np.max(np.abs(np.linalg.eigvals(g).imag)) < 1e-10


def test_elliptic_trace_moments():
    n = 400
    g = sample_elliptic(n, 1.0, 0.5, seed=13)
    assert abs(np.trace(g @ g) / n - 0.5) < 0.05
    assert abs(np.trace(g @ g.conj().T) / n - 1.0) < 0.05
    h = sample_elliptic(n, 1.0, 0.3j, seed=13)
    assert abs(np.trace(h @ h) / n - 0.3j) < 0.05


def test_elliptic_rejects_large_gamma():
    with pytest.raises(BadGamma):
        sample_elliptic(10, 0.5, 0.6, seed=1)


# --- deterministic spectra --------------------------------------------------------

def test_atomic_unitary_exact_multiplicities():
    mu = SpectralMeasure.atomic([1.0, 1j, -1.0, -1j], [0.25] * 4, "circle")
    a = sample_atomic(400, mu.positions, mu.weights, seed=2)
    eig = eigenvalues(a)
    for root in (1.0, 1j, -1.0, -1j):
        assert np.sum(np.abs(eig - root) < 1e-8) == 100


def test_atomic_positive_exact_spectrum():
    mu = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], "nonneg")
    a = sample_atomic(10, mu.positions, mu.weights, seed=9)
    assert np.max(np.abs(a - a.conj().T)) < 1e-13
    eig = np.linalg.eigvalsh(a)
    assert np.sum(np.abs(eig - 1.0) < 1e-10) == 5
    assert np.sum(np.abs(eig - 2.0) < 1e-10) == 5


def test_multiplicities_largest_remainder():
    assert multiplicities([1, 1, 1], 100).tolist() == [34, 33, 33]
    assert multiplicities([0.5, 0.5], 7).tolist() == [4, 3]
    assert multiplicities([2, 1], 10).tolist() == [7, 3]
    assert multiplicities([0.7, 0.2, 0.1], 1000).sum() == 1000


# --- multiplicative products --------------------------------------------------------

def test_sample_b_identity_at_tiny_time():
    b = sample_b(100, 1e-6, 0.0, k=50, seed=4)
    assert np.max(np.abs(b - np.eye(100))) < 1e-2


def test_sample_b_hermitian_increments_stay_near_circle():
    b = sample_b(200, 1.0, 1.0, k=100, seed=6)
    mods = np.abs(eigenvalues(b))
    frac = np.mean((mods > 0.95) & (mods < 1.05))
    assert frac >= 0.95


def test_sample_b_reproducible():
    b1 = sample_b(30, 0.5, 0.25, k=20, seed=12, stream=3)
    b2 = sample_b(30, 0.5, 0.25, k=20, seed=12, stream=3)
    assert np.array_equal(b1, b2)
    b3 = sample_b(30, 0.5, 0.25, k=20, seed=12, stream=4)
    assert not np.allclose(b1, b3)


# --- probes ----------------------------------------------------------------------

def test_empirical_S_closed_values():
    zero = np.zeros((5, 5), dtype=complex)
    assert empirical_S(zero, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert empirical_dSde(zero, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    d = np.diag([1.0 + 0j, 2.0 + 0j])
    assert empirical_S(d, 0.0, 0.0) == pytest.approx(np.log(2.0), abs=1e-12)
    s = shifted_singular_values(d, 0.0)
    assert sorted(s) == pytest.approx([1.0, 2.0])


def test_dSde_matches_finite_difference():
    a = sample_ginibre(50, 1.0, seed=3)
    lam, eps, h = 0.7 + 0.1j, 0.3, 1e-5
    fd = (empirical_S(a, lam, eps + h) - empirical_S(a, lam, eps - h)) / (2 * h)
    assert empirical_dSde(a, lam, eps) == pytest.approx(fd, rel=1e-6)


def test_dSde_decreasing_in_eps():
    a = sample_ginibre(40, 1.0, seed=8)
    eps = np.linspace(0.01, 2.0, 25)
    vals = empirical_dSde(a, 0.3, eps)
    assert vals.shape == eps.shape
    assert np.all(np.diff(vals) < 0)


def test_probe_eps_array_matches_scalars():
    a = sample_ginibre(30, 1.0, seed=10)
    eps = np.array([0.1, 0.5, 1.5])
    sv = empirical_S(a, 1j, eps)
    dv = empirical_dSde(a, 1j, eps)
    for i, e in enumerate(eps):
        assert sv[i] == pytest.approx(empirical_S(a, 1j, float(e)))
        assert dv[i] == pytest.approx(empirical_dSde(a, 1j, float(e)))


# --- reporting --------------------------------------------------------------------

def test_spectrum_json_dict(tmp_path, monkeypatch):
    # the oracle writes each eigenvalue as a [re, im] row of plain floats
    monkeypatch.setattr(rmt, "eigenvalues",
                        lambda a: np.array([1 + 2j, -0.5j]))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": "add-circ", "t": 1.0, "grid": {"nx": 8, "ny": 8},
        "measure": {"kind": "atomic", "support": "real",
                    "atoms": [[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]]},
        "oracle": {"n": 2, "seed": 1, "include_eigenvalues": True}}))
    out = tmp_path / "o.json"
    assert cli.main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["schema"] == "brownscope-oracle/1"
    assert d["eigenvalues"] == [[1.0, 2.0], [0.0, -0.5]]
    assert d["n"] == 2


def _circle(r):
    ang = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    return Boundary([Chain(r * np.exp(1j * ang), True)], 0.0)


def test_support_report_predicates():
    u = sample_haar_unitary(50, seed=1)
    eig = eigenvalues(u)
    assert support_report(eig, boundary=_circle(1.01))["fraction"] == 1.0
    assert support_report(eig, boundary=_circle(0.5))["inside"] == 0


def test_support_report_boundary_dilation():
    u = sample_haar_unitary(50, seed=1)
    eig = eigenvalues(u)
    rep = support_report(eig, dilation=0.02, boundary=_circle(1.0))
    assert rep["fraction"] == 1.0
    assert rep["dilation"] == 0.02
    # the polygon through 512 points of the unit circle lies inside it, so
    # only the dilation takes in the eigenvalues of modulus 1
    assert support_report(eig, boundary=_circle(1.0))["inside"] == 0


# --- sampler draws (SAMPLER_VERSION 3) ------------------------------------------

def test_ginibre_parts_are_uncorrelated_with_variance_t_over_2n():
    # real and imaginary parts are consecutive normals of one stream; the
    # n^2 entries are independent, so the statistics below have CLT
    # standard errors sd / n ~ 0.0035
    n, t = 400, 0.5
    g = np.sqrt(2 * n / t) * sample_ginibre(n, t, seed=21).reshape(-1)
    for stat, expected in ((g.real ** 2, 1.0), (g.imag ** 2, 1.0),
                           (g.real * g.imag, 0.0)):
        se = np.std(stat) / np.sqrt(stat.size)
        assert abs(np.mean(stat) - expected) <= 5.0 * se, expected


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.3j, 0.4 + 0.3j, 1.0])
def test_elliptic_entry_covariances(gamma):
    # each pair i < j is independent of the others, so the pair statistics
    # below have CLT standard errors sd / sqrt(n (n - 1) / 2) ~ 0.0035
    n, t = 400, 1.0
    z = sample_elliptic(n, t, gamma, seed=21)
    upper = np.triu_indices(n, 1)
    zij, zji = np.sqrt(n) * z[upper], np.sqrt(n) * z.T[upper]
    for stat, expected in ((0.5 * (abs(zij) ** 2 + abs(zji) ** 2), t),
                           (zij * zji, gamma),
                           (0.5 * (zij ** 2 + zji ** 2), 0.0)):
        se = np.sqrt(np.var(stat.real) + np.var(stat.imag)) / np.sqrt(stat.size)
        assert abs(np.mean(stat) - expected) <= 5.0 * se, expected


@pytest.mark.parametrize("k", [1, 3])
def test_sample_b_is_the_product_of_its_factors(k):
    from brownscope.rmt import _STREAM_STRIDE
    n, t, gamma, seed, stream = 30, 0.5, 0.2 - 0.1j, 12, 3
    expected = np.eye(n, dtype=complex)
    for j in range(k):
        z = sample_elliptic(n, t, gamma, seed, stream * _STREAM_STRIDE + j + 1)
        expected = expected @ (np.eye(n) + 1j / np.sqrt(k) * z
                               - gamma / (2 * k) * np.eye(n))
    b = sample_b(n, t, gamma, k=k, seed=seed, stream=stream)
    assert np.max(np.abs(b - expected)) <= 1e-14


# --- the in-place product sampler ------------------------------------------------

def _serial_b(n, t, gamma, k, seed, stream):
    """sample_b as one thread computes it from sample_elliptic factors."""
    from brownscope.rmt import _STREAM_STRIDE
    scale, shift = 1j / np.sqrt(k), 1.0 - gamma / (2.0 * k)
    for j in range(k):
        factor = sample_elliptic(n, t, gamma, seed, stream * _STREAM_STRIDE + j + 1)
        factor *= scale
        factor.flat[:: n + 1] += shift
        out = factor if j == 0 else out @ factor
    return out


@pytest.mark.parametrize("n", [1, 2, 30])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.2 - 0.1j])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_sample_b_is_the_serial_product_byte_for_byte(n, gamma, k):
    b = sample_b(n, 0.5, gamma, k=k, seed=12, stream=3)
    expected = _serial_b(n, 0.5, gamma, k, seed=12, stream=3)
    assert b.dtype == expected.dtype and b.shape == expected.shape
    assert b.tobytes() == expected.tobytes()


# sha256 of the samplers' output bytes under SAMPLER_VERSION 3, which an
# allocating reference gives too: the normals drawn as a new array, its
# even entries times the scale as real parts and its odd ones as
# imaginary parts, a G + (b conj(G))^T, and the factors formed and
# multiplied as new arrays (numpy 2.4, OpenBLAS, x86-64).  The
# one-element cases take numpy's other in-place loop
_SAMPLER_DIGESTS = {
    "ginibre": (lambda: sample_ginibre(30, 0.5, seed=7, stream=3),
                "4f5c17308e3e1091afdcac1e025633325acebdda02e5479061bb4a8bfbc8ce6e"),
    "ginibre-n1": (lambda: sample_ginibre(1, 0.5, seed=7, stream=3),
                   "c5b9be616133a1bc02c9126452421731f742958660c3092e6713f9c3be6b1bcc"),
    "elliptic-0": (lambda: sample_elliptic(30, 1.0, 0.0, seed=7, stream=5),
                   "0a1b050c599af58bf03f6dd5c38789da08f0941923f18653154dbc3bfd718385"),
    "elliptic-t": (lambda: sample_elliptic(30, 1.0, 1.0, seed=7, stream=5),
                   "7629767cd9cde49f9f9543209bb86e8bfe292f88f0cc303158c2c8fe0456b443"),
    "elliptic-complex": (
        lambda: sample_elliptic(30, 1.0, 0.2 - 0.1j, seed=7, stream=5),
        "76807eb6db9e8fd586956a1c14c3a79f8333dfc6f2293699eb9158f909f73820"),
    "elliptic-complex-n1": (
        lambda: sample_elliptic(1, 1.0, 0.2 - 0.1j, seed=7, stream=5),
        "f99a4d3bafa71bc2d97fe1dfe9e41f305dd212377459f3e3132815f8f30376d7"),
    "b-complex-k7": (
        lambda: sample_b(30, 0.5, 0.2 - 0.1j, k=7, seed=12, stream=3),
        "b55c91fe5d95ae920b3159b6b2a3ce370884378cb970190893c73d6f59d79a98"),
    "b-complex-n1": (
        lambda: sample_b(1, 0.5, 0.2 - 0.1j, k=3, seed=12, stream=3),
        "35badf5570fa7bd70d6175222491c59368e82d83cbd04aaea2013444b6cb5568"),
    "b-0-k3": (lambda: sample_b(30, 0.5, 0.0, k=3, seed=12, stream=3),
               "ae45d5a788a190f6d5718ff8ebbde5422b372144dd1e54612adb09ca98dbefdc"),
    "b-oracle-gamma": (
        lambda: sample_b(100, 1.0, complex(0.0, -0.5), k=20, seed=7, stream=1),
        "ac54df4372c0cfbb84af27703611152b3741c17a6bd0937c407c24e41c48c183"),
}


@pytest.mark.parametrize("name", sorted(_SAMPLER_DIGESTS))
def test_sampler_bytes_are_pinned(name):
    import hashlib
    draw, digest = _SAMPLER_DIGESTS[name]
    assert hashlib.sha256(draw().tobytes()).hexdigest() == digest


def _peak_buffers(run, n):
    """Peak memory that Python and numpy allocate in run(), after one
    warm-up call, in n x n complex matrices."""
    import tracemalloc
    tracemalloc.start()
    try:
        run()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (16 * n * n)


def test_sample_b_holds_three_matrices():
    # two products and one factor, each draw's scratch being the product
    # buffer that is free (3.20 here; 5.22 with a draw-ahead helper thread)
    assert _peak_buffers(lambda: sample_b(200, 1.0, -0.5j, k=9), 200) <= 3.5


def test_mult_oracle_holds_no_more_than_sample_b(tmp_path):
    # the oracle scales sample_b's product by the atoms' diagonal in place
    # and draws no Haar matrix, so its peak is sample_b's three matrices
    # (3.24 here; 4.24 with a Haar-conjugated atomic matrix drawn before
    # sample_b, 5.30 with it drawn after sample_b returns)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "model": "mult-unitary", "t": 1.0, "gamma": [0.0, -0.5],
        "measure": {"kind": "atomic", "support": "circle",
                    "atoms": [[1.0, 0.0, 0.25], [-1.0, 0.0, 0.25],
                              [0.0, 1.0, 0.25], [0.0, -1.0, 0.25]]},
        "grid": {"nx": 32, "ny": 32}, "oracle": {"n": 200, "k": 9, "seed": 7}}))
    argv = ["oracle", "--config", str(cfg), "--out", str(tmp_path / "o.json")]

    def run():
        assert cli.main(argv) == 0

    assert _peak_buffers(run, 200) <= 3.4


# --- the oracle's diagonal matrices ------------------------------------------------

def _similar_pair(model, n=60, seed=3):
    """The model's matrix on X = V D V*, and its conjugate V* (.) V: the
    matrix the oracle builds on the diagonal D, with the perturbation
    conjugated by V, which leaves its law as it is."""
    pos, weights = [1.0, -1.0, 0.5j, 2.0], [0.4, 0.3, 0.2, 0.1]
    d = np.repeat(np.asarray(pos, dtype=complex), multiplicities(weights, n))
    x = sample_atomic(n, pos, weights, seed, stream=0)
    v = sample_haar_unitary(n, seed, stream=0)
    vh = v.conj().T
    if model == "mult":
        b = sample_b(n, 1.0, -0.5j, k=6, seed=seed, stream=1)
        return x @ b, d[:, None] * (vh @ b @ v)
    if model == "add":
        e = sample_elliptic(n, 1.0, 0.3 + 0.1j, seed, stream=1)
        return x + e, np.diag(d) + vh @ e @ v
    u1 = sample_haar_unitary(n, seed, stream=1)
    g = sample_ginibre(n, 0.5, seed, stream=2)
    return u1 @ x + g, (vh @ u1 @ v) * d[None, :] + vh @ g @ v


@pytest.mark.parametrize("model", ["mult", "add", "rdiag"])
def test_the_diagonal_form_is_unitarily_similar(model):
    conjugated, diagonal = _similar_pair(model)
    assert np.max(np.abs(np.sort_complex(eigenvalues(conjugated))
                         - np.sort_complex(eigenvalues(diagonal)))) <= 1e-10
    for lam in (0.0, 0.3 + 0.2j, 2.5):
        assert np.max(np.abs(shifted_singular_values(conjugated, lam)
                             - shifted_singular_values(diagonal, lam))) <= 1e-10


def test_support_report_blocks_equal_the_unblocked_rule(monkeypatch):
    from brownscope.region import distance_to_boundary, point_in_region
    rng = np.random.default_rng(17)
    eig = 1.2 * (rng.standard_normal(333) + 1j * rng.standard_normal(333))
    eig[::50] = 0.1j  # inside, and in every block
    ang = np.linspace(0, 2 * np.pi, 97, endpoint=False)
    boundary = Boundary([Chain((1.0 + 0.3 * np.cos(3 * ang)) * np.exp(1j * ang),
                               True)], 0.0)
    sizes = []

    def recorded(b, z):
        sizes.append(len(z))
        return point_in_region(b, z)

    monkeypatch.setattr(rmt, "point_in_region", recorded)
    for dilation in (0.0, 0.1):
        rep = support_report(eig, boundary=boundary, dilation=dilation)
        inside = point_in_region(boundary, eig)
        if dilation:
            inside |= distance_to_boundary(boundary, eig) <= dilation
        assert rep["inside"] == np.count_nonzero(inside)
        assert rep["fraction"] == np.count_nonzero(inside) / len(eig)
    assert max(sizes) == rmt._REPORT_ROWS and sum(sizes) == 2 * len(eig)


@pytest.mark.parametrize("lam", [0.0, -0.0, 1.5, -0.3 + 0.7j, 2j, complex(-0.0, 1e-300)])
def test_shifted_singular_values_match_the_identity_form(lam):
    a = sample_b(40, 1.0, 0.3j, k=4, seed=9)
    expected = np.linalg.svd(a - complex(lam) * np.eye(40, dtype=complex),
                             compute_uv=False)
    assert shifted_singular_values(a, lam).tobytes() == expected.tobytes()
