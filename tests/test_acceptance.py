"""Acceptance suite: one test per criterion, ordered.

Each test prints a single summary line with the measured quantities before
asserting, so a -s / -rA run reads as a checklist.  Tolerances are pinned
in the assertions themselves.
"""

import numpy as np
import pytest

from brownscope import (SpectralMeasure, T_additive, T_mult_unitary,
                        analytic_extension_trace, blow_up_time,
                        cauchy_transform, curvature_check_circle, eigenvalues,
                        empirical_dSde, evaluate_grid,
                        extract_levelset, flow_additive,
                        laplacian_identity_check, map_boundary, phi_formula,
                        psi_formula, sample_atomic, sample_b, sample_ginibre,
                        sample_haar_unitary, stieltjes_invert, support_report)

BERN = SpectralMeasure.atomic([-1.0, 1.0], [0.5, 0.5], support="real")
DELTA1_U = SpectralMeasure.atomic([1.0], [1.0], support="circle")
ROOTS4 = SpectralMeasure.atomic([1.0, 1j, -1.0, -1j], [0.25] * 4,
                                support="circle")
TWO_ATOMS = SpectralMeasure.atomic([1.0, 2.0], [0.5, 0.5], support="nonneg")


def _domain(mu, lifetime, t, bounds, nx, ny):
    """The T = t level set of lifetime(mu, .) on an nx-by-ny grid, as the
    CLI extracts it."""
    grid = evaluate_grid(lambda z: lifetime(mu, z), bounds, nx, ny,
                         conj_symmetric=mu.on_real_line)
    return extract_levelset(grid, t)


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_c01_closed_form_lifetimes():
    errs_add = [abs(T_additive(BERN, 0.0) - 1.0),
                abs(T_additive(BERN, 2.0) - 9.0 / 5),
                abs(T_additive(BERN, 1j) - 2.0)]
    lam = np.exp(2.0j)
    errs_mult = [abs(T_mult_unitary(DELTA1_U, -1.0) - 4.0),
                 abs(T_mult_unitary(DELTA1_U, lam) - abs(lam - 1) ** 2)]
    ok = max(errs_add) <= 1e-12 and max(errs_mult) <= 1e-10
    _report(1, ok, f"additive errs {max(errs_add):.2e}, "
                   f"unit-modulus errs {max(errs_mult):.2e}")


def test_c02_zero_matrix_domain_is_disk():
    mu0 = SpectralMeasure.atomic([0.0], [1.0], support="real")
    b = _domain(mu0, T_additive, 1.0, (-2, 2, -2, 2), 512, 512)
    pts = np.concatenate([c.points for c in b.polylines])
    dev = float(np.max(np.abs(np.abs(pts) - 1.0)))
    cell = 4.0 / 512

    n = 1000
    g = sample_ginibre(n, 1.0, seed=17)
    moduli = np.abs(eigenvalues(g))
    dil = 3.0 / np.sqrt(n)
    frac = float(np.mean(moduli <= 1.0 + dil))
    ok = dev < 2 * cell and frac >= 0.99
    _report(2, ok, f"radial dev {dev:.3e} (< {2*cell:.3e}), "
                   f"ginibre fraction {frac:.3f} in disk + {dil:.3f}")


def test_c03_flow_conservation():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(10000):
        eps0 = rng.uniform(0.0, 5.0)
        p0 = rng.uniform(0.01, 10.0)
        t = rng.uniform(0.0, 0.999 / p0)
        st = flow_additive(eps0, p0, t)
        worst = max(worst, abs(np.sqrt(st.epsilon) * st.p_epsilon
                               - np.sqrt(eps0) * p0))
    ok = worst < 1e-12
    _report(3, ok, f"max conservation defect {worst:.2e} over 1e4 triples")


def test_c04_extension_smoothness_and_matrix_match():
    t = 1.0
    lams = 2.2 * np.exp(2j * np.pi * np.arange(20) / 20)
    # 11 samples spanning the +-1e-3 window (the five canonical points
    # included); an overdetermined quartic fit actually probes smoothness
    eps_pts = np.array([-1e-3, -7.5e-4, -5e-4, -2.5e-4, -1e-4,
                        0.0, 1e-4, 2.5e-4, 5e-4, 7.5e-4, 1e-3])
    worst_resid = 0.0
    for lam in lams:
        vals = analytic_extension_trace(BERN, lam, t, eps_pts)
        coef = np.polyfit(eps_pts, vals, 4)
        resid = float(np.max(np.abs(np.polyval(coef, eps_pts) - vals)))
        worst_resid = max(worst_resid, resid)

    n = 1000
    x = sample_atomic(n, BERN.positions, BERN.weights, seed=21, stream=0)
    a = x + sample_ginibre(n, t, seed=21, stream=1)
    pos_eps = np.array([1e-3, 1e-4])
    tol = 5.0 / np.sqrt(n)
    worst_diff = 0.0
    for lam in lams:
        emp = empirical_dSde(a, complex(lam), pos_eps)
        ref = analytic_extension_trace(BERN, lam, t, pos_eps)
        worst_diff = max(worst_diff, float(np.max(np.abs(emp - ref))))
    ok = worst_resid < 1e-8 and worst_diff < tol
    _report(4, ok, f"quartic residual {worst_resid:.2e} (< 1e-8), "
                   f"matrix diff {worst_diff:.3e} (< {tol:.3e})")


def test_c05_annulus_law():
    n = 1000
    inner, outer = np.sqrt(1.6), np.sqrt(2.5)
    h = sample_atomic(n, TWO_ATOMS.positions, TWO_ATOMS.weights, seed=5,
                      stream=0)
    u = sample_haar_unitary(n, seed=5, stream=1)
    moduli = np.abs(eigenvalues(u @ h))
    frac = float(np.mean((moduli >= inner * 0.95) & (moduli <= outer * 1.05)))
    min_dev = abs(float(moduli.min()) / 1.26491 - 1.0)
    ok = frac >= 0.99 and min_dev <= 0.05
    _report(5, ok, f"fraction {frac:.3f} in slack annulus, "
                   f"min modulus off by {min_dev:.3%}")


def test_c06_perturbed_inner_radius():
    n, t = 1000, 0.5
    h = sample_atomic(n, TWO_ATOMS.positions, TWO_ATOMS.weights, seed=6,
                      stream=0)
    u = sample_haar_unitary(n, seed=6, stream=1)
    a = u @ h + sample_ginibre(n, t, seed=6, stream=2)
    m = float(np.min(np.abs(eigenvalues(a))))
    dev = abs(m / np.sqrt(1.1) - 1.0)
    ok = dev <= 0.07
    _report(6, ok, f"min modulus {m:.5f} vs predicted {np.sqrt(1.1):.5f} "
                   f"({dev:.3%} off)")


def test_c07_pushforward_contains_spectrum():
    n, t, gamma, k = 400, 1.0, -0.5j, 200
    x = sample_atomic(n, ROOTS4.positions, ROOTS4.weights, seed=7, stream=0)
    b = sample_b(n, t, gamma, k=k, seed=7, stream=1)
    eig = eigenvalues(x @ b)
    sigma = _domain(ROOTS4, T_mult_unitary, t, (-2, 2, -2, 2), 256, 256)
    mapped = map_boundary(sigma, lambda z: psi_formula(ROOTS4, gamma, z))
    rep = support_report(eig, boundary=mapped, dilation=0.05)
    ok = rep["fraction"] >= 0.95
    _report(7, ok, f"fraction {rep['fraction']:.3f} inside mapped boundary "
                   f"+ 0.05 (n={n}, k={k})")


def test_c08_flow_anchors_lifetime():
    eps_ladder = (1e-4, 1e-5, 1e-6)
    worst = 0.0
    for lam in (-1.0, 2.0, 1.0 + 1.0j):
        times = [blow_up_time(DELTA1_U, lam, e0, t_max=50.0)
                 for e0 in eps_ladder]
        # one Richardson step on the two smallest eps0 values
        t_ext = times[2] - (times[1] - times[2]) / 9.0
        T = T_mult_unitary(DELTA1_U, lam)
        worst = max(worst, abs(t_ext / T - 1.0))
    ok = worst < 0.01
    _report(8, ok, f"worst extrapolated lifetime error {worst:.2e} (< 1e-2)")


def test_c09_laplacian_identity_factor():
    angs = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    ratios = []
    lhs_all = []
    for lam in 2.2 * np.exp(1j * angs):
        lhs, rhs = laplacian_identity_check(BERN, lam, h=1e-3)
        ratios.append(lhs / rhs)
        lhs_all.append(lhs)
    ratios = np.asarray(ratios)
    rel_spread = float(np.std(ratios) / np.mean(ratios))
    ok = rel_spread < 1e-3 and min(lhs_all) > 0
    _report(9, ok, f"lhs/rhs = {np.mean(ratios):.6f} +- spread {rel_spread:.2e}, "
                   f"min lhs {min(lhs_all):.3e}")


def test_c10_injectivity_no_collisions():
    rng = np.random.default_rng(1234)

    def draw_pairs(exterior_test):
        found_a, found_b = [], []
        while len(found_a) < 10000:
            pts = rng.uniform(-3.5, 3.5, (4, 40000))
            a = pts[0] + 1j * pts[1]
            b = pts[2] + 1j * pts[3]
            keep = exterior_test(a) & exterior_test(b) & (np.abs(a - b) > 1e-8)
            found_a.extend(a[keep])
            found_b.extend(b[keep])
        return np.asarray(found_a[:10000]), np.asarray(found_b[:10000])

    t = 1.0
    a, b = draw_pairs(lambda z: T_additive(BERN, z) > t)
    gaps_phi = np.abs(phi_formula(BERN, 0.5, a) - phi_formula(BERN, 0.5, b))
    a, b = draw_pairs(lambda z: T_mult_unitary(ROOTS4, z) > t)
    gaps_psi = np.abs(psi_formula(ROOTS4, -0.5j, a)
                      - psi_formula(ROOTS4, -0.5j, b))
    m1, m2 = float(gaps_phi.min()), float(gaps_psi.min())
    ok = m1 > 1e-10 and m2 > 1e-10
    _report(10, ok, f"min image gaps: additive {m1:.3e}, "
                    f"multiplicative {m2:.3e} over 1e4 pairs each")


def test_c11_circle_convexity():
    h = 1e-4
    worst = 0.0
    min_val = np.inf
    for th in np.linspace(0.5, 2 * np.pi - 0.5, 100):
        def inv_T(a):
            return 1.0 / T_mult_unitary(DELTA1_U, np.exp(1j * a))
        fd = (inv_T(th + h) - 2 * inv_T(th) + inv_T(th - h)) / h ** 2
        val = curvature_check_circle(DELTA1_U, th)
        worst = max(worst, abs(val / fd - 1.0))
        min_val = min(min_val, val)
    ok = worst < 1e-6 and min_val > 0
    _report(11, ok, f"max relative FD mismatch {worst:.2e} (< 1e-6), "
                    f"min curvature {min_val:.4f}")


def test_c12_stieltjes_round_trip():
    y = 1e-3
    sup = 0.0
    # atomic case
    mu = SpectralMeasure.atomic([-1.0, 1.0], [0.5, 0.5], support="real")
    xs = np.linspace(-4, 4, 8001)
    rec = stieltjes_invert(lambda z: cauchy_transform(mu, z), xs, y)
    pw, x = rec.prob_weights, rec.positions.real
    for probe in (-3.0, -2.0, -0.5, 0.0, 0.5, 2.0, 3.0):
        want = float(np.sum(mu.prob_weights[mu.positions.real <= probe]))
        sup = max(sup, abs(float(pw[x <= probe].sum()) - want))

    # uniform-density case, via the exact transform of the law
    def g_uniform(z):
        return 0.5 * (np.log(z + 1) - np.log(z - 1))

    rec2 = stieltjes_invert(g_uniform, np.linspace(-3, 3, 6001), y)
    pw2, x2 = rec2.prob_weights, rec2.positions.real
    for probe in np.linspace(-1.6, 1.6, 33):
        want = float(np.clip((probe + 1) / 2, 0.0, 1.0))
        sup = max(sup, abs(float(pw2[x2 <= probe].sum()) - want))
    ok = sup < 2e-2
    _report(12, ok, f"sup CDF error {sup:.3e} (< 2e-2)")


def test_c13_product_vs_direct_multiplicativity():
    n, trials = 400, 30
    t_half, g_half = 0.5, 0.25
    probes = [(3.0 + 0.0j, 1e-2), (3.0j, 1e-2), (-3.0 + 0.0j, 1e-2)]
    prod_stats = np.empty((trials, len(probes)))
    direct_stats = np.empty((trials, len(probes)))
    for i in range(trials):
        seed = 500 + i
        b1 = sample_b(n, t_half, g_half, k=50, seed=seed, stream=1)
        b2 = sample_b(n, t_half, g_half, k=50, seed=seed, stream=2)
        prod = b1 @ b2
        # same per-factor law: 100 steps of size t/k = 0.01 on both sides
        direct = sample_b(n, 2 * t_half, 2 * g_half, k=100,
                          seed=seed, stream=3)
        for j, (lam, eps) in enumerate(probes):
            prod_stats[i, j] = empirical_dSde(prod, lam, eps)
            direct_stats[i, j] = empirical_dSde(direct, lam, eps)
    worst_sigma = 0.0
    for j in range(len(probes)):
        d = prod_stats[:, j].mean() - direct_stats[:, j].mean()
        s = np.sqrt(prod_stats[:, j].var(ddof=1) / trials
                    + direct_stats[:, j].var(ddof=1) / trials)
        worst_sigma = max(worst_sigma, abs(d) / s)
    ok = worst_sigma <= 3.0
    _report(13, ok, f"worst probe-mean discrepancy {worst_sigma:.2f} sigma "
                    f"(<= 3) over {trials} trials")
