"""End-to-end command-line checks (in-process main())."""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brownscope import (ContinuationFailed, SpectralMeasure, additive, cli,
                        emit, evaluate_grid, point_in_region, region, rmt)

BERN_REAL = {"kind": "atomic", "support": "real",
             "atoms": [[1.0, 0.0, 0.5], [-1.0, 0.0, 0.5]]}
DELTA0 = {"kind": "atomic", "support": "real", "atoms": [[0.0, 0.0, 1.0]]}
DELTA1_CIRCLE = {"kind": "atomic", "support": "circle",
                 "atoms": [[1.0, 0.0, 1.0]]}
FOURTH_ROOTS = {"kind": "atomic", "support": "circle",
                "atoms": [[1.0, 0.0, 0.25], [-1.0, 0.0, 0.25],
                          [0.0, 1.0, 0.25], [0.0, -1.0, 0.25]]}
TWO_ATOMS = {"kind": "atomic", "support": "nonneg",
             "atoms": [[1.0, 0.0, 0.5], [2.0, 0.0, 0.5]]}
ZERO_TWO = {"kind": "atomic", "support": "nonneg",
            "atoms": [[0.0, 0.0, 0.5], [2.0, 0.0, 0.5]]}


def cfg_file(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    ret = cli.main(argv + ["--out", str(out)])
    assert ret == 0
    return out.read_bytes()


def parse_csv(data):
    rows = []
    for line in data.decode().splitlines():
        if line.startswith("#") or "," not in line or line[0].isalpha():
            continue
        rows.append([float(x) if i < 2 else x
                     for i, x in enumerate(line.split(","))])
    return rows


# --- lifetime -------------------------------------------------------------------

def test_lifetime_additive_origin_node(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": BERN_REAL, "t": 1.0,
        "grid": {"nx": 41, "ny": 41}, "format": "csv"})
    data = run_to_file(tmp_path, "out.csv", ["lifetime", "--config", c])
    rows = [(re, im, float(v)) for re, im, v in parse_csv(data)]
    re, im, val = min(rows, key=lambda r: abs(r[0]) + abs(r[1]))
    assert abs(re) < 1e-12 and abs(im) < 1e-12
    assert val == pytest.approx(1.0, abs=1e-12)


def test_lifetime_mult_unitary_grid(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": DELTA1_CIRCLE, "t": 1.0,
        "grid": {"nx": 81, "ny": 81}})
    doc = json.loads(run_to_file(tmp_path, "o.json",
                                 ["lifetime", "--config", c]))
    assert doc["schema"] == "brownscope-region/1"
    assert doc["kind"] == "grid"
    vals = doc["values"]
    # node (40, 40) sits at the origin: the lifetime diverges there
    assert vals[40][40] == "inf"
    # node nearest (-1, 0)
    dre = 4.0 / 81
    res = [-2.0 + (i + 0.5) * dre for i in range(81)]
    i = int(np.argmin([abs(r + 1.0) for r in res]))
    assert float(vals[i][40]) == pytest.approx(4.0, abs=0.1)


def test_lifetime_mult_positive_exact_node(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-positive", "measure": TWO_ATOMS, "t": 0.5,
        "grid": {"re_min": 3.0, "re_max": 5.0, "im_min": -1.0, "im_max": 1.0,
                 "nx": 21, "ny": 21}})
    doc = json.loads(run_to_file(tmp_path, "o.json",
                                 ["lifetime", "--config", c]))
    a, b = 16 * 13 / 72, 5.0 / 9
    want = np.log(a / b) / (a - b)
    assert float(doc["values"][10][10]) == pytest.approx(want, abs=1e-9)


def _full_grid_lifetime(cfg):
    """The lifetime grid of cfg evaluated on every node, unmirrored."""
    mu = SpectralMeasure.load(cfg["measure"])
    g = dict(cli._DEFAULTS["grid"], **cfg["grid"])
    return evaluate_grid(
        functools.partial(cli._LIFETIME[cfg["model"]], mu),
        (g["re_min"], g["re_max"], g["im_min"], g["im_max"]), g["nx"], g["ny"])


def test_lifetime_on_the_circle_is_not_mirrored(tmp_path):
    # a circle law's lifetime is not conjugation-symmetric about the real
    # axis in general, so its grid is evaluated on every node as before
    cfg = {"model": "mult-unitary", "t": 1.0, "gamma": [0.0, -0.5],
           "measure": {"kind": "atomic", "support": "circle",
                       "atoms": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.3],
                                 [-0.6, -0.8, 0.2]]},
           "grid": {"re_min": -3.0, "re_max": 3.0, "im_min": -3.0,
                    "im_max": 3.0, "nx": 48, "ny": 48}}
    c = cfg_file(tmp_path, "c.json", cfg)
    args = cli.build_parser().parse_args(["lifetime", "--config", c])
    meta = cli._meta(cli.load_config(args), "lifetime")
    for fmt in ("json", "csv", "pgm"):
        data = run_to_file(tmp_path, f"o.{fmt}",
                           ["lifetime", "--config", c, "--format", fmt])
        assert data == emit(_full_grid_lifetime(cfg), fmt, meta=meta), fmt


def test_real_line_density_lifetime_is_mirrored(tmp_path):
    x = np.linspace(-2.0, 2.0, 201)
    f = np.sqrt(4.0 - x * x)
    f /= np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x))  # trapezoid mass 1
    semi = {"kind": "density", "support": "real",
            "grid": np.column_stack([x, f]).tolist()}
    cfg = {"model": "add-elliptic", "measure": semi, "t": 0.5,
           "gamma": [0.2, 0.1],
           "grid": {"re_min": -2.5, "re_max": 2.5, "im_min": -2.5,
                    "im_max": 2.5, "nx": 48, "ny": 48}}
    c = cfg_file(tmp_path, "c.json", cfg)
    doc = json.loads(run_to_file(tmp_path, "o.json",
                                 ["lifetime", "--config", c]))
    vals = np.asarray(doc["values"], dtype=float)
    assert np.array_equal(vals, vals[:, ::-1])
    full = _full_grid_lifetime(cfg).values
    assert np.max(np.abs(vals / full - 1.0)) <= 1e-13


# --- domain and map ----------------------------------------------------------------

def test_domain_disk_boundary(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": DELTA0, "t": 1.0,
        "grid": {"nx": 128, "ny": 128}})
    doc = json.loads(run_to_file(tmp_path, "d.json",
                                 ["domain", "--config", c]))
    assert doc["kind"] == "domain"
    assert doc["level"] == 1.0
    pts = np.asarray([complex(p[0], p[1])
                      for ch in doc["sigma"]["polylines"]
                      for p in ch["points"]])
    assert len(pts) > 50
    assert np.max(np.abs(np.abs(pts) - 1.0)) < 2 * (4.0 / 128)
    # gamma = 0: the mapped image is the boundary itself
    assert doc["mapped"]["polylines"] == doc["sigma"]["polylines"]


def test_domain_csv_roles(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": DELTA0, "t": 1.0,
        "grid": {"nx": 64, "ny": 64}, "format": "csv"})
    data = run_to_file(tmp_path, "d.csv", ["domain", "--config", c])
    rows = parse_csv(data)
    roles = {r[4] for r in rows}
    assert roles == {"sigma", "mapped"}
    n_sigma = sum(1 for r in rows if r[4] == "sigma")
    assert n_sigma == len(rows) - n_sigma


def test_domain_refuses_pgm(tmp_path, capfd):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": DELTA0, "t": 1.0, "format": "pgm"})
    assert cli.main(["domain", "--config", c]) == 2
    err = json.loads(capfd.readouterr().err)
    assert err["error"]["kind"] == "config"


def test_map_identity_round_trip(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": FOURTH_ROOTS, "t": 1.0,
        "grid": {"nx": 96, "ny": 96}})
    dom = tmp_path / "dom.json"
    assert cli.main(["domain", "--config", c, "--out", str(dom)]) == 0
    doc = json.loads(dom.read_bytes())
    mapped = json.loads(run_to_file(
        tmp_path, "m.json",
        ["map", "--config", c, "--in", str(dom)]))
    assert mapped["kind"] == "boundary"
    assert mapped["polylines"] == doc["sigma"]["polylines"]


@pytest.mark.parametrize("doc", [
    {"schema": "brownscope-region/1", "kind": "boundary", "level": 1.0},
    [1, 2],
    {"schema": "brownscope-region/1", "kind": "boundary", "level": 1.0,
     "polylines": [{"closed": True, "points": [[1]]}]},
    {"schema": "brownscope-region/1", "kind": "boundary", "level": 10 ** 400,
     "polylines": []},
], ids=["no-polylines", "json-list", "short-point-row", "level-past-float"])
def test_map_malformed_boundary_is_config_error(tmp_path, capfd, doc):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
        "gamma": [0.3, 0.0]})
    (tmp_path / "b.json").write_text(json.dumps(doc))
    assert cli.main(["map", "--config", c, "--in", str(tmp_path / "b.json")]) == 2
    [err] = error_objects(capfd.readouterr().err)
    assert err["error"]["kind"] == "config"


def test_input_files_that_are_not_utf8_are_config_errors(tmp_path, capfd):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
        "gamma": [0.3, 0.0]})
    (tmp_path / "latin.json").write_bytes(b"\xff\xfe{}")
    for argv in (["map", "--config", c, "--in", str(tmp_path / "latin.json")],
                 ["lifetime", "--config", str(tmp_path / "latin.json")]):
        assert cli.main(argv) == 2
        [err] = error_objects(capfd.readouterr().err)
        assert err["error"]["kind"] == "config"


# --- spectest ----------------------------------------------------------------------

def test_spectest_additive(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": BERN_REAL, "t": 1.0})
    doc = json.loads(run_to_file(
        tmp_path, "s.json",
        ["spectest", "--config", c, "--re", "3", "--im", "0"]))
    assert doc["schema"] == "brownscope-spectest/1"
    assert doc["verdict"] == "outside-spectrum"
    assert doc["lifetime"] == pytest.approx(6.4, abs=1e-9)
    doc2 = json.loads(run_to_file(
        tmp_path, "s2.json",
        ["spectest", "--config", c, "--re", "0", "--im", "0"]))
    assert doc2["verdict"] == "undetermined"


def test_spectest_zero_atom(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-positive", "measure": ZERO_TWO, "t": 1.0})
    doc = json.loads(run_to_file(
        tmp_path, "z.json",
        ["spectest", "--config", c, "--re", "0", "--im", "0"]))
    assert doc["verdict"] == "zero-atom-case"
    assert doc["zero_atom"] is True


def test_spectest_counts_only_an_atom_exactly_at_zero(tmp_path):
    # an atom at 1e-16 is off 0, as in neg2_moments and the radial limit
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-positive", "t": 1.0,
        "measure": {"kind": "atomic", "support": "nonneg",
                    "atoms": [[1e-16, 0.0, 0.5], [2.0, 0.0, 0.5]]}})
    doc = json.loads(run_to_file(
        tmp_path, "z.json",
        ["spectest", "--config", c, "--re", "0", "--im", "0"]))
    assert doc["verdict"] == "zero-atom-case"
    assert doc["zero_atom"] is False


def test_spectest_refuses_points_on_a_circle_density(tmp_path):
    # midway between two of 256 nodes the lifetime is well above t, but
    # the point lies on the density's support: no model may certify it
    n = 256
    circle = {"kind": "density", "support": "circle",
              "grid": [[2 * np.pi * i / n - np.pi, 1 / (2 * np.pi)]
                       for i in range(n)]}
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": circle, "t": 1e-3})
    theta = np.pi / n - np.pi
    doc = json.loads(run_to_file(tmp_path, "s.json", [
        "spectest", "--config", c, "--re", repr(float(np.cos(theta))),
        "--im", repr(float(np.sin(theta)))]))
    assert doc["lifetime"] > 1e-2
    assert doc["verdict"] == "undetermined"
    far = json.loads(run_to_file(tmp_path, "f.json", [
        "spectest", "--config", c, "--re", "3", "--im", "0"]))
    assert far["verdict"] == "outside-spectrum"


# the elliptic model of the Bernoulli law at gamma = 0.9, whose map phi
# carries the domain's real-axis tip out to 2.51
BERN_ELLIPTIC = {"model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
                 "gamma": [0.9, 0.0]}


def spectest(tmp_path, c, z):
    return json.loads(run_to_file(tmp_path, "s.json", [
        "spectest", "--config", c, f"--re={float(z.real)!r}",
        f"--im={float(z.imag)!r}"]))


@pytest.mark.parametrize("re, verdict", [
    (2.3, "undetermined"), (2.5, "undetermined"),
    (2.7, "outside-spectrum"), (3.0, "outside-spectrum")])
def test_spectest_tests_the_preimage_under_phi(tmp_path, re, verdict):
    c = cfg_file(tmp_path, "c.json", BERN_ELLIPTIC)
    doc = spectest(tmp_path, c, complex(re, 0.0))
    assert doc["verdict"] == verdict
    if verdict == "undetermined":  # the path entered the domain
        assert doc["preimage"] is None and doc["lifetime"] is None
    else:
        lam = complex(*doc["preimage"])
        mu = SpectralMeasure.load(BERN_REAL)
        assert complex(additive.phi_formula(mu, 0.9, lam)) == pytest.approx(re)
        assert doc["lifetime"] == pytest.approx(additive.T_additive(mu, lam))
        assert doc["lifetime"] > 1.0


def _elliptic_draw(n):
    mu = SpectralMeasure.load(BERN_REAL)
    x = rmt.sample_atomic(n, mu.positions, mu.weights, 7, stream=0)
    return x + rmt.sample_elliptic(n, 1.0, 0.9, 7, stream=1)


def _quartic_draw(n):
    mu = SpectralMeasure.load(FOURTH_ROOTS)
    x = rmt.sample_atomic(n, mu.positions, mu.weights, 7, stream=0)
    return x @ rmt.sample_b(n, 1.0, -0.5j, k=60, seed=7, stream=1)


@pytest.mark.parametrize("cfg, draw", [
    (BERN_ELLIPTIC, functools.partial(_elliptic_draw, 300)),
    ({"model": "mult-unitary", "measure": FOURTH_ROOTS, "t": 1.0,
      "gamma": [0.0, -0.5]}, functools.partial(_quartic_draw, 150))],
    ids=["add-elliptic", "mult-unitary"])
def test_spectest_certifies_no_eigenvalue_inside_the_mapped_region(
        tmp_path, cfg, draw):
    c = cfg_file(tmp_path, "c.json", dict(cfg, grid={
        "re_min": -3.0, "re_max": 3.0, "im_min": -3.0, "im_max": 3.0,
        "nx": 256, "ny": 256}))
    doc = json.loads(run_to_file(tmp_path, "d.json", ["domain", "--config", c]))
    mapped = region.read_boundary(doc["mapped"])
    eig = rmt.eigenvalues(draw())
    certified = np.array([z for z in eig if spectest(tmp_path, c, z)["verdict"]
                          == "outside-spectrum"])
    assert len(certified) > 0
    assert not np.any(point_in_region(mapped, certified))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["add-circ", "add-elliptic", "mult-unitary",
                        "mult-positive"]),
       st.floats(-3.5, 3.5), st.floats(-3.5, 3.5))
def test_spectest_at_gamma_zero_is_the_spectral_test(model, re, im):
    # every map is the identity at gamma = 0, so each point is its own
    # preimage and the verdict is the spectral test's at the point
    assume(model != "mult-positive" or complex(re, im) != 0)
    cfg = dict(MATRIX_MODELS[model], model=model, gamma=[0.0, 0.0])
    mu = SpectralMeasure.load(cfg["measure"])
    with tempfile.TemporaryDirectory() as tmp:
        doc = spectest(Path(tmp), cfg_file(Path(tmp), "c.json", cfg),
                       complex(re, im))
    want = additive.spectral_test(mu, cli._LIFETIME[model], complex(re, im),
                                  cfg["t"])
    assert doc["verdict"] == want.value


def _cli_subprocess(argv):
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "brownscope.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))


def _strict_json(text):
    """json.loads that refuses Infinity and NaN, as strict readers do."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("model, re, lifetime", [
    ("mult-unitary", "0", "inf"), ("mult-unitary", "1e300", None),
    ("add-elliptic", "1e300", "inf")])
def test_spectest_writes_strict_json(tmp_path, model, re, lifetime):
    # an infinite lifetime is spelled "inf", as in the grid documents
    c = cfg_file(tmp_path, "c.json", dict(MATRIX_MODELS[model], model=model))
    doc = _strict_json(run_to_file(tmp_path, "s.json", [
        "spectest", "--config", c, f"--re={re}", "--im=0"]).decode())
    assert doc["verdict"] == "outside-spectrum"
    if lifetime is None:
        assert np.isfinite(doc["lifetime"])
    else:
        assert doc["lifetime"] == lifetime


@pytest.mark.parametrize("model", ["mult-unitary", "mult-positive"])
def test_spectest_far_out_is_outside_without_warnings(tmp_path, model):
    # |lam|^2 overflows at 1e300; far out both multiplicative lifetimes are
    # log(|lam|^2 / integral |xi|^2 d mu), which needs no square
    c = cfg_file(tmp_path, "c.json", dict(MATRIX_MODELS[model], model=model))
    mu = SpectralMeasure.load(MATRIX_MODELS[model]["measure"])
    m2 = float(np.sum(mu.prob_weights * np.abs(mu.positions) ** 2))
    for re in ("1e300", "-1e300"):
        run = _cli_subprocess(["spectest", "--config", c, f"--re={re}",
                               "--im=0"])
        assert run.returncode == 0
        assert run.stderr == ""
        doc = _strict_json(run.stdout)
        assert doc["verdict"] == "outside-spectrum"
        lam = complex(*doc["preimage"])
        want = 2.0 * np.log(abs(lam)) - np.log(m2)
        assert doc["lifetime"] == pytest.approx(want, rel=1e-15)


def test_spectest_reports_a_stalled_preimage(tmp_path, monkeypatch):
    # a stalled continuation leaves the verdict undetermined, and says so
    c = cfg_file(tmp_path, "c.json", BERN_ELLIPTIC)
    plain = spectest(tmp_path, c, 3.0)
    assert "preimage_error" not in plain and plain["preimage"] is not None

    def stall(*args):
        raise ContinuationFailed("continuation stalled at s = 0.5")

    monkeypatch.setattr(additive, "preimage", stall)
    doc = spectest(tmp_path, c, 3.0)
    assert doc["preimage_error"] == "continuation stalled at s = 0.5"
    assert doc["verdict"] == "undetermined"
    assert doc["preimage"] is None and doc["lifetime"] is None
    del doc["preimage_error"]
    assert doc == dict(plain, verdict="undetermined", preimage=None,
                       lifetime=None)


def test_spectest_preimage_of_a_tiny_point_is_relative(tmp_path):
    # near 0 an absolute residual bound would accept any point within
    # 1e-13 of 0 as the preimage of 1e-300i
    c = cfg_file(tmp_path, "c.json", dict(MATRIX_MODELS["mult-positive"],
                                          model="mult-positive"))
    z = 1e-300j
    doc = spectest(tmp_path, c, z)
    lam = complex(*doc["preimage"])
    mu = SpectralMeasure.load(TWO_ATOMS)
    fz = complex(cli._MAP["mult-positive"](mu, 0.2, lam))
    assert abs(fz - z) <= 1e-12 * abs(z)
    assert doc["verdict"] == "outside-spectrum"


# --- validation errors --------------------------------------------------------------

def test_gamma_bound_enforced(tmp_path, capfd):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
        "gamma": [1.5, 0.0]})
    assert cli.main(["spectest", "--config", c, "--re", "3", "--im", "0"]) == 2
    err = json.loads(capfd.readouterr().err)
    assert err["error"]["code"] == 2
    assert "requires |gamma| <= t" in err["error"]["message"]


def test_missing_measure_and_bad_model(tmp_path, capfd):
    c1 = cfg_file(tmp_path, "c1.json", {"model": "add-circ"})
    assert cli.main(["lifetime", "--config", c1]) == 2
    c2 = cfg_file(tmp_path, "c2.json", {"model": "nonsense",
                                        "measure": BERN_REAL})
    assert cli.main(["lifetime", "--config", c2]) == 2
    capfd.readouterr()


def test_wrong_support_for_model(tmp_path, capfd):
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": BERN_REAL, "t": 1.0})
    assert cli.main(["lifetime", "--config", c]) == 2
    err = json.loads(capfd.readouterr().err)
    assert "circle" in err["error"]["message"]


# --- oracle ------------------------------------------------------------------------

def test_oracle_deterministic_and_sane(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": FOURTH_ROOTS, "t": 1.0,
        "gamma": [0.0, -0.5], "grid": {"nx": 96, "ny": 96},
        "oracle": {"n": 120, "k": 24, "seed": 11}})
    b1 = run_to_file(tmp_path, "o1.json", ["oracle", "--config", c])
    b2 = run_to_file(tmp_path, "o2.json", ["oracle", "--config", c])
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["schema"] == "brownscope-oracle/1"
    assert doc["k"] == 24
    assert doc["support"]["n"] == 120
    assert doc["support"]["fraction"] >= 0.9
    for row in doc["dsde_probes"]:
        assert row["abs_diff"] <= row["tol_hint"]


def test_oracle_rdiag_report(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "rdiag", "measure": TWO_ATOMS, "t": 0.5,
        "oracle": {"n": 150, "seed": 3}})
    doc = json.loads(run_to_file(tmp_path, "r.json",
                                 ["oracle", "--config", c]))
    assert doc["annulus"]["inner"] == pytest.approx(np.sqrt(1.6))
    assert doc["annulus"]["outer"] == pytest.approx(np.sqrt(2.5))
    assert doc["predicted_inner"] == pytest.approx(np.sqrt(1.1))
    assert 0.0 < doc["min_modulus"] < doc["max_modulus"]
    assert doc["sampler"] == rmt.SAMPLER_VERSION == 3


def test_oracle_include_eigenvalues(tmp_path):
    cfg = {"model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
           "gamma": [0.3, 0.1], "grid": {"nx": 32, "ny": 32},
           "oracle": {"n": 40, "seed": 4}}
    plain = json.loads(run_to_file(tmp_path, "p.json", [
        "oracle", "--config", cfg_file(tmp_path, "p.json.cfg", cfg)]))
    cfg["oracle"]["include_eigenvalues"] = True
    full = json.loads(run_to_file(tmp_path, "f.json", [
        "oracle", "--config", cfg_file(tmp_path, "f.json.cfg", cfg)]))
    eig = full.pop("eigenvalues")
    mu = SpectralMeasure.load(BERN_REAL)
    a = rmt.sample_elliptic(40, 1.0, 0.3 + 0.1j, 4, stream=1)
    a.flat[::41] += np.repeat(mu.positions, rmt.multiplicities(mu.weights, 40))
    want = rmt.eigenvalues(a)
    assert eig == [[float(z.real), float(z.imag)] for z in want]
    del full["meta"], plain["meta"]  # the config hashes differ
    assert full == plain


def test_oracle_additive_probes_at_the_mapped_point(tmp_path):
    # x + elliptic(gamma) probed at phi(lam) pairs with the analytic
    # extension at lam
    c = cfg_file(tmp_path, "c.json", dict(
        BERN_ELLIPTIC, grid={"nx": 64, "ny": 64},
        oracle={"n": 400, "seed": 7,
                "probes": [[2.6, 0, 1e-3], [0, 1, 1e-3], [3.0, 0.5, 1e-3]]}))
    doc = json.loads(run_to_file(tmp_path, "o.json", ["oracle", "--config", c]))
    mu = SpectralMeasure.load(BERN_REAL)
    for row in doc["dsde_probes"]:
        lam = complex(*row["lambda"])
        assert complex(*row["mapped_lambda"]) == complex(
            additive.phi_formula(mu, 0.9, lam))
        assert row["abs_diff"] <= row["tol_hint"]


def test_oracle_probe_at_an_atom_prints_no_warning(tmp_path):
    # eps = 0 on an atom: the reference is refused, with nothing on stderr
    import os
    import subprocess
    import sys

    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
        "gamma": [0.3, 0.1], "grid": {"nx": 32, "ny": 32},
        "oracle": {"n": 30, "seed": 4, "probes": [[1, 0, 0]]}})
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "brownscope.cli", "oracle",
                          "--config", c], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0
    assert run.stderr == ""
    [row] = json.loads(run.stdout)["dsde_probes"]
    assert "reference" not in row
    assert "not outside the closed time-t domain" in row["reference_error"]


def test_oracle_mult_probe_failures_print_no_warning(tmp_path):
    # on an atom the characteristic blows up, and eps < 0 is refused: both
    # rows carry reference_error, with nothing on stderr
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": FOURTH_ROOTS, "t": 1.0,
        "gamma": [0.0, -0.5], "grid": {"nx": 32, "ny": 32},
        "oracle": {"n": 30, "k": 4, "seed": 4,
                   "probes": [[1, 0, 1e-3], [3, 0, -1e-3]]}})
    run = _cli_subprocess(["oracle", "--config", c])
    assert run.returncode == 0
    assert run.stderr == ""
    atom, negative = json.loads(run.stdout)["dsde_probes"]
    assert "reference" not in atom and "reference" not in negative
    assert "blew up" in atom["reference_error"]
    assert "eps >= 0" in negative["reference_error"]


def test_oracle_mult_positive_default_probes_are_outside_the_domain(tmp_path):
    # at t = 1 the domain of atoms 1 and 2 reaches past the first default
    # radius on the positive axis; each default probe moves out until the
    # lifetime there is 1.25 t, where the flow reference is accurate
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-positive", "measure": TWO_ATOMS, "t": 1.0,
        "grid": {"nx": 32, "ny": 32}, "rgrid": {"n_r": 32, "n_theta": 32},
        "oracle": {"n": 30, "k": 4, "seed": 4}})
    doc = json.loads(run_to_file(tmp_path, "o.json", ["oracle", "--config", c]))
    mu = SpectralMeasure.load(TWO_ATOMS)
    rows = doc["dsde_probes"]
    assert len(rows) == 3
    for row in rows:
        assert "reference_error" not in row
        lam = complex(*row["lambda"])
        assert cli._LIFETIME["mult-positive"](mu, lam) >= 1.25
        assert abs(lam) >= 2.0 + 1.0 + 1.0


def test_oracle_refuses_a_grid_the_domain_covers(tmp_path, capfd):
    # at t = 4 the domain of the Bernoulli law covers [-1, 1]^2, so its
    # level set crosses no cell of the grid and no eigenvalue could count
    # as inside
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 4.0,
        "grid": {"re_min": -1.0, "re_max": 1.0, "im_min": -1.0,
                 "im_max": 1.0, "nx": 32, "ny": 32},
        "oracle": {"n": 200, "seed": 1}})
    assert cli.main(["oracle", "--config", c]) == 3
    out, err = capfd.readouterr()
    assert out == ""
    [doc] = error_objects(err)
    assert doc["error"]["kind"] == "numerical"
    assert "crosses no cell" in doc["error"]["message"]


@pytest.mark.parametrize("model, cfg", [
    ("add-elliptic", {"measure": BERN_REAL, "t": 4.0,
                      "grid": {"re_min": -1.0, "re_max": 1.0, "im_min": -1.0,
                               "im_max": 1.0, "nx": 32, "ny": 32}}),
    # T < 0.35 on the square around the atom at 1
    ("mult-unitary", {"measure": FOURTH_ROOTS, "t": 1.0, "gamma": [0.0, -0.5],
                      "grid": {"re_min": 0.8, "re_max": 1.2, "im_min": -0.2,
                               "im_max": 0.2, "nx": 32, "ny": 32}}),
])
def test_oracle_refuses_a_covered_grid_before_sampling(tmp_path, capfd,
                                                        monkeypatch, model,
                                                        cfg):
    def no_draw(*args, **kwargs):
        raise AssertionError("the oracle sampled before refusing")

    for name in ("sample_b", "sample_atomic", "sample_elliptic"):
        monkeypatch.setattr(rmt, name, no_draw)
    c = cfg_file(tmp_path, "c.json", dict(
        cfg, model=model, oracle={"n": 200, "k": 9, "seed": 1}))
    assert cli.main(["oracle", "--config", c]) == 3
    [doc] = error_objects(capfd.readouterr().err)
    assert "crosses no cell" in doc["error"]["message"]


def test_oracle_mult_loads_no_scipy_integrate(tmp_path):
    # the mult-* reference integrates the flow without scipy, whose
    # integrate package costs more than half a second to import
    import os
    import subprocess
    import sys

    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-unitary", "measure": FOURTH_ROOTS, "t": 1.0,
        "grid": {"nx": 32, "ny": 32}, "oracle": {"n": 30, "k": 4, "seed": 4}})
    out = tmp_path / "o.json"
    code = ("import sys; from brownscope import cli; "
            f"code = cli.main(['oracle', '--config', {c!r}, '--out', {str(out)!r}]); "
            "print(code, 'scipy.integrate' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "0 False"
    assert all("abs_diff" in row
               for row in json.loads(out.read_text())["dsde_probes"])


# --- radii -------------------------------------------------------------------------

def test_radii_csv_sweep(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "rdiag", "measure": TWO_ATOMS, "format": "csv"})
    data = run_to_file(tmp_path, "r.csv", [
        "radii", "--config", c, "--t-max", "1.0", "--steps", "5"])
    text = data.decode()
    assert "# annulus_inner" in text
    rows = [(float(a), float(b)) for a, b in
            (ln.split(",") for ln in text.splitlines()
             if not ln.startswith("#") and not ln[0].isalpha())]
    assert len(rows) == 5
    for tv, rv in rows:
        assert rv == pytest.approx(np.sqrt(1.6 - tv), rel=1e-12)


def test_radii_json_past_cap(tmp_path):
    c = cfg_file(tmp_path, "c.json", {
        "model": "rdiag", "measure": TWO_ATOMS})
    doc = json.loads(run_to_file(tmp_path, "r.json", [
        "radii", "--config", c, "--t-max", "2.0", "--steps", "3"]))
    assert doc["schema"] == "brownscope-radii/1"
    sweep = doc["sweep"]
    assert sweep[0]["inner_radius"] == pytest.approx(np.sqrt(1.6))
    assert sweep[1]["inner_radius"] == pytest.approx(np.sqrt(0.6))
    assert sweep[2]["inner_radius"] == "nan"


def test_radii_json_past_cap_is_strict_json(tmp_path):
    # past the time the hole closes the radius is spelled "nan", as in the
    # grid documents, not as the non-standard NaN
    c = cfg_file(tmp_path, "c.json", {"model": "rdiag", "measure": TWO_ATOMS})
    doc = _strict_json(run_to_file(tmp_path, "r.json", [
        "radii", "--config", c, "--t-max", "3", "--steps", "4"]).decode())
    radii = [row["inner_radius"] for row in doc["sweep"]]
    assert radii[:2] == pytest.approx([np.sqrt(1.6), np.sqrt(0.6)])
    assert radii[2:] == ["nan", "nan"]


# --- error contract and config validation -------------------------------------------

def error_objects(err):
    return [json.loads(line) for line in err.splitlines() if line.strip()]


@pytest.mark.parametrize("measure", [
    {"kind": "atomic", "support": "real",
     "atoms": [[0.0, 0.0, 1e308], [1.0, 0.0, 1e308]]},
    {"kind": "density", "support": "real",
     "grid": [[0.0, 1e308], [1.0, 1e308], [2.0, 1e308]]}],
    ids=["atoms", "density"])
def test_measure_whose_mass_overflows_is_refused(tmp_path, measure):
    # the mass sums to inf, and dividing by it would zero every weight
    c = cfg_file(tmp_path, "c.json", {"model": "add-elliptic", "t": 1.0,
                                      "measure": measure})
    run = _cli_subprocess(["spectest", "--config", c, "--re", "0.5",
                           "--im", "0.01"])
    assert run.returncode == 2
    assert run.stdout == ""
    assert json.loads(run.stderr)["error"]["message"] == (
        "bad measure: measure mass overflows the float range")


def test_refused_density_prints_one_error_object(tmp_path):
    # its mass is not 1, but the loader refuses it before it would warn
    c = cfg_file(tmp_path, "c.json", {"model": "add-elliptic", "t": 1.0,
        "measure": {"kind": "density", "support": "real",
                    "grid": [[0.0, 0.3], [1.0, -0.1], [2.0, 0.3]]}})
    run = _cli_subprocess(["spectest", "--config", c, "--re", "3",
                           "--im", "0"])
    assert run.returncode == 2
    doc = json.loads(run.stderr)
    assert doc["error"]["code"] == 2
    assert "nonnegative" in doc["error"]["message"]


def test_domain_density_map_failure_is_numerical(tmp_path, capfd):
    # the map is evaluated within the density's guard band of its support
    x = np.linspace(-2.0, 2.0, 401)
    semi = {"kind": "density", "support": "real",
            "grid": [[v, np.sqrt(max(4.0 - v * v, 0.0)) / (2 * np.pi)]
                     for v in x]}
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": semi, "t": 0.05,
        "gamma": [0.02, 0.0], "grid": {"nx": 128, "ny": 128}})
    assert cli.main(["domain", "--config", c]) == 3
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    [doc] = error_objects(err)
    assert doc["error"]["code"] == 3
    assert doc["error"]["kind"] == "numerical"


@pytest.mark.parametrize("command,override", [
    ("lifetime", {"format": "xml"}),
    ("lifetime", {"grid": {"nx": 0}}),
    ("lifetime", {"grid": {"nx": "a"}}),
    ("lifetime", {"gamma": [None, 0]}),
    ("oracle", {"oracle": {"n": 0}}),
    ("oracle", {"oracle": {"n": 30, "k": 2, "probes": [[1, 2]]}}),
    ("oracle", {"oracle": {"n": 30, "k": 2, "seed": "a"}}),
    ("oracle", {"oracle": {"n": 30, "k": 2, "dilation": "a"}}),
    # the oracle samples atomic laws only, rdiag included
    ("oracle", {"model": "rdiag", "oracle": {"n": 30},
                "measure": {"kind": "density", "support": "nonneg",
                            "grid": [[0.5, 0.5], [2.5, 0.5]]}}),
    # bounds in order, with a finite difference
    ("domain", {"grid": {"re_min": -1e308, "re_max": 1e308, "nx": 16,
                         "ny": 16}}),
    ("lifetime", {"grid": {"re_min": 1.0, "re_max": 1.0}}),
    ("lifetime", {"grid": {"im_min": 2.0, "im_max": -2.0}}),
    ("lifetime", {"rgrid": {"r_min": 2.0, "r_max": 1.0}}),
    # sizes: per count, and per grid or matrix
    ("lifetime", {"grid": {"nx": 1 << 17, "ny": 1}}),
    ("lifetime", {"grid": {"nx": 4096, "ny": 4096}}),
    ("lifetime", {"rgrid": {"n_r": 4096, "n_theta": 4096}}),
    ("oracle", {"oracle": {"n": 4096, "k": 1}}),
    ("oracle", {"oracle": {"n": 30, "k": 10 ** 20}}),
    ("radii --steps 100000000000000000000",
     {"model": "rdiag", "measure": TWO_ATOMS}),
    # a negative dilation, last so the cases above keep their ids
    ("oracle", {"oracle": {"n": 30, "k": 2, "dilation": -1}}),
])
def test_bad_config_values_are_config_errors(tmp_path, capfd, command,
                                             override):
    cfg = {"model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
           "grid": {"nx": 16, "ny": 16}}
    cfg.update(override)
    c = cfg_file(tmp_path, "c.json", cfg)
    assert cli.main([*command.split(), "--config", c]) == 2
    [doc] = error_objects(capfd.readouterr().err)
    assert doc["error"]["kind"] == "config"


def test_domain_refuses_r_min_above_the_derived_r_max(tmp_path, capfd):
    # without rgrid.r_max the grid reaches 4 (support radius + 1) = 12
    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-positive", "measure": TWO_ATOMS, "t": 0.5,
        "gamma": [0.2, 0.0], "rgrid": {"r_min": 20, "n_r": 32, "n_theta": 32}})
    assert cli.main(["domain", "--config", c]) == 2
    [doc] = error_objects(capfd.readouterr().err)
    assert doc["error"]["kind"] == "config"
    assert "r_max derived from the measure is 12" in doc["error"]["message"]


@pytest.mark.parametrize("command", ["domain", "lifetime"])
def test_huge_grid_bounds_print_nothing_on_stderr(tmp_path, command):
    # far out |lam - xi|^2 overflows to inf and the lifetime is inf, the
    # right limits, so numpy has nothing to warn about
    import os
    import subprocess
    import sys

    c = cfg_file(tmp_path, "c.json", dict(
        BERN_ELLIPTIC, grid={"re_min": -1e308, "re_max": 0.0, "im_min": -2.0,
                             "im_max": 2.0, "nx": 16, "ny": 16}))
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "brownscope.cli", command,
                          "--config", c], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0
    assert run.stderr == ""


def test_lifetime_near_a_zero_atom_prints_nothing_on_stderr(tmp_path):
    # below |lam| ~ 1e-154, |lam|^2 leaves the normal range and the atom at
    # 0 puts p0 past the float range; the lifetime there is its radial
    # limit 1 / (1 - w0) = 2, not the 0 of an atom
    import os
    import subprocess
    import sys

    c = cfg_file(tmp_path, "c.json", {
        "model": "mult-positive", "t": 0.5,
        "measure": {"kind": "atomic", "support": "nonneg",
                    "atoms": [[0.0, 0.0, 0.5], [1.0, 0.0, 0.5]]},
        "grid": {"re_min": -1e-154, "re_max": 1e-154, "im_min": -1e-154,
                 "im_max": 1e-154, "nx": 4, "ny": 4}})
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "brownscope.cli", "lifetime",
                          "--config", c, "--format", "json"],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0
    assert run.stderr == ""
    vals = np.asarray(json.loads(run.stdout)["values"], dtype=float)
    assert np.all(vals[1:3, 1:3] == 2.0)
    assert vals == pytest.approx(np.full((4, 4), 2.0), rel=1e-12)


def test_gamma_bound_message(tmp_path, capfd):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
        "gamma": [1.5, 0.0]})
    assert cli.main(["lifetime", "--config", c]) == 2
    [doc] = error_objects(capfd.readouterr().err)
    assert doc["error"]["message"] == (
        "requires |gamma| <= t: |gamma| = 1.5 exceeds t = 1")


def test_unwritable_out_is_config_error(tmp_path, capfd):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": DELTA0, "t": 1.0,
        "grid": {"nx": 8, "ny": 8}})
    out = str(tmp_path / "missing" / "x.json")
    assert cli.main(["lifetime", "--config", c, "--out", out]) == 2
    stdout, err = capfd.readouterr()
    assert stdout == "" and "Traceback" not in err
    [doc] = error_objects(err)
    assert doc["error"]["code"] == 2 and doc["error"]["kind"] == "config"


@pytest.mark.parametrize("argv", [
    ["spectest", "--im", "0"],
    ["lifetime", "--format", "xml"],
    ["lifetime", "--t", "abc"],
], ids=["spectest-without-re", "format-xml", "t-not-a-number"])
def test_usage_errors_follow_the_error_contract(tmp_path, capfd, argv):
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": DELTA0, "t": 1.0})
    assert cli.main(argv + ["--config", c]) == 2
    stdout, err = capfd.readouterr()
    assert stdout == ""
    [doc] = error_objects(err)
    assert doc["error"]["code"] == 2 and doc["error"]["kind"] == "config"


def test_help_still_exits_zero(capfd):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lifetime", "--help"])
    assert exc.value.code == 0
    assert "--config" in capfd.readouterr().out


@pytest.mark.parametrize("command,fmt,extra", [
    ("spectest", "csv", ["--re", "3", "--im", "0"]),
    ("oracle", "csv", []),
    ("domain", "pgm", []),
    ("map", "pgm", ["--in", "ring.json"]),
    ("radii", "pgm", []),
])
def test_unsupported_format_refused_before_any_work(tmp_path, capfd,
                                                    monkeypatch, command,
                                                    fmt, extra):
    def no_work(cfg):
        raise AssertionError("the measure was resolved")

    monkeypatch.setattr(cli, "resolve_measure", no_work)
    c = cfg_file(tmp_path, "c.json", {
        "model": "add-circ", "measure": BERN_REAL, "t": 1.0})
    assert cli.main([command, "--config", c, "--format", fmt, *extra]) == 2
    [doc] = error_objects(capfd.readouterr().err)
    assert doc["error"]["kind"] == "config"
    assert doc["error"]["message"].startswith(f"{command} output supports")


# --- each command's table row, checked before any work -------------------------------

@pytest.fixture
def no_measure(monkeypatch):
    def no_work(cfg):
        raise AssertionError("the measure was resolved")

    monkeypatch.setattr(cli, "resolve_measure", no_work)


@pytest.mark.parametrize("model,command,extra", [
    ("rdiag", "lifetime", []),
    ("rdiag", "domain", []),
    ("rdiag", "map", ["--in", "ring.json"]),
    ("rdiag", "spectest", ["--re", "3", "--im", "0"]),
    ("add-circ", "radii", []),
])
def test_unserved_model_refused_before_any_work(tmp_path, capfd, no_measure,
                                                model, command, extra):
    c = cfg_file(tmp_path, "c.json", dict(MATRIX_MODELS[model], model=model))
    assert cli.main([command, "--config", c, *extra]) == 2
    [doc] = error_objects(capfd.readouterr().err)
    assert doc["error"]["kind"] == "config"
    assert doc["error"]["message"] == (
        f"{command} does not serve model {model}")


def test_each_command_takes_only_the_flags_it_reads():
    sub = cli.build_parser()._subparsers._group_actions[0].choices
    flags = {name: [a.option_strings[0] for a in sp._actions
                    if a.option_strings and a.option_strings[0] != "-h"]
             for name, sp in sub.items()}
    common = ["--config", "--out", "--format"]
    gamma = ["--gamma-re", "--gamma-im"]
    assert flags == {
        "lifetime": common,
        "domain": common + ["--t", *gamma],
        "map": common + [*gamma, "--in"],
        "spectest": common + ["--t", *gamma, "--re", "--im"],
        "oracle": common + ["--t", *gamma, "--seed"],
        "radii": common + ["--t-max", "--steps"],
    }
    assert sum(map(len, flags.values())) == 35


@pytest.mark.parametrize("flags", [
    ["--t-max", "-1"], ["--t-max", "nan"], ["--t-max", "inf"],
    ["--steps", "0"], ["--steps", "-3"], ["--steps", "1"],
])
def test_radii_flag_limits(tmp_path, capfd, no_measure, flags):
    c = cfg_file(tmp_path, "c.json", dict(MATRIX_MODELS["rdiag"], model="rdiag"))
    assert cli.main(["radii", "--config", c, *flags]) == 2
    stdout, err = capfd.readouterr()
    assert stdout == ""
    [doc] = error_objects(err)
    assert doc["error"]["code"] == 2 and doc["error"]["kind"] == "config"


@pytest.mark.parametrize("override,argv", [
    ({"t": True}, ["spectest", "--re", "3", "--im", "0"]),
    ({}, ["domain", "--t", "inf"]),
    ({}, ["spectest", "--t", "inf", "--re", "3", "--im", "0"]),
    ({}, ["domain", "--gamma-re", "nan"]),
    ({"grid": {"re_min": float("nan")}}, ["lifetime"]),
    ({}, ["spectest", "--re", "nan", "--im", "0"]),
    ({"oracle": {"dilation": float("inf")}}, ["oracle"]),
    ({"oracle": {"seed": True}}, ["oracle"]),
    ({}, ["domain", "--t", "abc"]),
], ids=["t-true", "domain-t-inf", "spectest-t-inf", "gamma-re-nan",
        "grid-bound-nan", "re-nan", "dilation-inf", "seed-true", "t-abc"])
def test_numbers_are_finite_and_not_bools(tmp_path, capfd, no_measure,
                                          override, argv):
    cfg = {"model": "add-elliptic", "measure": BERN_REAL, "t": 1.0}
    cfg.update(override)
    c = cfg_file(tmp_path, "c.json", cfg)
    assert cli.main([*argv, "--config", c]) == 2
    stdout, err = capfd.readouterr()
    assert stdout == ""
    [doc] = error_objects(err)
    assert doc["error"]["code"] == 2 and doc["error"]["kind"] == "config"


# --- the front door, fuzzed -----------------------------------------------------------

# each command's own optional flags, with values it accepts
_GOOD_FLAGS = {
    "--t": st.floats(0.1, 2.0), "--gamma-re": st.just(0.0) | st.floats(-0.1, 0.1),
    "--gamma-im": st.just(0.0) | st.floats(-0.1, 0.1), "--seed": st.integers(-2, 9),
    "--t-max": st.floats(0.0, 2.0), "--steps": st.integers(2, 6),
}
_OWN_FLAGS = {
    "lifetime": (), "domain": ("--t", "--gamma-re", "--gamma-im"),
    "map": ("--gamma-re", "--gamma-im"),
    "spectest": ("--t", "--gamma-re", "--gamma-im"),
    "oracle": ("--t", "--gamma-re", "--gamma-im", "--seed"),
    "radii": ("--t-max", "--steps"),
}
# what may stand where a number belongs: non-finite, negative, boolean,
# too large for a float, or not a number at all
_BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf"),
                               10 ** 400, -1.0, 0, True, False, "1", None, [1]])
_BAD_TEXT = st.sampled_from(["nan", "inf", "-1", "0", "true", "abc", "1e400"])


@st.composite
def cli_runs(draw):
    """A config and an argv for one CLI run, with at most one bad value:
    slot number `target` gets it, and about half the runs have none."""
    slots, target = iter(range(100)), draw(st.integers(0, 40))

    def pick(good, bad=_BAD_VALUES):
        return draw(bad if next(slots) == target else good)

    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    model = pick(st.sampled_from(cli.MODELS), st.sampled_from(["junk", None, 3]))
    base = MATRIX_MODELS.get(model, MATRIX_MODELS["add-circ"])
    measures = [BERN_REAL, FOURTH_ROOTS, TWO_ATOMS, ZERO_TWO, True, 3, [1],
                "missing.json", {"kind": "atomic", "atoms": [[1, 0, {}]]}]
    bound = st.floats(-4.0, 4.0)
    cfg = {"model": model,
           "measure": pick(st.just(base["measure"]), st.sampled_from(measures)),
           "t": pick(st.just(base["t"])),
           "gamma": pick(st.just(base.get("gamma", [0.0, 0.0])),
                         _BAD_VALUES | st.lists(_BAD_VALUES, max_size=3)),
           "grid": {"re_min": pick(bound), "re_max": pick(bound),
                    "im_min": pick(bound), "im_max": pick(bound),
                    "nx": draw(st.integers(1, 8)), "ny": draw(st.integers(1, 8))},
           "rgrid": {"r_min": pick(st.floats(1e-6, 1.0)),
                     "r_max": pick(st.none() | st.floats(2.0, 8.0)),
                     "n_r": draw(st.integers(1, 8)),
                     "n_theta": draw(st.integers(1, 8))},
           "oracle": {"n": draw(st.integers(1, 8)), "k": draw(st.integers(1, 2)),
                      "seed": pick(st.integers(-2, 9)),
                      "dilation": pick(st.none() | st.floats(0.0, 1.0))},
           "format": pick(st.sampled_from(["json", "csv", "pgm"]),
                          st.just("xml"))}
    argv = [command]
    if command == "map":
        argv += ["--in", "ring.json"]
    if command == "spectest":
        for flag in ("--re", "--im"):
            argv.append(f"{flag}={pick(st.floats(-4.0, 4.0).map(repr), _BAD_TEXT)}")
    flags = {flag for flag in _OWN_FLAGS[command] if draw(st.booleans())}
    if next(slots) == target:  # a flag the command may not take
        flags.add(draw(st.sampled_from(sorted(_GOOD_FLAGS))))
    for flag in sorted(flags):  # "--flag=-1e-05": argparse reads -1e-05 as a flag
        argv.append(f"{flag}={pick(_GOOD_FLAGS[flag].map(repr), _BAD_TEXT)}")
    if draw(st.booleans()):
        argv += ["--format", pick(st.sampled_from(["json", "csv", "pgm"]),
                                  st.just("xml"))]
    return cfg, argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_runs())
@example(({"model": "rdiag", "measure": TWO_ATOMS, "t": 0.5},
          ["radii", "--t-max", "-1"]))
def test_cli_exits_by_the_error_contract(run):
    cfg, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "ring.json").write_text(json.dumps({
            "schema": "brownscope-region/1", "kind": "boundary", "level": 1.0,
            "polylines": [{"closed": True,
                           "points": [[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0]]}]}))
        (work / "c.json").write_text(json.dumps(cfg))
        argv = [a.replace("ring.json", str(work / "ring.json")) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--config", str(work / "c.json"),
                             "--out", str(work / "out")])
    assert code in (0, 2, 3)
    err = err.getvalue()
    assert "Traceback" not in err
    docs = [json.loads(line) for line in err.splitlines()
            if line.startswith("{")]
    if code:
        [doc] = docs
        assert doc["error"]["code"] == code
    else:
        assert docs == []


# --- every model through every command ----------------------------------------------

MATRIX_MODELS = {
    "add-circ": {"measure": BERN_REAL, "t": 1.0},
    "add-elliptic": {"measure": BERN_REAL, "t": 1.0, "gamma": [0.3, 0.1]},
    "mult-unitary": {"measure": FOURTH_ROOTS, "t": 1.0, "gamma": [0.0, -0.5]},
    "mult-positive": {"measure": TWO_ATOMS, "t": 0.5, "gamma": [0.2, 0.0]},
    "rdiag": {"measure": TWO_ATOMS, "t": 0.5},
}
MATRIX_COMMANDS = {
    "lifetime": [], "domain": [], "map": ["--in", "ring.json"],
    "spectest": ["--re", "3", "--im", "0.5"], "oracle": [],
    "radii": ["--steps", "5"],
}


@pytest.mark.parametrize("model", MATRIX_MODELS)
def test_model_command_matrix(tmp_path, capfd, monkeypatch, model):
    monkeypatch.chdir(tmp_path)
    ring = [[3.0 * np.cos(a), 3.0 * np.sin(a)]
            for a in np.linspace(0.0, 2 * np.pi, 24, endpoint=False)]
    (tmp_path / "ring.json").write_text(json.dumps({
        "schema": "brownscope-region/1", "kind": "boundary", "level": 1.0,
        "polylines": [{"closed": True, "points": ring}]}))
    c = cfg_file(tmp_path, "c.json", dict(
        MATRIX_MODELS[model], model=model,
        grid={"re_min": -3.0, "re_max": 3.0, "im_min": -3.0, "im_max": 3.0,
              "nx": 48, "ny": 48},
        rgrid={"n_r": 48, "n_theta": 48},
        oracle={"n": 60, "k": 6, "seed": 5}))
    for command, extra in MATRIX_COMMANDS.items():
        for fmt in ("json", "csv"):
            argv = [command, "--config", c, "--format", fmt, *extra]
            outs = []
            for rep in range(2):
                out = tmp_path / f"{command}.{fmt}.{rep}"
                code = cli.main(argv + ["--out", str(out)])
                assert code in (0, 2, 3), (command, fmt)
                err = capfd.readouterr().err
                if code:
                    [doc] = error_objects(err)
                    assert doc["error"]["code"] == code
                    break
                outs.append(out.read_bytes())
            if outs:
                assert outs[0] == outs[1], (command, fmt)


# --- import cost -------------------------------------------------------------------

def test_cli_import_leaves_costly_scipy_modules_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, brownscope.cli; print(sorted(m for m in "
            "('scipy.integrate', 'scipy.special') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "[]"


def test_domain_run_leaves_openssl_unloaded(tmp_path):
    # hashlib would load OpenSSL's libcrypto (_hashlib) for config_hash
    import os
    import subprocess
    import sys

    c = cfg_file(tmp_path, "c.json", {
        "model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
        "gamma": [0.3, 0.1], "grid": {"nx": 32, "ny": 32}})
    out = tmp_path / "d.json"
    code = ("import sys; from brownscope import cli; "
            f"code = cli.main(['domain', '--config', {c!r}, '--out', {str(out)!r}]); "
            "print(code, sorted(m for m in ('_hashlib', 'hashlib') "
            "if m in sys.modules))")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "0 []"
    assert json.loads(out.read_text())["sigma"]["polylines"]


@pytest.mark.parametrize("cfg", [
    {},
    {"model": "add-elliptic", "measure": BERN_REAL, "t": 1.0,
     "gamma": [0.3, 0.1], "format": "csv", "out": "x.csv"},
    {"model": "mult-unitary", "measure": FOURTH_ROOTS, "t": 1.0,
     "oracle": {"n": 400, "k": 60, "seed": 7, "probes": None}},
    {"model": "rdiag", "measure": "m\u00e9asure.json", "t": 0.5,
     "grid": {"re_min": -1e300, "re_max": 1.5}},
])
def test_config_hash_is_sha256(cfg):
    import hashlib
    blob = json.dumps({k: v for k, v in cfg.items()
                       if k not in ("out", "format")},
                      sort_keys=True, separators=(",", ":"))
    assert (cli.config_hash(cfg)
            == hashlib.sha256(blob.encode()).hexdigest()[:12])
