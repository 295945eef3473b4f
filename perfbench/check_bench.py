"""Tests of the benchmark itself: input generation, output checks and the
traced run.  They run the CLI once per workload (about 20 s in all):

    python -m pytest perfbench/check_bench.py

The file name keeps them out of the package's own test collection.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import run
import workloads

SEED = 3


def _env():
    return dict(os.environ, PYTHONPATH=str(run.SRC))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced invocation per workload: (workload, Invocation)."""
    out = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        wl = workloads.generate(name, SEED, workdir)
        out[name] = (wl, run.invoke(wl, workdir, _env(), traced=True))
    return out


def _doc(traced, name):
    wl, inv = traced[name]
    assert inv.problems == []
    return wl, json.loads(inv.output)


def _rejects(wl, doc):
    return workloads.check(wl, json.dumps(doc).encode()) != []


# -- generator -------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    def files(seed, sub):
        wl = workloads.generate(name, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in sorted(wl.config.parent.iterdir())}

    first = files(7, "a")
    assert len(first) == 2
    assert files(7, "b") == first
    assert files(8, "c") != first


def test_density_mass_needs_no_renormalization(tmp_path):
    wl = workloads.generate("density-domain", 1, tmp_path)
    cfg = json.loads(wl.config.read_text())
    grid = json.loads((tmp_path / cfg["measure"]).read_text())["grid"]
    x = [r[0] for r in grid]
    f = [r[1] for r in grid]
    mass = sum(0.5 * (x[i + 1] - x[i]) * (f[i] + f[i + 1])
               for i in range(len(x) - 1))
    assert len(grid) == workloads.DENSITY_ROWS
    assert abs(mass - 1.0) < 1e-12


# -- output checks reject corrupted documents --------------------------------


def test_lifetime_check_rejects_corruption(traced):
    wl, doc = _doc(traced, "atomic-lifetime")
    assert not _rejects(wl, doc)
    bad = copy.deepcopy(doc)
    bad["values"][100][200] *= 1.0 + 1e-6
    assert _rejects(wl, bad)
    bad = copy.deepcopy(doc)
    bad["bounds"][0] = -2.9
    assert _rejects(wl, bad)
    bad = copy.deepcopy(doc)
    bad["values"] = bad["values"][:-1]
    assert _rejects(wl, bad)


def test_domain_check_rejects_corruption(traced):
    wl, doc = _doc(traced, "density-domain")
    assert not _rejects(wl, doc)

    bad = copy.deepcopy(doc)
    bad["sigma"]["polylines"][0]["closed"] = False
    assert _rejects(wl, bad)

    bad = copy.deepcopy(doc)
    pt = bad["sigma"]["polylines"][0]["points"][5]
    pt[0], pt[1] = 1.02 * pt[0], 1.02 * pt[1]
    assert _rejects(wl, bad)

    bad = copy.deepcopy(doc)
    bad["mapped"]["polylines"][0]["points"][5][1] += 1e-3
    assert _rejects(wl, bad)

    bad = copy.deepcopy(doc)
    del bad["mapped"]["polylines"][0]["points"][5]
    assert _rejects(wl, bad)

    # an extra point that is not the image of its source segment
    bad = copy.deepcopy(doc)
    pts = bad["mapped"]["polylines"][0]["points"]
    pts.insert(6, [pts[5][0] + 0.05, pts[5][1] + 0.05])
    assert _rejects(wl, bad)


def test_domain_check_accepts_inserted_midpoints(traced):
    wl, doc = _doc(traced, "density-domain")
    c, r, gamma = (wl.params[k] for k in ("centre", "radius", "gamma"))
    z0, z1 = (complex(*p) for p in doc["sigma"]["polylines"][0]["points"][:2])
    w = complex(0.5 * (z0 + z1)) + gamma * complex(
        workloads.semicircle_cauchy(0.5 * (z0 + z1), c, r))
    doc["mapped"]["polylines"][0]["points"].insert(1, [w.real, w.imag])
    assert not _rejects(wl, doc)


def test_oracle_check_rejects_corruption(traced):
    wl, doc = _doc(traced, "mult-oracle")
    assert not _rejects(wl, doc)
    bad = copy.deepcopy(doc)
    bad["support"]["fraction"] = 0.85
    assert _rejects(wl, bad)
    bad = copy.deepcopy(doc)
    bad["dsde_probes"][1]["abs_diff"] = 2 * bad["dsde_probes"][1]["tol_hint"]
    assert _rejects(wl, bad)
    bad = copy.deepcopy(doc)
    bad["seed"] += 1
    assert _rejects(wl, bad)


def test_rerun_with_other_output_fails(monkeypatch):
    outputs = iter([b"a", b"a", b"b"])

    def fake_invoke(wl, workdir, env, traced):
        return run.Invocation(1.0, 1.0, next(outputs), [])

    monkeypatch.setattr(run, "invoke", fake_invoke)
    runs, _ = run.measure(None, None, None, 0.0, True)
    assert [bool(r.problems) for r in runs] == [False, False, True]


def test_cli_error_counts_as_failure(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"model": "nope"}))
    wl = workloads.Workload("atomic-lifetime", ("lifetime", "--config", "bad.json"),
                            tmp_path / "bad.json", {})
    inv = run.invoke(wl, tmp_path, _env(), traced=False)
    assert "exit code 2" in inv.problems
    assert any("error object" in p for p in inv.problems)


# -- the traced run ----------------------------------------------------------


def _per_layer_names():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"]]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced, name):
    wl, inv = traced[name]
    plain = run.Invocation(inv.wall_s, inv.rss_mb, inv.output, [])
    result = run.report(Namespace(trace=1), [plain, inv], [])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _per_layer_names()


# each workload stresses the layer it was chosen for
@pytest.mark.parametrize("name,share", [("density-domain", "measures.busy_share"),
                                        ("atomic-lifetime", "region.emit_share"),
                                        ("mult-oracle", "rmt.sample_share")])
def test_workload_stresses_its_layer(traced, name, share):
    metrics = run.tracer.layer_metrics(traced[name][1].spans)
    assert metrics[share] > 0.5


def test_traced_counts(traced):
    m = run.tracer.layer_metrics(traced["density-domain"][1].spans)
    assert m["region.grid_points"] == 256 * 256
    assert m["measures.pairs"] >= 256 * 256 * workloads.DENSITY_ROWS
    assert m["additive.map_calls"] == m["region.map_evals"] > 0
    m = run.tracer.layer_metrics(traced["mult-oracle"][1].spans)
    assert m["rmt.factors"] == 2 * workloads.ORACLE_K
    assert m["multiplicative.map_calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "density-domain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
