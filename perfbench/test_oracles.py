"""Each output check accepts the library's output and rejects a corrupted one.

Run from the repository root::

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent)]

import metaplectic.io as mio
import metaplectic.metaplectic_numeric as mn
import metaplectic.probes as probes
import metaplectic.symplectic_core as sc

import oracles
import workloads


# -- operator-apply -------------------------------------------------------------


def _applied(seed: int, m: complex, n: int = 256):
    grid = mn.Grid.selfdual(1, n)
    S = sc.random_symplectic(seed, 1)
    f = mn.GaussianChirp(1.0, [[m]], [0.0]).sample(grid)
    out = mn.apply_metaplectic(S, f).values
    check = lambda values: oracles.check_operator_apply(
        S.mat, m, grid.axes[0].points(), grid.axes[0].step, f.values, values
    )
    return out, check


def test_operator_apply_accepts_the_pipeline_output():
    out, check = _applied(3, 0.2 + 1.1j)
    assert check(out) == ""


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda v: v * 1.001,
        lambda v: np.conj(v),
        lambda v: v * np.exp(1e-4j * np.arange(v.size)),
        lambda v: np.roll(v, 1),
    ],
    ids=["scaled", "conjugated", "phase-ramp", "shifted"],
)
def test_operator_apply_rejects_corrupted_output(corrupt):
    out, check = _applied(3, 0.2 + 1.1j)
    assert check(corrupt(out)) != ""


def test_operator_apply_rejects_the_rescaling_fault():
    # random_symplectic(5, 1) factors with |L| > 2: periodic replicas enter
    out, check = _applied(workloads.OperatorApply.FAULT_SEED, 1j)
    assert "l2 norm" in check(out)


# -- phase-space-norms ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["wigner", "rihacek"])
def test_norm_probe_accepts_measured_ratios(kind):
    A = {"wigner": mn.wigner_projection(1), "rihacek": mn.rihacek_projection(1)}[kind]
    lambdas = (0.6, 1.7)
    report = probes.norm_equiv_probe(A, 2.0, 1.0, lambdas=lambdas, grid=mn.Grid.selfdual(1, 256))
    assert oracles.check_norm_probe(kind, lambdas, 2.0, 1.0, report.ratios, report.verdict) == ""
    bad = (report.ratios[0] * (1 + 1e-6), report.ratios[1])
    assert oracles.check_norm_probe(kind, lambdas, 2.0, 1.0, bad, report.verdict) != ""
    assert oracles.check_norm_probe(kind, lambdas, 2.0, 1.0, report.ratios, "diverges") != ""


def test_wigner_ratio_needs_the_torus_ghost_factor():
    plain = oracles.norm_ratio("wigner", 0.6, 2.0, 1.0) / 2.0 ** 0.5
    ratios = (plain, oracles.norm_ratio("wigner", 1.7, 2.0, 1.0))
    assert oracles.check_norm_probe("wigner", (0.6, 1.7), 2.0, 1.0, ratios, "bounded") != ""


# -- matrix-analysis ------------------------------------------------------------


@pytest.fixture(scope="module")
def analysis():
    S = sc.random_symplectic(11, 4)
    return S.mat, workloads.analyse(S)


def test_matrix_analysis_accepts_the_library_output(analysis):
    S, result = analysis
    assert oracles.check_matrix_analysis(S, result) == ""


def _perturbed(mat):
    out = mat.copy()
    out[0, -1] += 1e-6
    return out


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("case", lambda v: "lower-triangular"),
        ("L", _perturbed),
        ("J", lambda v: tuple(j for j in range(1, 5) if j not in v)),
        ("shift_det", lambda v: v * 1.01),
        ("S_tau", _perturbed),
        ("Xi", _perturbed),
        ("Theta", _perturbed),
        ("M", lambda v: v * 1.001),
        ("Q_diag", _perturbed),
    ],
)
def test_matrix_analysis_rejects_corrupted_output(analysis, field, corrupt):
    S, result = analysis
    bad = dict(result, **{field: corrupt(result[field])})
    assert oracles.check_matrix_analysis(S, bad) != ""


def test_unperturbed_matrix_is_not_shift_invertible():
    # the Rihaczek projection is the textbook non-shift-invertible case
    S = mn.rihacek_projection(1).mat
    sv = np.linalg.svd(oracles.shift_block(S), compute_uv=False)
    assert sv[-1] < 1e-12


# -- cli-roundtrip --------------------------------------------------------------


def test_quantized_wigner_check():
    g = mn.GaussianChirp.dilated(1, 1.3).tf_shift([0.4], [-0.3]).sample(mn.Grid.selfdual(1, 128))
    K = mn.opA_build(mn.wigner(g, g), mn.wigner_projection(1))
    out = mn.opA_apply(K, g)
    g_text = mio.write_grid_function(g)
    assert oracles.check_quantized_wigner(g_text, mio.write_grid_function(out)) == ""
    for bad in (out.values * (1 + 1e-6), g.values, out.values[::-1]):
        text = mio.write_grid_function(g.with_values(bad))
        assert oracles.check_quantized_wigner(g_text, text) != ""


def test_cli_roundtrip_does_not_pass_on_files_of_an_earlier_round(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.CliRoundtrip, "in_process", True)
    wl = workloads.CliRoundtrip(1, tmp_path)
    op = wl.round(0)[0]
    assert wl.check(op, wl.run(op)) == ""
    # a CLI that exits 0 but writes nothing leaves no K file to check
    monkeypatch.setattr(wl, "cli", lambda *argv: f"shape {wl.N} {wl.N}\n")
    assert wl.check(op, wl.run(op)) != ""
