"""Byte identity of this tree's outputs against another revision or tree.

    python tools/identity.py --against REV|DIR [--expect PATTERN ...] [--small]

The other tree is DIR, or ``git archive REV`` unpacked into a temporary
directory next to this repository and removed afterwards.  One fixed
corpus runs on both trees, in a fresh interpreter per tree and BLAS
setting: once with ``OPENBLAS_NUM_THREADS=1`` and once with the
environment's default.  The corpus is

* CLI runs of every verb through ``metaplectic.cli.main``, in process, each
  in its own directory: stdout, stderr, exit code and every file the run
  writes (``--out``, ``--csv``), on input files this script writes itself,
  including malformed, CRLF and non-finite ones, and every failing run of
  ``tests/test_cli.py::FAILING_RUNS`` (``FAILING_RUNS`` here, checked
  against it by a tier-1 test);
* library records: the bytes (``tobytes()``) of the distributions, every
  operator stage, ``apply_metaplectic``, ``tensor_with_conj``,
  ``partial_dft``/``partial_idft`` and ``opA_build``/``opA_apply``, and the
  ``repr`` of the streamed norms and the probe reports' text, on d = 1 and
  2 grids, among them one whose x-rows are larger than a slab; the SHA-256
  of the ``grid-function`` and CSV text written from
  ``streamed_distribution``'s slabs on that grid; and, for the corpus
  matrices and ``random_symplectic`` seeds 0-3, the bytes of
  ``dj_factorize`` (Q, L, P, J and the residual), the ``classify_lp``
  verdict, and the ``.mat`` bytes of the generators built from the
  factorization; the bytes of ``dj_factorize`` on ``random_symplectic``
  seeds 0-3 at d = 16 and on the ``vetoed-top`` matrices of
  ``tests/test_interchange_search.py`` at tol 1e-3; and the fields of
  ``perfbench/workloads.py::analyse`` (arrays by their bytes, the rest by
  ``repr``) on the 32 d = 12 matrices of the ``matrix-analysis`` pool at
  its default seed.  A call that raises records its exception's type and
  message.

Each record is compared byte for byte and each difference is printed with
the record's name (``cli/<case>/<stdout|stderr|exit|file>`` or
``lib/<name>``).  The exit status is 1 when a difference matches no
``--expect`` pattern (``fnmatch`` syntax), and 0 otherwise.  ``--small``
runs a corpus of a few records, for a quick check of the harness itself.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the two BLAS settings: one thread, and whatever the environment gives
SETTINGS = {"OPENBLAS_NUM_THREADS=1": {"OPENBLAS_NUM_THREADS": "1"}, "default BLAS": {}}


# -- input files, written without the package ------------------------------------


def _signal_text(axes, values, newline="\n") -> str:
    lines = ["grid-function v1", f"d {len(axes)}"] + [f"axis {n} {step!r}" for n, step in axes]
    lines += ["values"] + [f"{float(v.real)!r} {float(v.imag)!r}" for v in values.ravel()]
    return newline.join(lines) + newline


def _matrix_text(mat) -> str:
    rows = ["row " + " ".join(repr(float(v)) for v in row) for row in mat]
    return "\n".join(["symplectic-matrix v1", f"d {len(mat) // 2}"] + rows) + "\n"


def _points(n: int, step: float):
    import numpy as np

    return (np.arange(n) - n // 2) * step


def _gaussian(axes, lam: float, shift: float, mod: float):
    import numpy as np

    mesh = np.meshgrid(*(_points(n, step) for n, step in axes), indexing="ij")
    return np.exp(sum(-math.pi * lam * (x - shift) ** 2 + 2j * math.pi * mod * x for x in mesh))


def _write_inputs(where: Path) -> None:
    """The input files of the CLI runs."""
    import numpy as np

    where.mkdir()
    rng = np.random.default_rng(7)
    d1, d1r = [(64, 0.125)], [(128, 0.09375)]
    d2, d2m = [(8, 8**-0.5)] * 2, [(8, 0.3), (6, 0.45)]
    wigner_axes = [(64, 0.125), (64, 0.0625)]
    files = {
        "sig1.gf": _signal_text(d1, _gaussian(d1, 1.2, 0.3, 0.5)),
        "win1.gf": _signal_text(d1, _gaussian(d1, 0.8, -0.2, 0.0)),
        "noise1.gf": _signal_text(d1, rng.normal(size=64) + 1j * rng.normal(size=64)),
        "sig1r.gf": _signal_text(d1r, _gaussian(d1r, 0.5, 0.0, 0.25)),
        "sig2.gf": _signal_text(d2, _gaussian(d2, 1.0, 0.2, 0.3)),
        "sig2m.gf": _signal_text(d2m, _gaussian(d2m, 1.5, 0.0, 0.0)),
        "win2m.gf": _signal_text(d2m, rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))),
        "crlf1.gf": _signal_text(d1, _gaussian(d1, 1.0, 0.0, 0.0), "\r\n"),
        "comment1.gf": "# a comment\n" + _signal_text(d1, _gaussian(d1, 1.0, 0.0, 0.0)),
        "inf1.gf": _signal_text(d1, np.r_[np.inf, np.ones(63)]),
        "tiny1.gf": _signal_text(d1, 1e-300 * _gaussian(d1, 1.0, 0.0, 0.0)),
        "short1.gf": _signal_text(d1, np.ones(64))[:-40],
        # a symbol on the Wigner grid of sig1: the signal axis, then the
        # frequency axis at half the dual step
        "symbol.gf": _signal_text(wigner_axes, _gaussian(wigner_axes, 0.7, 0.0, 0.1)),
        # and on the doubled grid, the output grid of generic.mat
        "symbol-generic.gf": _signal_text(d1 * 2, _gaussian(d1 * 2, 0.7, 0.0, 0.1)),
        **{f"{name}.mat": _matrix_text(mat) for name, mat in _corpus_matrices().items()},
        # the signals and the symbol of FAILING_RUNS, on the grid (8, 0.5)
        "big.gf": _signal_text([(8, 0.5)], np.full(8, 1.5e308 + 1.5e308j)),
        "b.gf": _signal_text([(8, 0.5)], np.full(8, 1e200)),
        "Sy.gf": _signal_text([(8, 0.5), (8, 0.125)], np.ones((8, 8))),
        "E999.mat": "symplectic-matrix v1\nd 1\nrow 1e999 0.0\nrow 0.0 1.0\n",
    }
    for name, text in files.items():
        with open(where / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _corpus_matrices() -> dict:
    """The corpus matrices: the CLI runs read them as ``<name>.mat``, and the
    library records factorize and classify them."""
    return {
        "J": [[0.0, 1.0], [-1.0, 0.0]],
        "shear": [[1.0, 0.0], [0.5, 1.0]],
        "dilation": [[2.0, 0.0], [0.0, 0.5]],
        "wigner": [[0.5, 0.5, 0, 0], [0, 0, 0.5, -0.5], [0, 0, 1, 1], [-1, 1, 0, 0]],
        # the Wigner matrix after a chirp: no classical kind
        "generic": [[0.5, 0.5, 0, 0], [0.15, -0.15, 0.5, -0.5], [0.3, 0.3, 1, 1], [-1, 1, 0, 0]],
        "S2": _symplectic_d2(),
        "singular-b": [[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]],
        "not-symplectic": [[1.0, 2.0], [3.0, 4.0]],
        "nan": [[math.nan, 1.0], [-1.0, 0.0]],
        "I": [[1.0, 0.0], [0.0, 1.0]],
        "H": [[1e10, 0.0], [0.0, 1e-10]],
        "rihacek": [[1.0, 0, 0, 0], [0, 0, 0, -1.0], [0, 0, 1.0, 1.0], [-1.0, 1.0, 0, 0]],
        "inf": [[math.inf, 0.0], [0.0, 1.0]],
        "nan-b": [[1.0, math.nan], [0.0, 1.0]],
    }


def _symplectic_d2():
    """[[L, 0], [Q L, L^-T]] [[0, I], [-I, 0]] for a fixed L and symmetric Q."""
    import numpy as np

    L = np.array([[1.5, 0.25], [-0.5, 0.75]])
    Q = np.array([[0.4, -0.2], [-0.2, 0.9]])
    Z, eye = np.zeros((2, 2)), np.eye(2)
    lower = np.block([[L, Z], [Q @ L, np.linalg.inv(L).T]])
    return lower @ np.block([[Z, eye], [-eye, Z]])


# -- the corpus ----------------------------------------------------------------------


#: the input files, as a CLI run sees them from its own directory
IN = "../../in/"

#: the argv of each case of ``tests/test_cli.py::FAILING_RUNS``, around its
#: files: {R} is a d = 2 symplectic matrix there and S2 here, and {o} and {t}
#: are files the run must not write
FAILING_RUNS = {
    "sample-overflow": ["sample", "--n", "8", "--shift", "1e200", "--out", "{t}"],
    "apply-csv-overflow": ["apply", "{I}", "{big}", "--out", "{o}", "--csv", "{t}"],
    "wigner-overflow": ["wigner", "{b}", "--out", "{t}"],
    "apply-overflow": ["apply", "{I}", "{b}", "--out", "{t}"],
    "apply-norm-overflow": ["apply", "{I}", "{big}", "--out", "{t}"],
    "probe-isometry-q": ["probe", "isometry", "{T}", "--p", "2", "--q", "4", "--out", "{t}"],
    "probe-normequiv-tol": ["probe", "normequiv", "{R}", "--p", "2", "--q", "2", "--n", "16", "--tol", "0.3",
                            "--out", "{t}"],
    "check-tol-zero": ["check", "{T}", "--tol", "0"],
    "classify-tol-negative": ["classify", "{T}", "--p", "2", "--tol", "-1"],
    "classify-tol-nan": ["classify", "{T}", "--p", "2", "--tol", "nan"],
    "factorize-tol": ["factorize", "{T}", "--tol=-1e-9", "--out", "{t}"],
    "apply-tol": ["apply", "{T}", "{b}", "--tol", "0", "--out", "{t}"],
    "probe-tol": ["probe", "isometry", "{T}", "--p", "2", "--tol", "-1", "--out", "{t}"],
    "classify-tol-hundred": ["classify", "{J}", "--p", "1.5", "--tol", "100"],
    "classify-tol-one": ["classify", "{J}", "--p", "1.5", "--tol", "1"],
    "classify-tol-inf": ["classify", "{J}", "--p", "1.5", "--tol", "inf"],
    "quantize-out-without-signal": ["quantize", "{Sy}", "--out", "{o}", "--csv", "{t}"],
    "classify-norm-overflow": ["classify", "{H}", "--p", "0.01"],
    "probe-isometry-overflow": ["probe", "isometry", "{H}", "--p", "0.01", "--out", "{t}"],
    "sample-memory": ["sample", "--d", "4", "--n", "16384", "--out", "{t}"],
    "probe-normequiv-overflow": ["probe", "normequiv", "{W}", "--p", "3000", "--q", "1", "--n", "16", "--out", "{t}"],
    "probe-normequiv-underflow": ["probe", "normequiv", "{Rh}", "--p", "3000", "--q", "1", "--n", "8",
                                  "--out", "{t}"],
    "probe-isometry-underflow": ["probe", "isometry", "{T}", "--p", "3000", "--out", "{t}"],
    "probe-beckner-underflow": ["probe", "beckner", "{J}", "--p", "1.0005", "--lambdas", "1,2,4", "--out", "{t}"],
    "check-inf": ["check", "{Inf}"],
    "check-nan": ["check", "{NaN}"],
    "check-1e999": ["check", "{E999}"],
    "factorize-inf": ["factorize", "{Inf}", "--out", "{t}"],
    "factorize-1e999": ["factorize", "{E999}", "--out", "{t}"],
    "classify-nan": ["classify", "{NaN}", "--p", "2"],
    "apply-inf": ["apply", "{Inf}", "{b}", "--out", "{t}"],
    "probe-nan": ["probe", "isometry", "{NaN}", "--p", "2", "--out", "{t}"],
    "quantize-matrix-1e999": ["quantize", "{Sy}", "--matrix", "{E999}"],
}

#: the input file of each placeholder of ``FAILING_RUNS``
_FAILING_FILES = {
    "I": "I.mat", "J": "J.mat", "T": "dilation.mat", "R": "S2.mat", "H": "H.mat", "W": "wigner.mat",
    "Rh": "rihacek.mat", "big": "big.gf", "b": "b.gf", "Sy": "Sy.gf", "Inf": "inf.mat", "NaN": "nan-b.mat",
    "E999": "E999.mat",
}


def _cli_runs(small: bool) -> dict[str, list[str]]:
    """Case name -> argv."""
    runs = {
        "sample-d1": ["sample", "--n", "64", "--out", "s.gf"],
        "wigner-stft": ["wigner", IN + "sig1.gf", "--kind", "stft", "--out", "W.gf", "--csv", "W.csv"],
        "apply-J": ["apply", IN + "J.mat", IN + "sig1.gf", "--out", "out.gf", "--csv", "out.csv"],
    }
    if small:
        return runs
    runs |= {
        "sample-d2": ["sample", "--d", "2", "--n", "8", "--lam", "1.5", "--shift", "0.2", "--mod", "0.3",
                      "--out", "s.gf"],
        "sample-regular": ["sample", "--n", "128", "--extent", "6", "--lam", "0.5", "--out", "s.gf"],
        "check-J": ["check", IN + "J.mat"],
        "check-S2": ["check", IN + "S2.mat", "--tol", "1e-9"],
        "check-not-symplectic": ["check", IN + "not-symplectic.mat"],
        "check-nan": ["check", IN + "nan.mat"],
        "factorize-J": ["factorize", IN + "J.mat", "--out", "F.dj"],
        "factorize-S2": ["factorize", IN + "S2.mat", "--out", "F.dj"],
        "factorize-wigner": ["factorize", IN + "wigner.mat", "--out", "F.dj"],
        "classify-J": ["classify", IN + "J.mat", "--p", "1"],
        "classify-S2": ["classify", IN + "S2.mat", "--p", "2", "--q", "4"],
        "classify-dilation": ["classify", IN + "dilation.mat", "--p", "4", "--q", "2"],
        "classify-singular-b": ["classify", IN + "singular-b.mat", "--p", "1", "--q", "2"],
        "apply-shear-regular": ["apply", IN + "shear.mat", IN + "sig1r.gf", "--out", "out.gf"],
        "apply-dilation": ["apply", IN + "dilation.mat", IN + "noise1.gf", "--out", "out.gf", "--csv", "out.csv"],
        "apply-S2": ["apply", IN + "S2.mat", IN + "sig2.gf", "--out", "out.gf", "--csv", "out.csv"],
        "apply-S2-mixed-steps": ["apply", IN + "S2.mat", IN + "sig2m.gf", "--out", "out.gf"],
        "apply-crlf": ["apply", IN + "J.mat", IN + "crlf1.gf", "--out", "out.gf"],
        "apply-comment": ["apply", IN + "J.mat", IN + "comment1.gf", "--out", "out.gf"],
        "apply-tiny": ["apply", IN + "J.mat", IN + "tiny1.gf", "--out", "out.gf"],
        "apply-inf": ["apply", IN + "J.mat", IN + "inf1.gf", "--out", "out.gf"],
        "apply-short": ["apply", IN + "J.mat", IN + "short1.gf", "--out", "out.gf"],
        "apply-missing": ["apply", IN + "J.mat", IN + "missing.gf"],
        "apply-usage": ["apply", IN + "J.mat"],
        "quantize": ["quantize", IN + "symbol.gf"],
        "quantize-signal": ["quantize", IN + "symbol.gf", "--signal", IN + "sig1.gf", "--out", "q.gf",
                            "--csv", "q.csv"],
        "quantize-generic": ["quantize", IN + "symbol-generic.gf", "--matrix", IN + "generic.mat",
                             "--signal", IN + "noise1.gf", "--out", "q.gf"],
        "quantize-out-without-signal": ["quantize", IN + "symbol.gf", "--out", "q.gf"],
        "probe-beckner": ["probe", "beckner", IN + "J.mat", "--p", "1", "--n", "64", "--out", "r.txt"],
        "probe-isometry": ["probe", "isometry", IN + "dilation.mat", "--p", "2", "--n", "64", "--out", "r.txt"],
        "probe-unbounded": ["probe", "unbounded", IN + "singular-b.mat", "--p", "2", "--q", "2", "--n", "32"],
        "probe-normequiv": ["probe", "normequiv", IN + "wigner.mat", "--p", "2", "--q", "1", "--n", "64",
                            "--lambdas", "0.5,1,2"],
        "probe-normequiv-generic": ["probe", "normequiv", IN + "generic.mat", "--p", "2", "--q", "2", "--n", "32"],
        "probe-bad-q": ["probe", "isometry", IN + "dilation.mat", "--p", "2", "--q", "3"],
        "demo": ["demo", "--steps", "4"],
        "wigner-regular": ["wigner", IN + "sig1r.gf", "--out", "W.gf"],
        "wigner-window-grid-mismatch": ["wigner", IN + "sig1.gf", "--window", IN + "sig1r.gf"],
        "wigner-inf": ["wigner", IN + "inf1.gf", "--out", "W.gf"],
    }
    for kind in ("wigner", "stft", "rihacek"):
        written = ["--kind", kind, "--out", "W.gf"]
        runs[f"wigner-{kind}-d1"] = ["wigner", IN + "sig1.gf", *written, "--csv", "W.csv"]
        runs[f"wigner-{kind}-window"] = ["wigner", IN + "noise1.gf", "--window", IN + "win1.gf", *written]
        runs[f"wigner-{kind}-d2"] = ["wigner", IN + "sig2.gf", *written, "--csv", "W.csv"]
        runs[f"wigner-{kind}-mixed-steps"] = ["wigner", IN + "sig2m.gf", "--window", IN + "win2m.gf", *written]
    files = {key: IN + name for key, name in _FAILING_FILES.items()} | {"o": "o.gf", "t": "t.gf"}
    for case, argv in FAILING_RUNS.items():
        runs[f"failing-{case}"] = [arg.format(**files) for arg in argv]
    return runs


def _library_records(small: bool):
    """(name, thunk) pairs of the library records.  Each thunk reads the
    loop's variables when it is called, before the next pair is made."""
    import numpy as np

    import metaplectic.metaplectic_numeric as mn
    import metaplectic.probes as probes
    import metaplectic.symplectic_core as sc

    def noise(grid, seed):
        rng = np.random.default_rng(seed)
        return mn.GridFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))

    grids = {"d1-64": mn.Grid.selfdual(1, 64), "d2-8x6": mn.Grid((mn.Axis(8, 0.3), mn.Axis(6, 0.45)))}
    if not small:
        grids.update({
            "d1-512": mn.Grid.selfdual(1, 512),
            "d1-1000": mn.Grid((mn.Axis(1000, 0.031),)),
            "d1-regular": mn.Grid.regular(1, 128, 6.0),
            "d2-16": mn.Grid.selfdual(2, 16),
            "d2-24x16": mn.Grid((mn.Axis(24, 0.21), mn.Axis(16, 0.37))),
            # an x-row of the distributions is 2 MiB, past one slab
            "d2-2x256": mn.Grid((mn.Axis(2, 0.7), mn.Axis(256, 0.0625))),
        })
    kinds = {"wigner": mn.wigner_projection, "stft": mn.stft_projection, "rihacek": mn.rihacek_projection}
    for gname, grid in grids.items():
        f, g = noise(grid, 1), noise(grid, 2)
        yield f"wigner-auto-{gname}", lambda: mn.wigner(f)
        yield f"wigner-{gname}", lambda: mn.wigner(f, g)
        yield f"stft-{gname}", lambda: mn.stft(f, g)
        yield f"rihacek-{gname}", lambda: mn.rihacek(f, g)
        for kind, projection in kinds.items():
            A = projection(grid.d)
            for p, q in ((2.0, 2.0), (2.0, 1.0), (1.0, 4.0), (math.inf, 2.0), (0.5, math.inf)):
                norm = lambda: mn.distribution_norm(A, f, g, p, q)
                yield f"distribution_norm-{kind}-{gname}-{p}-{q}", norm
        for p in (1.0, 2.0, math.inf):
            yield f"mp_norm-{gname}-{p}", lambda: mn.mp_norm(f, g, p)
        yield f"mp_norm-{gname}-2-1", lambda: mn.mp_norm(f, g, 2.0, 1.0)
        if small:
            break
        yield f"tensor_with_conj-{gname}", lambda: mn.tensor_with_conj(f, g)
        yield from _stage_records(grid, f, gname)
        if gname == "d2-2x256":
            for kind in kinds:
                yield f"streamed_distribution-{kind}-{gname}", lambda: _streamed_text(kind, f, g)

    s = noise(mn.Grid.selfdual(1, 32), 3)
    generic = mn.wigner_projection(1) @ sc.chirp_block(0.3 * np.eye(2))
    yield "wigner_metaplectic-stft", lambda: mn.wigner_metaplectic(mn.stft_projection(1), s, s)
    yield "wigner_metaplectic-generic", lambda: mn.wigner_metaplectic(generic, s, s)
    if small:
        return
    yield "distribution_norm-generic", lambda: mn.distribution_norm(generic, s, s, 2.0, 1.0)
    for seed in range(4):
        for d in (1, 2):
            S = sc.random_symplectic(seed, d)
            f = noise(mn.Grid.selfdual(d, 64 if d == 1 else 16), seed)
            yield f"random_symplectic-{seed}-{d}", lambda: S.mat
            yield f"apply_metaplectic-{seed}-{d}", lambda: mn.apply_metaplectic(S, f)
            yield from _matrix_records(f"random_symplectic-{seed}-{d}", lambda: S)
    for name, mat in _corpus_matrices().items():
        yield from _matrix_records(f"corpus-{name}", lambda: sc.SymplecticMatrix(mat))
    for seed in range(4):
        S = sc.random_symplectic(seed, 16)
        yield f"dj_factorize-random_symplectic-{seed}-16", lambda: sc.dj_factorize(S)
    # the matrices of tests/test_interchange_search.py whose largest |det X(J)|
    # fails the verdict at tol 1e-3
    stretch = sc.dilation_block(np.diag([100.0, 1.0, 1.0, 1.0]))
    for seed in (115, 179, 195):
        S = sc.random_symplectic(seed, 4) @ stretch @ sc.random_symplectic(seed + 1000, 4)
        yield f"dj_factorize-vetoed-top-{seed}-1e-3", lambda: sc.dj_factorize(S, 1e-3)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import MatrixAnalysis, analyse

    for i, S in enumerate(MatrixAnalysis(0, None).pool):
        yield f"analyse-pool-{i}", lambda: analyse(S)
    # each symbol on the output grid of its matrix
    for name, A in (("wigner", mn.wigner_projection(1)), ("generic", generic)):
        symbol = mn.wigner_metaplectic(A, s, s)
        yield f"opA_build-{name}", lambda: mn.opA_build(symbol, A)
        yield f"opA_apply-{name}", lambda: mn.opA_apply(mn.opA_build(symbol, A), s)
    J, dil = sc.standard_involution(1), sc.SymplecticMatrix(np.diag([2.0, 0.5]))
    singular_b = sc.SymplecticMatrix(
        np.array([[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1.0]])
    )
    yield "beckner_probe", lambda: probes.beckner_probe(J, 1.0, n=64)
    yield "quasi_isometry_probe", lambda: probes.quasi_isometry_probe(dil, 2.0, n=64)
    yield "unbounded_probe", lambda: probes.unbounded_probe(singular_b, 2.0, 2.0, n=32)
    yield "norm_equiv_probe", lambda: probes.norm_equiv_probe(mn.wigner_projection(1), 2.0, 1.0, n=64)


def _streamed_text(kind, f, g) -> str:
    """The L^2 norm of ``streamed_distribution`` and the SHA-256 of the
    ``grid-function`` and CSV text its slabs write."""
    import metaplectic.metaplectic_numeric as mn
    from metaplectic.io import csv_blocks, grid_function_blocks

    grid, l2, slabs = mn.streamed_distribution(kind, f, g)
    out = [repr(l2)]
    for writer in (grid_function_blocks, csv_blocks):
        digest = hashlib.sha256()
        for block in writer(grid, slabs()):
            digest.update(block.encode())
        out.append(digest.hexdigest())
    return "\n".join(out)


def _matrix_records(name, matrix):
    """The records of the matrix layer on the matrix that ``matrix()``
    makes: its ``dj_factorize``, its ``classify_lp`` verdict and the
    generators built from the factorization."""
    import metaplectic.symplectic_core as sc

    def generators():
        fact = sc.dj_factorize(matrix())
        blocks = (
            sc.chirp_block(fact.Q),
            sc.dilation_block(fact.L),
            sc.multiplier_block(fact.P),
            sc.interchange(fact.J),
            sc.standard_involution(fact.d),
        )
        return b"".join(block.mat.tobytes() for block in blocks)

    yield f"dj_factorize-{name}", lambda: sc.dj_factorize(matrix())
    yield f"classify_lp-{name}", lambda: sc.classify_lp(matrix())
    yield f"generators-{name}", generators


def _stage_records(grid, f, gname):
    import numpy as np

    import metaplectic.metaplectic_numeric as mn
    import metaplectic.symplectic_core as sc

    d = grid.d
    P = np.diag(np.linspace(0.3, -0.5, d)) + 0.1 * (1 - np.eye(d))
    scales = np.diag(np.linspace(1.3, 0.7, d))
    rescalings = {"scale": scales, "negate": -np.eye(d), "unit": np.eye(d)}
    if d == 2:
        rescalings["swap"] = np.array([[0.0, 1.0], [1.0, 0.0]])
        rescalings["shear"] = np.array([[1.0, 0.5], [0.0, 1.0]])
        rescalings["full"] = np.array([[1.2, 0.3], [-0.4, 0.9]])
    for members in ((), (1,), tuple(range(1, d + 1))):
        J = sc.IndexSet.of(d, members)
        yield f"partial_ft-{gname}-{members}", lambda: mn.partial_ft(f, J)
    yield f"multiplier_apply-{gname}", lambda: mn.multiplier_apply(P, f)
    yield f"chirp_apply-{gname}", lambda: mn.chirp_apply(-P, f)
    for name, L in rescalings.items():
        yield f"rescale_apply-{gname}-{name}", lambda: mn.rescale_apply(L, f)
    yield f"tf_shift-{gname}", lambda: mn.tf_shift(f, 0.3, -0.2, 0.1)
    yield f"tf_shift-{gname}-none", lambda: mn.tf_shift(f, 0.0, 0.0)
    yield f"partial_dft-{gname}", lambda: mn.partial_dft(f, (0,))
    yield f"partial_idft-{gname}", lambda: mn.partial_idft(f, tuple(range(d)))


def _record_bytes(value) -> bytes:
    import numpy as np

    if hasattr(value, "grid") and hasattr(value, "values"):
        axes = " ".join(f"{ax.n}:{ax.step!r}" for ax in value.grid.axes)
        return f"{axes}\n{value.values.dtype.str}\n".encode() + value.values.tobytes()
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str} {value.shape}\n".encode() + value.tobytes()
    if isinstance(value, dict):
        return b"".join(f"{key}: ".encode() + _record_bytes(item) + b"\n" for key, item in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # each field by this function: arrays by their bytes, the rest by repr
        fields = dataclasses.fields(value)
        return b"".join(f"{x.name}: ".encode() + _record_bytes(getattr(value, x.name)) + b"\n" for x in fields)
    if hasattr(value, "ratios"):
        from metaplectic.io import write_probe_report

        return write_probe_report(value).encode()
    return repr(value).encode()


def run_corpus(out: Path, small: bool) -> None:
    """Write every record of the corpus under ``out`` (the runner's side)."""
    import numpy as np

    import metaplectic
    from metaplectic.cli import main

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(metaplectic.__file__).resolve().parents:
        raise SystemExit(f"metaplectic was imported from {metaplectic.__file__}, not from {src}")
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    _write_inputs(out / "in")
    for case, argv in _cli_runs(small).items():
        where = out / "cli" / case
        where.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        os.chdir(where)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        os.chdir(out)
        files = sorted(where.iterdir())
        for name in files:
            name.rename(where / f"file-{name.name}")
        (where / "stdout").write_text(stdout.getvalue(), encoding="utf-8")
        (where / "stderr").write_text(stderr.getvalue(), encoding="utf-8")
        (where / "exit").write_text(f"{code}\n")
    lib = out / "lib"
    lib.mkdir()
    for name, thunk in _library_records(small):
        try:
            # the floating-point faults the CLI fails on
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                record = _record_bytes(thunk())
        except Exception as exc:  # the record is the failure
            record = f"{type(exc).__name__}: {exc}".encode()
        (lib / name).write_bytes(record)


# -- the comparison --------------------------------------------------------------------


def _records(out: Path) -> dict[str, bytes]:
    """Record name -> bytes: ``cli/<case>/<part>`` and ``lib/<name>``."""
    return {
        str(path.relative_to(out)): path.read_bytes()
        for top in ("cli", "lib")
        for path in sorted((out / top).rglob("*"))
        if path.is_file()
    }


def _run_tree(tree: Path, env: dict, work: Path, small: bool) -> dict[str, bytes]:
    work.mkdir()
    env = {**env, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, str(Path(__file__).resolve()), "--run-corpus", str(work)]
    subprocess.run(argv + (["--small"] if small else []), env=env, check=True)
    return _records(work)


def _differences(ours: dict[str, bytes], theirs: dict[str, bytes]) -> list[tuple[str, str]]:
    out = []
    for name in sorted(set(ours) | set(theirs)):
        if name not in ours or name not in theirs:
            out.append((name, "only in " + ("this tree" if name in ours else "the other tree")))
        elif ours[name] != theirs[name]:
            a, b = ours[name], theirs[name]
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            out.append((name, f"{len(a)} against {len(b)} bytes, first difference at byte {at}"))
    return out


@contextlib.contextmanager
def _other_tree(against: str):
    if Path(against).is_dir():
        yield Path(against).resolve()
        return
    with tempfile.TemporaryDirectory(prefix=ROOT.name + "-identity-", dir=ROOT.parent) as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", against], capture_output=True, check=True
        )
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        yield Path(tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="a git revision, or a directory holding another tree")
    parser.add_argument(
        "--expect", action="append", default=[], help="a record name pattern that may differ"
    )
    parser.add_argument("--small", action="store_true", help="run the small corpus")
    parser.add_argument("--run-corpus", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_corpus:
        run_corpus(Path(args.run_corpus), args.small)
        return 0
    if not args.against:
        parser.error("--against is required")
    base_env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "PYTHONPATH"):
        base_env.pop(key, None)
    unexpected = 0
    with _other_tree(args.against) as other, tempfile.TemporaryDirectory() as work:
        for i, (setting, extra) in enumerate(SETTINGS.items()):
            env = {**base_env, **extra}
            ours = _run_tree(ROOT, env, Path(work) / f"ours-{i}", args.small)
            theirs = _run_tree(other, env, Path(work) / f"theirs-{i}", args.small)
            diffs = _differences(ours, theirs)
            for name, what in diffs:
                expected = any(fnmatch.fnmatchcase(name, pattern) for pattern in args.expect)
                unexpected += not expected
                print(f"{'expected' if expected else 'DIFFERS'} [{setting}] {name}: {what}")
            print(f"{setting}: {len(ours)} records, {len(diffs)} differ")
    verdict = f"{unexpected} unexpected differences" if unexpected else "ok"
    print(f"identity against {args.against}: {verdict}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
