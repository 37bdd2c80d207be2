"""The four workloads: inputs made from a seed, one library call per operation.

Each workload is a closed loop driven by ``run.py``: one client, one
operation at a time.  A workload builds its inputs in its constructor (that
is the set-up the benchmark times), names the operations of one round, runs
one operation, and checks its output with :mod:`oracles`.

Library functions are always called through their module (``sc.dj_factorize``,
not a name imported here), so that the traced run, which rebinds them in the
library's namespaces, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import metaplectic.cli as mcli
import metaplectic.metaplectic_numeric as mn
import metaplectic.probes as probes
import metaplectic.symplectic_core as sc

import oracles


@dataclass(frozen=True)
class Op:
    """One operation: ``key`` indexes the workload's inputs.

    ``fault`` marks an operation on fixed inputs that hits a known fault of
    the program: its failure is counted, but does not make the run incorrect.
    """

    kind: str
    key: int
    fault: bool = False


class OperatorApply:
    """``apply_metaplectic(S, f)`` at d=1 on ``Grid.selfdual(1, 4096)``."""

    name = "operator-apply"
    N = 4096
    #: random_symplectic seeds of the matrices; every factorization has |L| < 1.6
    S_SEEDS = (3, 7, 12)
    #: random_symplectic(5, 1) factors with L = -2.4967: the rescaling stage
    #: folds periodic replicas into the output, so its l2 norm grows by sqrt(3)
    FAULT_SEED = 5

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.grid = mn.Grid.selfdual(1, self.N)
        self.x = self.grid.axes[0].points()
        self.inputs = []
        for s in self.S_SEEDS:
            m = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
            self.inputs.append(self._input(s, m))
        # the faulty case keeps inputs that do not depend on the seed
        self.inputs.append(self._input(self.FAULT_SEED, 1j))

    def _input(self, s: int, m: complex):
        S = sc.random_symplectic(s, 1)
        f = mn.GaussianChirp(1.0, [[m]], [0.0]).sample(self.grid)
        return S, m, f

    def round(self, k: int) -> list[Op]:
        last = len(self.inputs) - 1
        return [Op("apply", i, fault=i == last) for i in range(len(self.inputs))]

    def warmup(self) -> list[Op]:
        return [Op("apply", 0)]

    def run(self, op: Op):
        S, _, f = self.inputs[op.key]
        return mn.apply_metaplectic(S, f)

    def check(self, op: Op, out) -> str:
        S, m, f = self.inputs[op.key]
        return oracles.check_operator_apply(
            S.mat, m, self.x, self.grid.axes[0].step, f.values, out.values
        )


class PhaseSpaceNorms:
    """One ``norm_equiv_probe`` call on ``Grid.selfdual(1, 2048)`` per operation."""

    name = "phase-space-norms"
    N = 2048
    #: (p, q) pairs; (1, 2) is left out, where the Rihaczek verdict is
    #: decided by a 1e-6 margin against the flatness cutoff
    PAIRS = ((2.0, 1.0), (1.0, 4.0))
    KINDS = ("wigner", "rihacek")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.grid = mn.Grid.selfdual(1, self.N)
        self.matrices = {
            "wigner": mn.wigner_projection(1),
            "rihacek": mn.rihacek_projection(1),
        }
        self.ops = []
        for p, q in self.PAIRS:
            for kind in self.KINDS:
                lambdas = (float(rng.uniform(0.4, 0.8)), float(rng.uniform(1.25, 2.5)))
                self.ops.append((kind, p, q, lambdas))

    def round(self, k: int) -> list[Op]:
        return [Op(spec[0], i) for i, spec in enumerate(self.ops)]

    def warmup(self) -> list[Op]:
        return [Op(self.ops[0][0], 0), Op(self.ops[1][0], 1)]

    def run(self, op: Op):
        kind, p, q, lambdas = self.ops[op.key]
        return probes.norm_equiv_probe(self.matrices[kind], p, q, lambdas=lambdas, grid=self.grid)

    def check(self, op: Op, report) -> str:
        kind, p, q, lambdas = self.ops[op.key]
        return oracles.check_norm_probe(kind, lambdas, p, q, report.ratios, report.verdict)


def analyse(S) -> dict:
    """Shift-invertibility analysis of S in Sp(2d), as plain arrays for the check."""
    verdict = sc.classify_lp(S)
    fact = sc.dj_factorize(S)
    report = sc.shift_invertible(S)
    tau_max = sc.admissible_shift_range(S)
    tau = 0.5 * tau_max if math.isfinite(tau_max) else 0.5
    s_tau, xi, theta = sc.shift_perturb(S, tau)
    split = sc.wigner_split(S)
    return {
        "case": verdict.case.value,
        "Q": fact.Q, "L": fact.L, "P": fact.P, "J": tuple(fact.J),
        "shift_det": report.det,
        "tau": tau, "S_tau": s_tau.mat, "Xi": xi.mat, "Theta": theta.mat,
        "L_split": split.L, "Q_diag": split.Q_diag, "M": split.M,
        "P_diag": split.P_diag, "J1": tuple(split.J1), "J2": tuple(split.J2),
    }


class MatrixAnalysis:
    """Full shift-invertibility analysis of one ``random_symplectic(s, 12)``."""

    name = "matrix-analysis"
    D = 12
    POOL = 32

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        seeds = rng.integers(0, 2**31, size=self.POOL)
        self.pool = [sc.random_symplectic(int(s), self.D) for s in seeds]

    def round(self, k: int) -> list[Op]:
        # each operation takes the next matrix; none is expected to fail, so a
        # round of one keeps the failed share at 0 however the run ends
        return [Op("analysis", k % self.POOL)]

    def warmup(self) -> list[Op]:
        return [Op("analysis", self.POOL - 1)]

    def run(self, op: Op) -> dict:
        return analyse(self.pool[op.key])

    def check(self, op: Op, result: dict) -> str:
        return oracles.check_matrix_analysis(self.pool[op.key].mat, result)


class CliRoundtrip:
    """``wigner`` then ``quantize`` as two CLI processes on a 512-point signal."""

    name = "cli-roundtrip"
    N = 512
    SIGNALS = 2

    #: the traced run drives ``metaplectic.cli.main`` inside the benchmark process
    in_process = False
    #: largest resident high-water mark of one CLI child, in KiB
    peak_rss_kb = 0

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        self.src = Path(mcli.__file__).resolve().parents[1]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for i in range(self.SIGNALS):
            g, w, k = workdir / f"g{i}.sig", workdir / f"W{i}.gf", workdir / f"K{i}.sig"
            self.cli(
                "sample", "--n", str(self.N),
                "--lam", repr(float(rng.uniform(0.7, 1.5))),
                "--shift", repr(float(rng.uniform(-1.0, 1.0))),
                "--mod", repr(float(rng.uniform(-1.0, 1.0))),
                "--out", str(g),
            )
            self.files.append((g, w, k))
        self.peak_rss_kb = 0  # the sample children above are set-up, not work

    def cli(self, *argv: str) -> str:
        """Run one CLI verb, as its own process unless ``in_process``; return stdout."""
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = mcli.main(list(argv))
            out = buf.getvalue()
        else:
            env = dict(os.environ, PYTHONPATH=str(self.src))
            with open(self.workdir / "stdout.txt", "w+") as stdout:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "metaplectic.cli", *argv],
                    env=env, stdout=stdout, stderr=subprocess.DEVNULL,
                )
                # wait4 reaps the child and gives its own rusage, so the peak
                # is this child's, not that of every child so far
                killer = threading.Timer(120, proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    killer.cancel()
                proc.returncode = code = os.waitstatus_to_exitcode(status)
                stdout.seek(0)
                out = stdout.read()
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            raise RuntimeError(f"metaplectic {argv[0]} exited with {code}")
        return out

    def round(self, k: int) -> list[Op]:
        return [Op("roundtrip", k % self.SIGNALS)]

    def warmup(self) -> list[Op]:
        return [Op("roundtrip", 0)]

    def run(self, op: Op) -> str:
        g, w, k = self.files[op.key]
        # a verb that exits 0 without writing --out must not pass on the
        # files of an earlier round
        w.unlink(missing_ok=True)
        k.unlink(missing_ok=True)
        out = self.cli("wigner", str(g), "--out", str(w))
        self.cli("quantize", str(w), "--signal", str(g), "--out", str(k))
        return out

    def check(self, op: Op, wigner_stdout: str) -> str:
        if f"shape {self.N} {self.N}" not in wigner_stdout.splitlines():
            return f"unexpected wigner output {wigner_stdout!r}"
        g, _, k = self.files[op.key]
        if not k.is_file():
            return f"quantize wrote no {k.name}"
        return oracles.check_quantized_wigner(g.read_text(), k.read_text())


WORKLOADS = {w.name: w for w in (OperatorApply, PhaseSpaceNorms, MatrixAnalysis, CliRoundtrip)}
