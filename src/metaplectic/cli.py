"""Command-line front end.

Verbs:

* ``check``     — validate a matrix file against the block relations.
* ``factorize`` — generator factorization of a symplectic matrix.
* ``classify``  — L^p boundedness case, with the closed-form norm.
* ``apply``     — run a sampled signal through the operator pipeline.
* ``wigner``    — time-frequency distribution of a sampled signal.
* ``quantize``  — build the operator attached to a phase-space symbol.
* ``probe``     — numerical boundedness/equivalence probes.
* ``sample``    — generate a Gaussian-chirp signal file to feed the above.
* ``demo``      — built-in shift-perturbation convergence table.

All output is deterministic (no timestamps, fixed float formatting), so runs
are byte-for-byte reproducible.  Exit codes: 0 success, 2 invalid input,
failed validation, an overflow, a nan or a refused allocation, 3 a
tolerance ambiguity (the decision sits too close to the cutoff; rerun with
--tol or METAPLECTIC_TOL).  A failing run prints nothing on stdout.
``--tol`` and ``METAPLECTIC_TOL`` accept 0 < tol < 1; any other value exits 2.

Signal files are parsed from the open file, one block of text at a time, and
written one block at a time, so a verb never holds a file's whole text.
``wigner`` never builds its distribution whole either: it takes the printed
norm from the distribution's x-row slabs, then builds the slabs again for
each file it writes.  Every refusal comes before the first file is opened.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import Callable, Iterable

import numpy as np

from . import io as formats
from .metaplectic_numeric import (
    GaussianChirp,
    Grid,
    apply_metaplectic,
    lp_norm,
    opA_apply,
    opA_build,
    rihacek_projection,
    streamed_distribution,
    wigner_projection,
)
from .probes import beckner_probe, norm_equiv_probe, quasi_isometry_probe, unbounded_probe
from .symplectic_core import (
    SymplecticMatrix,
    admissible_shift_range,
    classify_lp,
    dj_factorize,
    is_symplectic,
    shift_invertible,
    shift_perturb,
    symplectic_residual,
)
from .tolerances import DEFAULT_RELATION_TOL, ToleranceAmbiguityError, positive_tol


def _g(x) -> str:
    return "%.12g" % float(x)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, blocks: Iterable[str]) -> None:
    # one block at a time: neither the whole text nor its encoded copy is held
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(blocks)


def _load_symplectic(path: str) -> SymplecticMatrix:
    return SymplecticMatrix(formats.parse_matrix(_read_text(path)))


def _load_signal(path: str):
    with open(path, encoding="utf-8") as fh:
        f = formats.parse_grid_function(fh)
    if not np.isfinite(f.values).all():
        raise ValueError(f"{path}: samples must be finite, found inf or nan")
    return f


def _maybe_write_function(args, grid: Grid, slabs: Callable[[], Iterable[np.ndarray]]) -> None:
    """``--out`` and ``--csv`` of the function on ``grid`` whose values
    ``slabs()`` gives as consecutive slices of axis 0, walked once per file."""
    if getattr(args, "out", None):
        _write_text(args.out, formats.grid_function_blocks(grid, slabs()))
    if getattr(args, "csv", None):
        _write_text(args.csv, formats.csv_blocks(grid, slabs()))


# -- verbs ---------------------------------------------------------------------


def cmd_check(args) -> int:
    mat = formats.parse_matrix(_read_text(args.matrix))
    ok = is_symplectic(mat, args.tol)
    print(f"d {mat.shape[0] // 2}")
    print(f"residual {_g(symplectic_residual(mat))}")
    print(f"symplectic {'yes' if ok else 'no'}")
    return 0 if ok else 2


def cmd_factorize(args) -> int:
    S = _load_symplectic(args.matrix)
    fact = dj_factorize(S, args.tol)
    members = " ".join(str(j) for j in fact.J) or "-"
    print(f"d {fact.d}")
    print(f"subset {members}")
    print(f"residual {_g(fact.residual)}")
    print(f"det-L {_g(np.linalg.det(fact.L))}")
    if args.out:
        _write_text(args.out, [formats.write_dj(fact)])
    return 0


def cmd_classify(args) -> int:
    S = _load_symplectic(args.matrix)
    verdict = classify_lp(S, args.tol)
    print(f"d {S.d}")
    print(f"case {verdict.case.value}")
    print(f"det-A {_g(verdict.det_A)}")
    print(f"det-B {_g(verdict.det_B)}")
    bounded = verdict.bounded(args.p, args.q)
    print(f"bounded {'yes' if bounded else 'no'}")
    if bounded:
        print(f"norm {_g(verdict.norm(args.p, args.q))}")
    return 0


def cmd_apply(args) -> int:
    S = _load_symplectic(args.matrix)
    f = _load_signal(args.signal)
    out = apply_metaplectic(S, f, args.tol)
    print(f"d {f.grid.d}")
    print(f"l2-in {_g(lp_norm(f, 2.0))}")
    print(f"l2-out {_g(lp_norm(out, 2.0))}")
    _maybe_write_function(args, out.grid, lambda: (out.values,))
    return 0


def cmd_wigner(args) -> int:
    f = _load_signal(args.signal)
    if args.window:
        window = _load_signal(args.window)
    elif args.kind == "wigner":
        window = f
    else:
        window = GaussianChirp.standard(f.grid.d).sample(f.grid)
    grid, l2, slabs = streamed_distribution(args.kind, f, window)
    print(f"kind {args.kind}")
    print("shape " + " ".join(str(n) for n in grid.shape))
    print(f"l2 {_g(l2)}")
    _maybe_write_function(args, grid, slabs)
    return 0


def cmd_quantize(args) -> int:
    if (args.out or args.csv) and not args.signal:
        raise ValueError("quantize writes --out and --csv only with --signal")
    a = _load_signal(args.symbol)
    if a.grid.d % 2 != 0:
        raise ValueError("symbol must live on a doubled grid (even dimension)")
    d = a.grid.d // 2
    A = _load_symplectic(args.matrix) if args.matrix else wigner_projection(d)
    K = opA_build(a, A)
    if args.signal:
        f = _load_signal(args.signal)
        out = opA_apply(K, f)
    defect = float(np.linalg.norm(_hermitian_defect(K)) / max(np.linalg.norm(K), 1e-300))
    tr = complex(np.trace(K))
    print(f"points {K.shape[0]}")
    print(f"trace {_g(tr.real)} {_g(tr.imag)}")
    print(f"selfadjoint-defect {_g(defect)}")
    if args.signal:
        print(f"l2-in {_g(lp_norm(f, 2.0))}")
        print(f"l2-out {_g(lp_norm(out, 2.0))}")
        _maybe_write_function(args, out.grid, lambda: (out.values,))
    return 0


def _hermitian_defect(K: np.ndarray) -> np.ndarray:
    """K - K^H, the elements of ``K - K.conj().T`` in a fresh C-ordered
    array, with no second n x n temporary."""
    defect = np.conjugate(K.T, order="C")
    return np.subtract(K, defect, out=defect)


def cmd_probe(args) -> int:
    if args.kind == "isometry" and args.q not in (None, args.p):
        raise ValueError("probe isometry maps L^p to L^p; --q must equal --p")
    if args.kind == "normequiv" and args.tol is not None:
        raise ValueError("probe normequiv takes no --tol")
    S = _load_symplectic(args.matrix)
    kwargs = {"n": args.n}
    if args.lambdas:
        kwargs["lambdas"] = tuple(float(v) for v in args.lambdas.split(","))
    if args.kind == "beckner":
        report = beckner_probe(S, args.p, q=args.q, tol=args.tol, **kwargs)
    elif args.kind == "isometry":
        report = quasi_isometry_probe(S, args.p, tol=args.tol, **kwargs)
    elif args.kind == "unbounded":
        if args.q is None:
            raise ValueError("probe unbounded needs both --p and --q")
        report = unbounded_probe(S, args.p, args.q, tol=args.tol, **kwargs)
    else:  # normequiv
        if args.q is None:
            raise ValueError("probe normequiv needs both --p and --q")
        report = norm_equiv_probe(S, args.p, args.q, **kwargs)
    text = formats.write_probe_report(report)
    print(text, end="")
    if args.out:
        _write_text(args.out, [text])
    return 0


def cmd_sample(args) -> int:
    if args.extent is not None:
        grid = Grid.regular(args.d, args.n, args.extent)
    else:
        grid = Grid.selfdual(args.d, args.n)
    chirp = GaussianChirp.dilated(args.d, args.lam)
    if args.shift or args.mod:
        chirp = chirp.tf_shift(args.shift * np.ones(args.d), args.mod * np.ones(args.d))
    f = chirp.sample(grid)
    _write_text(args.out, formats.grid_function_blocks(grid, (f.values,)))
    print(f"wrote {args.out}")
    print("shape " + " ".join(str(n) for n in grid.shape))
    print(f"step {_g(grid.axes[0].step)}")
    print(f"decay-ok {'yes' if f.decay_ok else 'no'}")
    return 0


def cmd_demo(args) -> int:
    """Shift-perturbation of the Rihaczek-type projection in one variable."""
    A = rihacek_projection(1)
    report = shift_invertible(A)
    print("matrix rihacek-projection d=1")
    print(f"shift-invertible {'yes' if report.invertible else 'no'}")
    print(f"sigma-min {_g(report.sigma_min)}")
    tau_max = admissible_shift_range(A)
    print(f"admissible-range {_g(tau_max)}")
    base = 1.0 if np.isinf(tau_max) else 0.5 * tau_max
    eye = np.eye(2 * A.d)
    print("tau xi-defect left-residual right-residual perturbed-invertible")
    for k in range(1, args.steps + 1):
        tau = base * 2.0 ** (-k)
        s_tau, xi_tau, theta_tau = shift_perturb(A, tau)
        xi_defect = float(np.linalg.norm(xi_tau.mat - eye))
        left = float(np.linalg.norm(xi_tau.mat @ A.mat - s_tau.mat))
        right = float(np.linalg.norm(A.mat @ theta_tau.mat - s_tau.mat))
        ok = shift_invertible(s_tau).invertible
        print(f"{_g(tau)} {_g(xi_defect)} {_g(left)} {_g(right)} {'yes' if ok else 'no'}")
    return 0


# -- parser --------------------------------------------------------------------


def _add_tol(p: argparse.ArgumentParser, default: float | None = None) -> None:
    p.add_argument("--tol", type=float, default=default, help="relative tolerance override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaplectic",
        description="Symplectic factorization, boundedness classification and "
        "sampled metaplectic operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a matrix file against the block relations")
    p.add_argument("matrix")
    _add_tol(p, DEFAULT_RELATION_TOL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("factorize", help="generator factorization of a symplectic matrix")
    p.add_argument("matrix")
    p.add_argument("--out", help="write the full factorization to this file")
    _add_tol(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("classify", help="L^p boundedness class and closed-form norm")
    p.add_argument("matrix")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    _add_tol(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("apply", help="apply the operator of a matrix to a signal file")
    p.add_argument("matrix")
    p.add_argument("signal")
    p.add_argument("--out", help="write the transformed signal here")
    p.add_argument("--csv", help="also export the result as CSV")
    _add_tol(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("wigner", help="time-frequency distribution of a signal file")
    p.add_argument("signal")
    p.add_argument("--window", help="window signal file (defaults per kind)")
    p.add_argument("--kind", choices=("wigner", "stft", "rihacek"), default="wigner")
    p.add_argument("--out", help="write the distribution here")
    p.add_argument("--csv", help="also export the distribution as CSV")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("quantize", help="build the operator attached to a phase-space symbol")
    p.add_argument("symbol", help="grid-function file on the doubled grid")
    p.add_argument("--matrix", help="projection matrix file (default: Wigner)")
    p.add_argument("--signal", help="apply the built operator to this signal")
    p.add_argument("--out", help="write the transformed signal here")
    p.add_argument("--csv", help="also export the transformed signal as CSV")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("probe", help="numerical boundedness/equivalence probes")
    p.add_argument("kind", choices=("beckner", "isometry", "unbounded", "normequiv"))
    p.add_argument("matrix")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="per-axis sample count")
    p.add_argument("--lambdas", help="comma-separated dilation family")
    p.add_argument("--out", help="write the report here")
    _add_tol(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("sample", help="generate a Gaussian-chirp signal file")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--extent", type=float, default=None, help="half-width (default: self-dual)")
    p.add_argument("--lam", type=float, default=1.0, help="dilation of the Gaussian")
    p.add_argument("--shift", type=float, default=0.0, help="translation, same in every axis")
    p.add_argument("--mod", type=float, default=0.0, help="modulation, same in every axis")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("demo", help="built-in shift-perturbation convergence table")
    p.add_argument("--steps", type=int, default=8)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # stdout is held until the verb returns; any overflow (numpy's or Python's),
    # nan or refused allocation fails the run, but not underflow (Gaussian tails)
    out = io.StringIO()
    try:
        if getattr(args, "tol", None) is not None:
            positive_tol(args.tol, "--tol")
        with contextlib.redirect_stdout(out), np.errstate(over="raise", invalid="raise", divide="raise"):
            code = args.func(args)
    except ToleranceAmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, np.linalg.LinAlgError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
