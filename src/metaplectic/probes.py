"""Numerical probes: measure the classified operator bounds at desk scale.

Each probe runs a small deterministic family of Gaussian-type inputs through
the sampled operator pipeline and condenses the measured norm ratios into a
verdict:

* ``converges``    — the ratios reproduce the claimed constant,
* ``bounded``      — the ratios stay under (or within a flat band around)
                     the claimed bound,
* ``diverges``     — the ratios grow by at least ``DIVERGENCE_FACTOR``
                     across the family,
* ``inconclusive`` — the family neither stabilized nor grew decisively at
                     this resolution; rerun with a finer or wider grid.

The two-sided gap between the ``bounded`` and ``diverges`` cutoffs is
deliberate: a sampled family on a finite window cannot certify either claim
inside it, and the probe says so instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metaplectic_numeric import (
    GaussianChirp,
    Grid,
    GridFunction,
    apply_metaplectic,
    distribution_norm,
    lp_norm,
    mp_norm,
)
from .symplectic_core import (
    BoundednessCase,
    SymplecticMatrix,
    classify_lp,
    conjugate_exponent,
    dj_factorize,
)

DIVERGENCE_FACTOR = 10.0
FLATNESS_FACTOR = 2.0
CONSTANT_RTOL = 1e-3
#: eigenvalues of the retained multiplier corner below this, relative to its
#: largest, count as null directions
WITNESS_TOL = 1e-8
#: the refusal of a matrix outside the case a probe measures
_NEEDS = {
    BoundednessCase.FREE: "sharp-constant probe needs an invertible upper-right block",
    BoundednessCase.LOWER_TRIANGULAR: "fixed-ratio probe needs a vanishing upper-right block",
    BoundednessCase.SINGULAR_NONZERO_B: "witness probe needs a singular nonzero upper-right block",
}

__all__ = [
    "CONSTANT_RTOL",
    "DIVERGENCE_FACTOR",
    "FLATNESS_FACTOR",
    "ProbeReport",
    "beckner_probe",
    "norm_equiv_probe",
    "quasi_isometry_probe",
    "unbounded_probe",
]


@dataclass
class ProbeReport:
    """Outcome of one probe run: the measured ratios plus the verdict."""

    probe: str
    parameters: dict
    ratios: tuple
    reference: float | None
    verdict: str

    @property
    def spread(self) -> float:
        """max/min of the measured ratios (1.0 for an empty run)."""
        return _spread(self.ratios) if self.ratios else 1.0


def _spread(ratios) -> float:
    return max(ratios) / min(ratios)


def _as_symplectic(S) -> SymplecticMatrix:
    return S if isinstance(S, SymplecticMatrix) else SymplecticMatrix(S)


def _probe_grid(d: int, n: int | None, grid: Grid | None) -> Grid:
    if grid is not None:
        return grid
    if n is None:
        n = {1: 256, 2: 128}.get(d, 32)
    return Grid.selfdual(d, n)


def _setup(S, case: BoundednessCase, pq, n, grid, tol):
    """Classify S and refuse it unless it is in ``case``; then d, the
    closed-form norm for the exponent pair ``pq`` (None for no pair), the
    probe grid and the factorization."""
    S = _as_symplectic(S)
    verdict = classify_lp(S, tol)
    if verdict.case is not case:
        raise ValueError(_NEEDS[case])
    reference = None if pq is None else verdict.norm(*pq)
    return S.d, reference, _probe_grid(S.d, n, grid), dj_factorize(S, tol)


def _ratio(top, bottom, p: float, q: float, label: str) -> float:
    """top / bottom for two ``(name, norm)`` pairs, the bottom checked first.

    At a large exponent |f|^p can underflow in every sample; a norm of 0.0
    leaves the ratio undefined, so it is refused rather than read as a
    ratio of 0 or divided by.  A norm given as a function is computed only
    once the bottom norm has passed.
    """
    norms = []
    for name, norm in (bottom, top):
        norms.append(norm() if callable(norm) else norm)
        if norms[-1] == 0.0:
            raise ArithmeticError(
                f"{name} underflows to 0.0 at p = {p:g}, q = {q:g} ({label}), "
                "so the norm ratio is undefined"
            )
    return norms[1] / norms[0]


def _measure(fact, g: Grid, family, p: float, q: float, keep=lambda f, out: True):
    """The ratios ||out||_q / ||f||_p over a family of ``(label, chirp)``
    members, f the chirp sampled on g and out the factorized operator
    applied to it, and the number of members skipped as ``keep(f, out)``
    refused them."""
    ratios, skipped = [], 0
    for label, member in family:
        f = member.sample(g)
        out = apply_metaplectic(fact, f)
        if not keep(f, out):
            skipped += 1
            continue
        top = ("lp_norm of the output", lp_norm(out, q))
        ratios.append(_ratio(top, ("lp_norm of the input", lp_norm(f, p)), p, q, label))
    return ratios, skipped


def _spread_verdict(spread: float) -> str:
    """``diverges`` from DIVERGENCE_FACTOR up, ``bounded`` up to
    FLATNESS_FACTOR, ``inconclusive`` in between (and for NaN)."""
    if spread >= DIVERGENCE_FACTOR:
        return "diverges"
    if spread <= FLATNESS_FACTOR:
        return "bounded"
    return "inconclusive"


def beckner_probe(
    S,
    p: float,
    q: float | None = None,
    lambdas=(0.25, 0.5, 1.0, 2.0, 4.0),
    n: int | None = None,
    grid: Grid | None = None,
    tol: float | None = None,
) -> ProbeReport:
    """Measure the conjugate-pair ratios of a free matrix against the sharp
    constant |det B|^(1/2 - 1/p) (p^(1/p)/p'^(1/p'))^(d/2).

    The family is the isotropic dilated Gaussians exp(-pi lam |x|^2); for the
    plain Fourier matrix their ratio is flat in lam and saturates the
    constant.  Verdict ``bounded`` when every measured ratio stays within
    CONSTANT_RTOL above the constant, ``diverges`` otherwise.
    """
    # the free case's norm reads q = None as the conjugate exponent
    d, reference, g, fact = _setup(S, BoundednessCase.FREE, (p, q), n, grid, tol)
    if q is None:
        q = conjugate_exponent(p)
    family = ((f"lambda = {float(lam):g}", GaussianChirp.dilated(d, float(lam))) for lam in lambdas)
    ratios, _ = _measure(fact, g, family, p, q)
    over = max(ratios) / reference - 1.0
    verdict = "bounded" if over <= CONSTANT_RTOL else "diverges"
    parameters = {"p": p, "q": q, "d": d, "n": g.axes[0].n, "overshoot": over}
    return ProbeReport("beckner", parameters, tuple(ratios), reference, verdict)


def quasi_isometry_probe(
    S,
    p: float,
    lambdas=(0.25, 0.5, 1.0, 2.0, 4.0),
    n: int | None = None,
    grid: Grid | None = None,
    tol: float | None = None,
) -> ProbeReport:
    """For a vanishing upper-right block the operator multiplies every L^p
    norm by exactly |det A|^(1/p - 1/2); measure that on dilated, shifted and
    chirped Gaussians.  Verdict ``converges`` when all ratios match the
    constant to CONSTANT_RTOL relative.
    """
    d, reference, g, fact = _setup(S, BoundednessCase.LOWER_TRIANGULAR, (p, p), n, grid, tol)
    family = [(f"lambda = {float(lam):g}", GaussianChirp.dilated(d, float(lam))) for lam in lambdas]
    # shift snapped to the lattice so the discrete sup norm reads the true peak
    shift = np.array([max(1.0, round(0.4 / ax.step)) * ax.step for ax in g.axes])
    shifted = GaussianChirp.dilated(d, 1.3).tf_shift(shift, 0.6 * np.ones(d))
    chirp_q = 0.3 * np.eye(d) + 0.1 * (np.ones((d, d)) - np.eye(d))
    chirped = GaussianChirp.standard(d).chirp(chirp_q)
    family += [("the shifted member", shifted), ("the chirped member", chirped)]
    ratios, _ = _measure(fact, g, family, p, p)
    worst = max(abs(r / reference - 1.0) for r in ratios)
    verdict = "converges" if worst <= CONSTANT_RTOL else "diverges"
    parameters = {"p": p, "d": d, "n": g.axes[0].n, "worst_rel_err": worst}
    return ProbeReport("quasi-isometry", parameters, tuple(ratios), reference, verdict)


def _witness_chirps(fact, d: int):
    """Null directions of the retained multiplier block, embedded in R^d.

    For a singular upper-right block every admissible retained set leaves
    the complement-complement corner of the multiplier parameter singular;
    its null directions are where the operator acts like the identity and
    the witness family dilates.
    """
    c_pos = fact.J.complement().positions()
    if c_pos.size == 0:
        return []
    pcc = fact.P[np.ix_(c_pos, c_pos)]
    pcc = (pcc + pcc.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(pcc)
    cut = WITNESS_TOL * max(1.0, float(np.abs(eigvals).max()))
    out = []
    for i in range(eigvals.size):
        if abs(eigvals[i]) <= cut:
            embedded = np.zeros(d)
            embedded[c_pos] = eigvecs[:, i]
            out.append(embedded)
    return out


def unbounded_probe(
    S,
    p: float,
    q: float,
    lambdas=(1.0, 2.0, 4.0, 8.0, 16.0),
    n: int | None = None,
    grid: Grid | None = None,
    tol: float | None = None,
) -> ProbeReport:
    """Search for norm-ratio growth when the upper-right block is singular
    but nonzero (no L^p -> L^q bound exists then, except p = q = 2).

    Witness family: Gaussians squeezed (and, mirrored, widened) along a null
    direction of the retained multiplier corner, pulled back through the
    partial inverse transform so the squeezing survives the pipeline.
    Members whose samples do not decay inside the window are dropped; a
    family needs at least three survivors to count.

    ``diverges`` if some family grows by DIVERGENCE_FACTOR; ``bounded`` if
    every family stays within FLATNESS_FACTOR; ``inconclusive`` otherwise.
    """
    d, _, g, fact = _setup(S, BoundednessCase.SINGULAR_NONZERO_B, None, n, grid, tol)
    j_pos = tuple(fact.J.positions())
    directions = _witness_chirps(fact, d)
    if not directions:
        raise ValueError("no null direction found in the retained multiplier corner")

    def witnesses(direction, orient):
        for lam in lambdas:
            a = float(lam) ** (2.0 * orient)
            m = np.eye(d) + (a - 1.0) * np.outer(direction, direction)
            chirp = GaussianChirp(1.0, 1j * m, np.zeros(d)).partial_ft(j_pos, inverse=True)
            yield f"lambda = {float(lam):g}", chirp

    def decay_ok(f, out):
        return f.decay_ok and out.decay_ok

    families, skipped = [], 0
    for direction in directions[:2]:
        for orient in (1.0, -1.0):
            ratios, dropped = _measure(fact, g, witnesses(direction, orient), p, q, keep=decay_ok)
            skipped += dropped
            if len(ratios) >= 3:
                families.append(tuple(ratios))
    # max keeps the first of equal spreads
    best_ratios = max(families, key=_spread, default=())
    growth = _spread(best_ratios) if families else math.nan
    parameters = {"p": p, "q": q, "d": d, "n": g.axes[0].n, "growth": growth, "skipped": skipped}
    return ProbeReport("unbounded-witness", parameters, best_ratios, None, _spread_verdict(growth))


def norm_equiv_probe(
    A,
    p: float,
    q: float,
    window: GridFunction | None = None,
    lambdas=(0.25, 0.5, 1.0, 2.0, 4.0),
    n: int | None = None,
    grid: Grid | None = None,
) -> ProbeReport:
    """Compare the mixed (p, q) norm of the distribution attached to A with
    the short-time transform norm of the same signal, over the squeeze
    family f_lam = exp(-pi lam^2 |x|^2) (lam is the aspect parameter, as in
    :func:`unbounded_probe`).

    When the two norms are equivalent the ratio band stays flat (verdict
    ``bounded``); growth past DIVERGENCE_FACTOR across the family rules the
    equivalence out (``diverges``); anything in between is ``inconclusive``.
    """
    A = _as_symplectic(A)
    if A.d % 2 != 0:
        raise ValueError("distribution matrices act on doubled phase space; need even block count")
    d = A.d // 2
    g = _probe_grid(d, n, grid)
    if window is None:
        window = GaussianChirp.standard(d).sample(g)
    ratios = []
    for lam in lambdas:
        f = GaussianChirp.dilated(d, float(lam) ** 2).sample(g)
        # mp_norm is computed and checked before the distribution is built
        top = ("distribution_norm", lambda: distribution_norm(A, f, window, p, q))
        bottom = ("mp_norm", mp_norm(f, window, p, q))
        ratios.append(_ratio(top, bottom, p, q, f"lambda = {float(lam):g}"))
    spread = _spread(ratios)
    parameters = {"p": p, "q": q, "d": d, "n": g.axes[0].n, "spread": spread}
    return ProbeReport("norm-equivalence", parameters, tuple(ratios), None, _spread_verdict(spread))
