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
        if not self.ratios:
            return 1.0
        return max(self.ratios) / min(self.ratios)


def _as_symplectic(S) -> SymplecticMatrix:
    return S if isinstance(S, SymplecticMatrix) else SymplecticMatrix(S)


def _probe_grid(d: int, n: int | None, grid: Grid | None) -> Grid:
    if grid is not None:
        return grid
    if n is None:
        n = {1: 256, 2: 128}.get(d, 32)
    return Grid.selfdual(d, n)


def _ratio(out: GridFunction, f: GridFunction, p: float, q: float) -> float:
    return lp_norm(out, q) / lp_norm(f, p)


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
    S = _as_symplectic(S)
    verdict_obj = classify_lp(S, tol)
    if verdict_obj.case is not BoundednessCase.FREE:
        raise ValueError("sharp-constant probe needs an invertible upper-right block")
    if q is None:
        q = conjugate_exponent(p)
    reference = verdict_obj.norm(p, q)
    g = _probe_grid(S.d, n, grid)
    fact = dj_factorize(S, tol)
    ratios = []
    for lam in lambdas:
        f = GaussianChirp.dilated(S.d, float(lam)).sample(g)
        out = apply_metaplectic(fact, f)
        ratios.append(_ratio(out, f, p, q))
    over = max(ratios) / reference - 1.0
    verdict = "bounded" if over <= CONSTANT_RTOL else "diverges"
    return ProbeReport(
        probe="beckner",
        parameters={"p": p, "q": q, "d": S.d, "n": g.axes[0].n, "overshoot": over},
        ratios=tuple(ratios),
        reference=reference,
        verdict=verdict,
    )


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
    S = _as_symplectic(S)
    verdict_obj = classify_lp(S, tol)
    if verdict_obj.case is not BoundednessCase.LOWER_TRIANGULAR:
        raise ValueError("fixed-ratio probe needs a vanishing upper-right block")
    reference = verdict_obj.norm(p, p)
    d = S.d
    g = _probe_grid(d, n, grid)
    fact = dj_factorize(S, tol)

    family = [GaussianChirp.dilated(d, float(lam)) for lam in lambdas]
    # shift snapped to the lattice so the discrete sup norm reads the true peak
    shift = np.array([max(1.0, round(0.4 / ax.step)) * ax.step for ax in g.axes])
    family.append(GaussianChirp.dilated(d, 1.3).tf_shift(shift, 0.6 * np.ones(d)))
    chirp_q = 0.3 * np.eye(d) + 0.1 * (np.ones((d, d)) - np.eye(d))
    family.append(GaussianChirp.standard(d).chirp(chirp_q))

    ratios = []
    for member in family:
        f = member.sample(g)
        out = apply_metaplectic(fact, f)
        ratios.append(_ratio(out, f, p, p))
    worst = max(abs(r / reference - 1.0) for r in ratios)
    verdict = "converges" if worst <= CONSTANT_RTOL else "diverges"
    return ProbeReport(
        probe="quasi-isometry",
        parameters={"p": p, "d": d, "n": g.axes[0].n, "worst_rel_err": worst},
        ratios=tuple(ratios),
        reference=reference,
        verdict=verdict,
    )


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
    S = _as_symplectic(S)
    verdict_obj = classify_lp(S, tol)
    if verdict_obj.case is not BoundednessCase.SINGULAR_NONZERO_B:
        raise ValueError("witness probe needs a singular nonzero upper-right block")
    d = S.d
    g = _probe_grid(d, n, grid)
    fact = dj_factorize(S, tol)
    j_pos = tuple(fact.J.positions())
    directions = _witness_chirps(fact, d)
    if not directions:
        raise ValueError("no null direction found in the retained multiplier corner")

    best_growth = None
    best_ratios: tuple = ()
    skipped = 0
    for direction in directions[:2]:
        for orient in (1.0, -1.0):
            ratios = []
            for lam in lambdas:
                a = float(lam) ** (2.0 * orient)
                m = np.eye(d) + (a - 1.0) * np.outer(direction, direction)
                witness = GaussianChirp(1.0, 1j * m, np.zeros(d)).partial_ft(j_pos, inverse=True)
                f = witness.sample(g)
                out = apply_metaplectic(fact, f)
                if not (f.decay_ok and out.decay_ok):
                    skipped += 1
                    continue
                ratios.append(_ratio(out, f, p, q))
            if len(ratios) < 3:
                continue
            growth = max(ratios) / min(ratios)
            if best_growth is None or growth > best_growth:
                best_growth = growth
                best_ratios = tuple(ratios)
    if best_growth is None:
        verdict = "inconclusive"
        best_growth = math.nan
    elif best_growth >= DIVERGENCE_FACTOR:
        verdict = "diverges"
    elif best_growth <= FLATNESS_FACTOR:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return ProbeReport(
        probe="unbounded-witness",
        parameters={
            "p": p,
            "q": q,
            "d": d,
            "n": g.axes[0].n,
            "growth": best_growth,
            "skipped": skipped,
        },
        ratios=best_ratios,
        reference=None,
        verdict=verdict,
    )


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
        ratios.append(distribution_norm(A, f, window, p, q) / mp_norm(f, window, p, q))
    spread = max(ratios) / min(ratios)
    if spread >= DIVERGENCE_FACTOR:
        verdict = "diverges"
    elif spread <= FLATNESS_FACTOR:
        verdict = "bounded"
    else:
        verdict = "inconclusive"
    return ProbeReport(
        probe="norm-equivalence",
        parameters={"p": p, "q": q, "d": d, "n": g.axes[0].n, "spread": spread},
        ratios=tuple(ratios),
        reference=None,
        verdict=verdict,
    )
