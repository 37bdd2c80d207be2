"""Output checks for the benchmark, computed apart from the library.

Every check here uses numpy and closed forms only; none calls a library
helper such as ``phase_align_distance`` or ``dj_compose``.  Each returns an
empty string when the output passes and a one-line reason when it does not,
so that a corrupted output can be shown to be rejected (see
``test_oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

#: relative residual allowed between a sampled output and its closed form
SAMPLE_RTOL = 1e-9

#: relative residual allowed in exact matrix identities
MATRIX_RTOL = 1e-9

#: the probe's documented verdict cutoffs (spread <= 2 bounded, >= 10 diverges)
FLATNESS_CUTOFF = 2.0
DIVERGENCE_CUTOFF = 10.0


# -- operator-apply -----------------------------------------------------------


def siegel_image(S: np.ndarray, M: complex) -> complex:
    """M' = (C + D M)(A + B M)^{-1}: the chirp parameter of exp(i pi M x^2)
    after the metaplectic operator of the 2x2 symplectic matrix S."""
    (a, b), (c, d) = S
    return (c + d * M) / (a + b * M)


def check_operator_apply(
    S: np.ndarray, M: complex, x: np.ndarray, step: float, f: np.ndarray, out: np.ndarray
) -> str:
    """``out`` must be exp(i pi M' x^2) up to one constant, with the l2 norm of ``f``."""
    expected = np.exp(1j * math.pi * siegel_image(S, M) * x * x)
    norm_f = math.sqrt(float(np.sum(np.abs(f) ** 2)) * step)
    norm_out = math.sqrt(float(np.sum(np.abs(out) ** 2)) * step)
    if not abs(norm_out / norm_f - 1.0) <= SAMPLE_RTOL:
        return f"l2 norm not preserved: out/in = {norm_out / norm_f:.12g}"
    # least-squares constant, then the relative distance to that multiple
    c = np.vdot(expected, out) / np.vdot(expected, expected)
    resid = float(np.linalg.norm(out - c * expected) / np.linalg.norm(out))
    if not resid <= SAMPLE_RTOL:
        return f"output is not the Siegel image of the input chirp: residual {resid:.3e}"
    return ""


# -- phase-space-norms --------------------------------------------------------


def _gauss_norm(p: float, u: float) -> float:
    """L^p norm on R of exp(-pi u x^2)."""
    return 1.0 if math.isinf(p) else (p * u) ** (-1.0 / (2.0 * p))


def _mixed(k: float, u: float, v: float, p: float, q: float) -> float:
    """L^{p,q} norm (p over x, then q over xi) of k exp(-pi u x^2) exp(-pi v xi^2)."""
    return k * _gauss_norm(p, u) * _gauss_norm(q, v)


def norm_ratio(kind: str, lam: float, p: float, q: float) -> float:
    """Closed form of the probe ratio ||D(f, g)||_{p,q} / ||V_g f||_{p,q}.

    f = exp(-pi lam^2 x^2) and g = exp(-pi x^2) in one dimension, with
    a = lam^2:

    * |V_g f| = (a+1)^(-1/2) exp(-pi a/(a+1) x^2) exp(-pi xi^2/(a+1));
    * |W(f, g)| = 2 (a+1)^(-1/2) exp(-pi 4a/(a+1) x^2) exp(-pi 4 xi^2/(a+1)),
      times the exact torus-ghost factor 2^(1/p) of the periodic lattice;
    * |R(f, g)| = exp(-pi a x^2) exp(-pi xi^2).
    """
    a = lam * lam
    stft = _mixed((a + 1.0) ** -0.5, a / (a + 1.0), 1.0 / (a + 1.0), p, q)
    if kind == "wigner":
        ghost = 1.0 if math.isinf(p) else 2.0 ** (1.0 / p)
        dist = ghost * _mixed(2.0 * (a + 1.0) ** -0.5, 4.0 * a / (a + 1.0), 4.0 / (a + 1.0), p, q)
    elif kind == "rihacek":
        dist = _mixed(1.0, a, 1.0, p, q)
    else:
        raise ValueError(f"no closed form for distribution {kind!r}")
    return dist / stft


def expected_verdict(spread: float) -> str | None:
    """The probe's verdict for a spread, or None inside 1e-6 of a cutoff."""
    for cutoff in (FLATNESS_CUTOFF, DIVERGENCE_CUTOFF):
        if abs(spread / cutoff - 1.0) <= 1e-6:
            return None
    if spread >= DIVERGENCE_CUTOFF:
        return "diverges"
    if spread <= FLATNESS_CUTOFF:
        return "bounded"
    return "inconclusive"


def check_norm_probe(
    kind: str, lambdas, p: float, q: float, ratios, verdict: str
) -> str:
    """Each measured ratio against its closed form, and the verdict they imply."""
    if len(ratios) != len(lambdas):
        return f"{len(ratios)} ratios for {len(lambdas)} family members"
    expected = [norm_ratio(kind, lam, p, q) for lam in lambdas]
    for lam, got, want in zip(lambdas, ratios, expected):
        if not abs(got / want - 1.0) <= SAMPLE_RTOL:
            return f"ratio at lambda={lam:g} is {got:.12g}, closed form {want:.12g}"
    want_verdict = expected_verdict(max(expected) / min(expected))
    if want_verdict is not None and verdict != want_verdict:
        return f"verdict {verdict!r}, closed-form spread implies {want_verdict!r}"
    return ""


# -- matrix-analysis ----------------------------------------------------------


def _blocks(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    d = mat.shape[0] // 2
    return mat[:d, :d], mat[:d, d:], mat[d:, :d], mat[d:, d:]


def _lower(P: np.ndarray) -> np.ndarray:
    d = P.shape[0]
    return np.block([[np.eye(d), np.zeros((d, d))], [P, np.eye(d)]])


def _upper(P: np.ndarray) -> np.ndarray:
    d = P.shape[0]
    return np.block([[np.eye(d), P], [np.zeros((d, d)), np.eye(d)]])


def _dilation(L: np.ndarray) -> np.ndarray:
    d = L.shape[0]
    z = np.zeros((d, d))
    return np.block([[np.linalg.inv(L), z], [z, L.T]])


def _swap(d: int, members) -> np.ndarray:
    """Partial interchange on the 1-based coordinates ``members``."""
    pj = np.diag([1.0 if j + 1 in set(members) else 0.0 for j in range(d)])
    pc = np.eye(d) - pj
    return np.block([[pc, pj], [-pj, pc]])


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0))


def symplectic_defect(mat: np.ndarray) -> float:
    d = mat.shape[0] // 2
    form = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    return _rel(mat.T @ form @ mat, form)


def shift_block(mat: np.ndarray) -> np.ndarray:
    """The shift submatrix [[A11, A13], [A21, A23]] of a 4d x 4d matrix."""
    d = mat.shape[0] // 4
    blk = lambda i, j: mat[i * d : (i + 1) * d, j * d : (j + 1) * d]
    return np.block([[blk(0, 0), blk(0, 2)], [blk(1, 0), blk(1, 2)]])


def boundedness_case(S: np.ndarray) -> str | None:
    """L^p case read off the singular values of B, None near either cutoff."""
    _, B, _, _ = _blocks(S)
    sv = np.linalg.svd(B, compute_uv=False) / np.linalg.norm(S, 2)
    if sv[0] <= 1e-12:
        return "lower-triangular"
    if sv[-1] >= 1e-7:
        return "free"
    if sv[-1] <= 1e-11:
        return "singular-nonzero-B"
    return None


def check_matrix_analysis(S: np.ndarray, r: dict) -> str:
    """Properties the analysis of S in Sp(2d) must have.

    ``r`` holds the library's outputs as plain arrays: the factorization
    (Q, L, P, J), the perturbation (tau, S_tau, Xi, Theta), the shift report
    determinant and the Wigner split fields.
    """
    n = S.shape[0] // 2
    want_case = boundedness_case(S)
    if want_case is not None and r["case"] != want_case:
        return f"classified {r['case']!r}, the upper-right block says {want_case!r}"
    Q, L, P = r["Q"], r["L"], r["P"]
    if _rel(Q, Q.T) > MATRIX_RTOL or _rel(P, P.T) > MATRIX_RTOL:
        return "factorization parameters are not symmetric"
    recomposed = _lower(Q) @ _dilation(L) @ _upper(P) @ _swap(n, r["J"])
    if _rel(recomposed, S) > MATRIX_RTOL:
        return f"recomposition residual {_rel(recomposed, S):.3e}"

    E = shift_block(S)
    if abs(r["shift_det"] - np.linalg.det(E)) > MATRIX_RTOL * max(1.0, abs(np.linalg.det(E))):
        return f"shift determinant {r['shift_det']!r} != det E = {np.linalg.det(E)!r}"

    s_tau, xi, theta = r["S_tau"], r["Xi"], r["Theta"]
    if not r["tau"] > 0.0:
        return f"perturbation size {r['tau']!r} is not positive"
    for name, mat in (("S_tau", s_tau), ("Xi", xi), ("Theta", theta)):
        if symplectic_defect(mat) > MATRIX_RTOL:
            return f"{name} is not symplectic ({symplectic_defect(mat):.3e})"
    # S = Xi^{-1} S_tau and S = S_tau Theta^{-1}, checked without inverses
    if _rel(xi @ S, s_tau) > MATRIX_RTOL:
        return f"S != Xi^-1 S_tau: residual {_rel(xi @ S, s_tau):.3e}"
    if _rel(S @ theta, s_tau) > MATRIX_RTOL:
        return f"S != S_tau Theta^-1: residual {_rel(S @ theta, s_tau):.3e}"
    sv = np.linalg.svd(shift_block(s_tau), compute_uv=False)
    if not sv[-1] > 1e-8 * np.linalg.norm(s_tau, 2):
        return f"S_tau is not shift-invertible: sigma_min {sv[-1]:.3e}"

    d = n // 2
    Md = r["M"]
    if abs(np.linalg.det(Md) - 1.0) > MATRIX_RTOL:
        return f"det M = {np.linalg.det(Md)!r}"
    for name in ("Q_diag", "P_diag"):
        mat = r[name]
        if np.any(mat[:d, d:]) or np.any(mat[d:, :d]):
            return f"{name} couples the tensor slots"
    ft2 = _swap(n, range(d + 1, n + 1))
    j2 = [j + d for j in r["J2"]]
    split = (
        _dilation(r["L_split"]) @ _lower(r["Q_diag"]) @ ft2.T @ _dilation(Md) @ ft2
        @ _upper(r["P_diag"]) @ _swap(n, r["J1"]) @ _swap(n, j2)
    )
    if _rel(split, S) > MATRIX_RTOL:
        return f"Wigner split does not recompose: residual {_rel(split, S):.3e}"
    return ""


# -- cli-roundtrip ------------------------------------------------------------


def parse_signal(text: str) -> tuple[np.ndarray, float, int]:
    """(values, cell weight, d) of a ``grid-function v1`` text file."""
    head, sep, body = text.partition("\nvalues\n")
    if not sep:
        raise ValueError("no values marker")
    shape = []
    weight = 1.0
    for line in head.splitlines():
        parts = line.split()
        if parts and parts[0] == "axis":
            shape.append(int(parts[1]))
            weight *= float(parts[2])
    pairs = np.array(body.split(), dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(shape), weight, len(shape)


def check_quantized_wigner(g_text: str, k_text: str) -> str:
    """Quantizing W(g, g) gives f -> 2^d <f, g> g, so K g = 2^d ||g||^2 g."""
    g, weight, d = parse_signal(g_text)
    k, _, _ = parse_signal(k_text)
    if k.shape != g.shape:
        return f"output shape {k.shape} != signal shape {g.shape}"
    expected = 2.0**d * float(np.sum(np.abs(g) ** 2)) * weight * g
    resid = float(np.linalg.norm(k - expected) / np.linalg.norm(expected))
    if not resid <= SAMPLE_RTOL:
        return f"K g differs from 2^d ||g||^2 g by {resid:.3e}"
    return ""
