"""Every refusal that a public call can reach, with its exact message.

One row per ``raise ValueError``: the call that reaches it and the text it
must carry.  ``GaussianChirp.partial_ft``'s "partial transform diverges" is
the one refusal missing here: its Im M_JJ is a principal submatrix of the Im M
that the constructor has already found positive definite.
"""

import numpy as np
import pytest

from metaplectic.io import parse_dj, parse_matrix
from metaplectic.metaplectic_numeric import (
    GaussianChirp,
    Grid,
    apply_metaplectic,
    chirp_apply,
    multiplier_apply,
    partial_ft,
    rescale_apply,
    tf_shift,
)
from metaplectic.probes import unbounded_probe
from metaplectic.symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    dj_factorize,
    multiplier_block,
    random_symplectic,
    redox_split,
    standard_involution,
)

MATRIX = "symplectic-matrix v1\nd 1\nrow 1.0 0.0\nrow 0.0 1.0\n"
DJ = "dj-factorization v1\nd 1\nsubset 1\nresidual 0.0\nQ\nrow 0.0\nL\nrow 1.0\nP\nrow 0.0\n"


def _signal(d=1, n=8):
    return GaussianChirp.standard(d).sample(Grid.selfdual(d, n))


# a symplectic matrix up to 1e-9 in C, inside the 1e-8 relation check but
# past the 1e-10 symmetry check of the solved chirp parameter Q = C
_ASYMMETRIC_C = np.eye(4)
_ASYMMETRIC_C[2, 1] = 1e-9

REFUSALS = {
    # operators
    "rescale-dense-cap": (
        lambda: rescale_apply(np.array([[0.5]]), _signal(1, 8192)),
        "axis rescaling needs dense synthesis; axis size 8192 exceeds 4096",
    ),
    "apply-dimension": (
        lambda: apply_metaplectic(standard_involution(2), _signal()),
        "matrix acts in dimension 2, function lives in 1",
    ),
    "partial-ft-dimension": (
        lambda: partial_ft(_signal(), IndexSet(2, (1,))),
        "index set lives in dimension 2, grid in 1",
    ),
    "stage-parameter-shape": (
        lambda: chirp_apply(np.eye(2), _signal()),
        "parameter must be 1 x 1, got (2, 2)",
    ),
    # these used to return non-finite samples
    "chirp-parameter-nan": (
        lambda: chirp_apply([[np.nan]], _signal()),
        "chirp parameter Q must be finite",
    ),
    "multiplier-parameter-inf": (
        lambda: multiplier_apply([[np.inf]], _signal()),
        "multiplier parameter P must be finite",
    ),
    "rescaling-parameter-nan": (
        lambda: rescale_apply(np.diag([1.0, np.nan]), _signal(2)),
        "rescaling parameter L must be finite",
    ),
    "tf-shift-x0-inf": (
        lambda: tf_shift(_signal(), np.inf, 0.0),
        "time-frequency shift x0 must be finite",
    ),
    "tf-shift-xi0-nan": (
        lambda: tf_shift(_signal(2), 0.0, [0.5, np.nan]),
        "time-frequency shift xi0 must be finite",
    ),
    "tf-shift-tau-inf": (
        lambda: tf_shift(_signal(), 0.0, 0.0, -np.inf),
        "time-frequency shift tau must be finite",
    ),
    # grid
    "grid-no-axes": (lambda: Grid(()), "grid needs at least one axis"),
    # GaussianChirp
    "chirp-not-square": (
        lambda: GaussianChirp(1.0, 1j * np.ones((2, 3)), np.zeros(2)),
        "expected a square matrix, got shape (2, 3)",
    ),
    "chirp-form-size": (
        lambda: GaussianChirp.standard(1).chirp(np.eye(2)),
        "expected size 1, got 2",
    ),
    "chirp-b-length": (
        lambda: GaussianChirp(1.0, 1j * np.eye(2), np.zeros(3)),
        "b must be a vector of length 2, got shape (3,)",
    ),
    "chirp-no-decay": (
        lambda: GaussianChirp(1.0, np.eye(1), np.zeros(1)),
        "Im M must be positive definite (the chirp must decay)",
    ),
    "chirp-coordinate-count": (
        lambda: GaussianChirp.standard(2)(np.zeros(3)),
        "expected 2 coordinate arrays, got 1",
    ),
    "chirp-sample-grid": (
        lambda: GaussianChirp.standard(2).sample(Grid.selfdual(1, 8)),
        "grid dimension 1 does not match chirp dimension 2",
    ),
    "chirp-ft-positions": (
        lambda: GaussianChirp.standard(1).partial_ft([1]),
        "positions [1] out of range 0..0",
    ),
    # parsers
    "parse-keyword": (
        lambda: parse_matrix(MATRIX.replace("d 1", "n 1")),
        "line 2: expected 'd', got 'n'",
    ),
    "parse-d-count": (
        lambda: parse_matrix(MATRIX.replace("d 1", "d 1 2")),
        "line 2: d line must carry exactly one integer",
    ),
    "parse-d-positive": (
        lambda: parse_matrix(MATRIX.replace("d 1", "d 0")),
        "line 2: d must be positive, got 0",
    ),
    "parse-residual": (
        lambda: parse_dj(DJ.replace("residual 0.0", "residual 0.0 1.0")),
        "line 4: residual line must carry one number",
    ),
    "parse-row-numbers": (
        lambda: parse_matrix(MATRIX.replace("row 1.0 0.0", "row 1.0 x")),
        "line 3: row entries must be numbers",
    ),
    "parse-dj-section": (
        lambda: parse_dj(DJ.replace("\nL\n", "\nM\n")),
        "line 7: expected section 'L', got 'M'",
    ),
    # matrix layer
    "matrix-not-square": (
        lambda: SymplecticMatrix(np.ones((2, 3))),
        "expected a square matrix, got shape (2, 3)",
    ),
    "index-set-dimension": (lambda: IndexSet(0, ()), "dimension must be positive, got 0"),
    # this used to become {1} through int()
    "index-set-non-integral": (
        lambda: IndexSet(2, (1.5,)),
        "index set members must be integers, got 1.5",
    ),
    "dilation-not-square": (
        lambda: dilation_block(np.ones((2, 3))),
        "dilation parameter L must be square, got shape (2, 3)",
    ),
    # these used to raise LinAlgError from the SVD, and call inf singular
    "dilation-nan": (lambda: dilation_block([[np.nan]]), "dilation parameter L must be finite"),
    "dilation-inf": (
        lambda: dilation_block(np.diag([1.0, np.inf])),
        "dilation parameter L must be finite",
    ),
    "random-dimension": (lambda: random_symplectic(0, 0), "dimension must be positive, got 0"),
    "redox-size": (
        lambda: redox_split(np.eye(2), IndexSet(1, ())),
        "P has size 2 but J lives in dimension 1",
    ),
    "symmetric-not-square": (
        lambda: chirp_block(np.ones(3)),
        "chirp parameter P must be a square matrix, got shape (3,)",
    ),
    "dj-lost-symmetry": (
        lambda: dj_factorize(SymplecticMatrix(_ASYMMETRIC_C)),
        "solved chirp parameters lost symmetry (1.000e-09); "
        "input is likely not symplectic to working precision",
    ),
    # exactly symplectic, but X(J) is 1e-5 or 0 against sigma_max(S) = 1e5
    "dj-no-admissible-set": (
        lambda: dj_factorize(SymplecticMatrix(np.diag([1e-5, 1e5]))),
        "no admissible index set found: no X(J) reaches tol * sigma_max(S); the best "
        "ratio sigma_min(X(J)) / sigma_max(S) is 1.000e-10, tol 1.000e-09",
    ),
    # probes: at tol = 1e-3 the block diag(1, 1e-5) counts as singular, but
    # its multiplier corner keeps 1e-5 > WITNESS_TOL as its least eigenvalue
    "unbounded-no-null-direction": (
        lambda: unbounded_probe(multiplier_block(np.diag([1.0, 1e-5])), 1.0, np.inf, n=8, tol=1e-3),
        "no null direction found in the retained multiplier corner",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_public_call_refuses_with_its_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
