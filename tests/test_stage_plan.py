"""The stage plan: identity skipping, adjoint inversion, interpretation, dispatch."""

import numpy as np
import pytest

from metaplectic.metaplectic_numeric import (
    GaussianChirp,
    Grid,
    apply_metaplectic,
    herm_inner,
    opA_build,
    wigner,
    wigner_projection,
)
from metaplectic.metaplectic_numeric import operators
from metaplectic.metaplectic_numeric.operators import adjoint_plan, run_plan, stage_plan
from metaplectic.symplectic_core import (
    IndexSet,
    SymplecticMatrix,
    chirp_block,
    dilation_block,
    dj_factorize,
    interchange,
    multiplier_block,
)

from oracles import closed_form_plan

Q = np.array([[0.3, 0.1], [0.1, -0.2]])
L = np.array([[1.1, 0.2], [-0.1, 0.9]])
P = np.array([[0.25, -0.1], [-0.1, 0.4]])


def _four_stage_factorization():
    S = chirp_block(Q) @ dilation_block(L) @ multiplier_block(P) @ interchange(IndexSet(2, (1,)))
    return dj_factorize(S)


def test_identity_matrix_returns_the_input_itself():
    f = GaussianChirp.standard(1).sample(Grid.selfdual(1, 64))
    assert stage_plan(dj_factorize(SymplecticMatrix(np.eye(2)))) == []
    assert apply_metaplectic(SymplecticMatrix(np.eye(2)), f) is f


def test_plan_order_and_adjoint_parameters():
    fact = _four_stage_factorization()
    plan = stage_plan(fact)
    assert [stage for stage, _ in plan] == ["ft", "multiplier", "rescale", "chirp"]
    adj = adjoint_plan(fact)
    assert [stage for stage, _ in adj] == ["chirp", "rescale", "multiplier", "ift"]
    assert np.array_equal(adj[0][1], -fact.Q)
    assert np.array_equal(adj[1][1], np.linalg.inv(fact.L))
    assert np.array_equal(adj[2][1], -fact.P)
    assert adj[3][1] == fact.J


def test_plan_leaves_out_identity_stages():
    # a pure chirp: no interchange, no multiplier, no rescaling
    fact = dj_factorize(chirp_block(Q))
    assert [stage for stage, _ in stage_plan(fact)] == ["chirp"]
    assert [stage for stage, _ in adjoint_plan(fact)] == ["chirp"]


def test_adjoint_plan_is_the_adjoint_of_the_pipeline():
    # <S f, g> = <f, S* g> on a doubled self-dual grid, all four stages active
    fact = _four_stage_factorization()
    assert len(stage_plan(fact)) == 4
    g = Grid.selfdual(2, 64)
    f = GaussianChirp(1.0, 1j * np.array([[1.2, 0.2], [0.2, 0.9]]), np.array([0.1, -0.2])).sample(g)
    h = GaussianChirp(1.0, np.diag([0.3, -0.2]) + 1j * np.eye(2), np.array([-0.1j, 0.2])).sample(g)
    lhs = herm_inner(apply_metaplectic(fact, f), h)
    rhs = herm_inner(f, run_plan(adjoint_plan(fact), h))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_gaussian_backend_follows_the_same_plan():
    fact = _four_stage_factorization()
    c = GaussianChirp(1.0, 1j * np.eye(2), np.zeros(2))
    g = Grid.selfdual(2, 64)
    sampled = apply_metaplectic(fact, c.sample(g)).values
    closed = closed_form_plan(stage_plan(fact), c).sample(g).values
    # one global unimodular constant separates the two
    k = np.unravel_index(np.argmax(np.abs(closed)), closed.shape)
    phase = sampled[k] / closed[k]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(sampled - phase * closed)) < 1e-9 * np.max(np.abs(closed))


def test_interpreter_calls_stages_by_module_name(monkeypatch):
    calls = []
    original = operators.rescale_apply

    def counted(L, f):
        calls.append(L)
        return original(L, f)

    monkeypatch.setattr(operators, "rescale_apply", counted)
    f = GaussianChirp.standard(2).sample(Grid.selfdual(2, 16))
    apply_metaplectic(_four_stage_factorization(), f)
    assert len(calls) == 1


def test_opA_build_rejects_a_near_wigner_matrix():
    # within numpy's default rtol of the Wigner matrix, but not equal to it
    A = wigner_projection(1) @ dilation_block(np.diag([1.0 + 1e-6, 1.0]))
    a = wigner(GaussianChirp.standard(1).sample(Grid.selfdual(1, 32)))
    with pytest.raises(ValueError, match="output grid"):
        opA_build(a, A)
