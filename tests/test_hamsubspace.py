import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hidden_left_null_space, random_stabilizable, same_bits, staircase_embedded
from hamlq import hamsubspace
from hamlq.hamsubspace import (
    ResidualNorms,
    analyze,
    assemble_v1,
    assemble_v2,
    assemble_vbar2,
    residuals_v1,
    residuals_v2,
)
from hamlq.matcore import fro_norm, rank, solve_linear
from hamlq.reachdecomp import SystemQuadruple, staircase
from hamlq.lqtraj import TrajectoryProblem, solve_nonrecursive
from hamlq.riccati import solve_dare
from hamlq.stablyap import closed_loop_gramian

ROOT = (1.0 + np.sqrt(65.0)) / 8.0


def solve_all(sys):
    ric = solve_dare(sys)
    gram = closed_loop_gramian(sys, ric)
    return ric, gram


def test_v1_trivial_stacking():
    sys = SystemQuadruple(
        A=np.diag([0.5, 0.25]),
        B=np.eye(2),
        C=np.zeros((2, 2)),
        D=np.eye(2),
    )
    ric, _ = solve_all(sys)
    V1 = assemble_v1(ric)
    np.testing.assert_allclose(V1, np.vstack([np.eye(2), np.zeros((4, 2))]), atol=1e-12)


def test_v1_scalar_decoupled():
    sys = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0], [0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    ric, _ = solve_all(sys)
    V1 = assemble_v1(ric)
    expected = np.array([[1.0], [ROOT], [-0.5 * ROOT / (1.0 + ROOT)]])
    np.testing.assert_allclose(V1, expected, atol=1e-12)


def test_vbar2_and_v2_trivial():
    sys = SystemQuadruple(
        A=np.zeros((2, 2)),
        B=np.eye(2),
        C=np.zeros((2, 2)),
        D=np.eye(2),
    )
    ric, gram = solve_all(sys)
    # P = 0, K = 0, A_K = 0, W = I
    Vbar2 = assemble_vbar2(ric, gram)
    np.testing.assert_allclose(Vbar2, np.vstack([np.eye(2), -np.eye(2)]), atol=1e-12)
    V2 = assemble_v2(ric, gram)
    np.testing.assert_allclose(V2, np.vstack([np.zeros((4, 2)), np.eye(2)]), atol=1e-12)


def test_v2_state_costate_rows_are_exact_shift(golden_sys):
    ric, gram = solve_all(golden_sys)
    Vbar2 = assemble_vbar2(ric, gram)
    V2 = assemble_v2(ric, gram)
    n = golden_sys.n
    assert np.array_equal(V2[: 2 * n], Vbar2 @ ric.A_K.T)


def test_degenerate_no_reachable_modes():
    sys = SystemQuadruple(
        A=np.diag([0.5, -0.25]),
        B=np.zeros((2, 1)),
        C=np.array([[1.0, 1.0]]),
        D=np.array([[1.0]]),
    )
    ric, gram = solve_all(sys)
    np.testing.assert_allclose(gram.W, np.zeros((2, 2)), atol=1e-12)
    Vbar2 = assemble_vbar2(ric, gram)
    np.testing.assert_allclose(Vbar2[:2], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(Vbar2[2:], -np.eye(2), atol=1e-12)
    V2 = assemble_v2(ric, gram)
    np.testing.assert_allclose(V2[:2], np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(V2[2:4], -sys.A.T, atol=1e-10)


def both_residuals(sys, ric, gram):
    V2, Vbar2 = assemble_v2(ric, gram), assemble_vbar2(ric, gram)
    return residuals_v1(sys, assemble_v1(ric), ric.A_K), residuals_v2(sys, V2, Vbar2)


def test_residual_identities(golden_sys):
    ric, gram = solve_all(golden_sys)
    r1, r2 = both_residuals(golden_sys, ric, gram)
    for r in (r1, r2):
        assert r.dynamics_rel <= 1e-12
        assert r.costate_rel <= 1e-12
        assert r.stationarity_rel <= 1e-12
        assert r.max_rel == max(r.dynamics_rel, r.costate_rel, r.stationarity_rel)


def test_analyze_golden_report(golden_sys):
    bundle = analyze(golden_sys)
    rep = bundle.report
    assert rep.n == 4
    assert rep.m == 2
    assert rep.p == 2
    assert rep.n_c == 2
    assert rep.n_u == 2
    assert rep.rank_v1 == 4
    assert rep.rank_v2 == 3
    assert rep.rank_vbar2 == 4
    assert rep.zero_rows_Au == [2]
    assert rep.rank_deficiency_v2 == 1


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e7, 1e8])
def test_analyze_ranks_do_not_depend_on_cost_scale(golden_sys, scale):
    g = golden_sys
    rep = analyze(SystemQuadruple(A=g.A, B=g.B, C=scale * g.C, D=scale * g.D)).report
    assert (rep.rank_v1, rep.rank_v2, rep.rank_vbar2) == (4, 3, 4)


@pytest.mark.parametrize("scale", [1.0, 1e-11, 1e-12])
def test_analyze_zero_rows_do_not_depend_on_plant_scale(golden_sys, scale):
    # The one zero row of A_u explains the drop of one in rank V2; a small A
    # must not add a second.
    g = golden_sys
    rep = analyze(SystemQuadruple(A=scale * g.A, B=g.B, C=g.C, D=g.D)).report
    assert rep.zero_rows_Au == [2]
    assert rep.rank_deficiency_v2 == 1


def test_analyze_makes_one_rank_decision(golden_sys, monkeypatch):
    calls = []

    def counting_rank(M, cfg):
        calls.append(np.shape(M))
        return rank(M, cfg)

    monkeypatch.setattr(hamsubspace, "rank", counting_rank)
    analyze(golden_sys)
    assert calls == [(4, 6)]


@st.composite
def hidden_null_cases(draw):
    n = draw(st.integers(2, 8))
    d = draw(st.integers(0, min(2, n - 1)))
    singular_D = draw(st.booleans())
    cost_scale = draw(st.sampled_from([1.0, 10.0]))
    return n, d, singular_D, cost_scale, draw(st.integers(0, 2**32 - 1))


# On a failure, hypothesis's pytest plugin imports libcst, which warns on
# import; ignoring that one warning keeps the failure reported instead of
# aborting the session.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hidden_null_cases())
def test_dimensions_match_hidden_null_space(case):
    n, d, singular_D, cost_scale, seed = case
    sys = hidden_left_null_space(np.random.default_rng(seed), n, d, singular_D, cost_scale)
    bundle = analyze(sys)
    rep = bundle.report
    assert (rep.rank_v1, rep.rank_v2, rep.rank_vbar2) == (n, n - d, n)
    # The SVD cross-check of V2 cuts off relative to the largest term V2 is
    # assembled from: rounding in that assembly, not sigma_max(V2), sets the
    # size of its zero singular values (measured up to 2e3 eps times it,
    # against nonzero ones of at least 1e9 eps times it).
    ric, W = bundle.riccati, bundle.gramian.W
    terms = (W @ ric.A_K.T, ric.P @ W @ ric.A_K.T, ric.K @ W @ ric.A_K.T, solve_linear(ric.Rw, sys.B.T))
    cutoff = 1e-10 * max(np.linalg.norm(t, 2) for t in terms)
    assert np.count_nonzero(np.linalg.svd(bundle.bases.V2, compute_uv=False) > cutoff) == n - d


def test_analyze_residuals_check_reported_bases(golden_sys):
    # analyze checks a V1 it drops and returns one assembled later; both must
    # be [I; P; K] with the solver's bits, and each triple must be the one
    # its returned bases give. At n = 100 OpenBLAS rounds the rows n:2n of
    # V1[:2n] @ A_K otherwise than P @ A_K, so a product of another shape
    # would show there.
    for sys in (golden_sys, random_stabilizable(np.random.default_rng(61), 100, 3, 3)):
        bundle = analyze(sys)
        b = bundle.bases
        ric = solve_dare(sys)
        assert same_bits(b.V1, np.vstack([np.eye(sys.n), ric.P, ric.K])), sys.n
        assert bundle.residuals_v1 == residuals_v1(sys, b.V1, bundle.riccati.A_K), sys.n
        assert bundle.residuals_v2 == residuals_v2(sys, b.V2, b.Vbar2), sys.n


@pytest.mark.parametrize("which", ["golden", "singular_dd"])
def test_residuals_detect_perturbed_blocks(which, golden_sys):
    if which == "golden":
        sys = golden_sys
    else:
        sys = random_stabilizable(np.random.default_rng(34), 5, 2, 2, singular_D=True)
        assert np.linalg.matrix_rank(sys.D.T @ sys.D) < sys.m
    ric, gram = solve_all(sys)
    n = sys.n
    V1, V2, Vbar2 = assemble_v1(ric), assemble_v2(ric, gram), assemble_vbar2(ric, gram)
    rng = np.random.default_rng(35)

    def bumped(M, rows):
        out = M.copy()
        block = out[rows]
        out[rows] += 1e-3 * (1.0 + np.max(np.abs(block))) * rng.standard_normal(block.shape)
        return out

    # V1 advances by A_K, which sets both of its next-step blocks; V2 steps
    # onto the state and costate blocks of Vbar2
    state, costate, inputs = slice(0, n), slice(n, 2 * n), slice(2 * n, None)
    cases = [
        (residuals_v1, V1, ric.A_K, [slice(None)]),
        (residuals_v2, V2, Vbar2, [state, costate]),
    ]
    for fn, V, nxt, next_blocks in cases:
        assert fn(sys, V, nxt).max_rel <= 1e-10
        for rows in (state, costate, inputs):
            assert fn(sys, bumped(V, rows), nxt).max_rel > 1e-6
        for rows in next_blocks:
            assert fn(sys, V, bumped(nxt, rows)).max_rel > 1e-6


def test_block_structure_in_staircase_basis():
    rng = np.random.default_rng(31)
    s = staircase_embedded(rng, 2, 2, rotate=True, zero_row=1)
    st = staircase(s)
    ric, gram = solve_all(s)
    V2 = assemble_v2(ric, gram)
    n, n_c = s.n, st.n_c
    Tb = np.zeros((2 * n + s.m, 2 * n + s.m))
    Tb[:n, :n] = st.T.T
    Tb[n : 2 * n, n : 2 * n] = st.T.T
    Tb[2 * n :, 2 * n :] = np.eye(s.m)
    V2t = Tb @ V2 @ st.T
    scale = 1e-8 * (1 + np.linalg.norm(V2, "fro"))
    # unreachable-state rows vanish entirely
    assert np.max(np.abs(V2t[n_c:n, :])) <= scale
    # every block in the unreachable column vanishes except the costate one
    assert np.max(np.abs(V2t[:n, n_c:])) <= scale
    assert np.max(np.abs(V2t[2 * n :, n_c:])) <= scale
    np.testing.assert_allclose(V2t[n + n_c : 2 * n, n_c:], -st.A_u.T, atol=scale)


def test_full_rank_v2_when_reachable_and_invertible_loop():
    rng = np.random.default_rng(32)
    found = 0
    while found < 5:
        sys = random_stabilizable(rng, int(rng.integers(1, 5)), 2, 3)
        try:
            ric, gram = solve_all(sys)
        except Exception:
            continue
        st = staircase(sys)
        if st.n_c != sys.n:
            continue
        if np.min(np.abs(np.linalg.eigvals(ric.A_K))) < 1e-3:
            continue
        found += 1
        V2 = assemble_v2(ric, gram)
        assert rank(V2) == sys.n


def test_residuals_hold_on_random_systems():
    rng = np.random.default_rng(33)
    checked = 0
    while checked < 25:
        sys = random_stabilizable(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)), 3)
        try:
            ric, gram = solve_all(sys)
        except Exception:
            continue
        checked += 1
        r1, r2 = both_residuals(sys, ric, gram)
        assert r1.max_rel <= 1e-10
        assert r2.max_rel <= 1e-10


def test_analyze_peak_memory():
    # The residual terms, the bases and the staircase factor are formed one
    # at a time or in place: with every residual term held on top of all
    # three bases the peak was about 20 n x n matrices. With P W formed
    # once, in the Gramian's Vbar2, it read 12.3 (13.3 when analyze
    # formed Vbar2 twice); with P a view of V1, 11.3. With the checked V1
    # dropped before the Gramian, the returned V1 assembled last and a
    # four-buffer Smith loop it reads 10.25.
    n = 100
    sys = random_stabilizable(np.random.default_rng(61), n, 3, 3)
    analyze(sys)
    tracemalloc.start()
    try:
        analyze(sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10.8 * n * n * 8, peak / (n * n * 8)


def singular_dd_n30():
    sys = random_stabilizable(np.random.default_rng(62), 30, 3, 3, singular_D=True)
    assert np.linalg.matrix_rank(sys.D.T @ sys.D) < sys.m
    return sys


@pytest.mark.parametrize("which", ["golden", "singular_dd_n30"])
def test_bases_and_residuals_equal_plain_expressions_bitwise(which, golden_sys):
    sys = golden_sys if which == "golden" else singular_dd_n30()
    ric, gram = solve_all(sys)
    n, eye = sys.n, np.eye(sys.n)
    P, K, W, A_K = ric.P, ric.K, gram.W, ric.A_K
    Vbar2 = assemble_vbar2(ric, gram)
    V2 = assemble_v2(ric, gram)
    assert np.array_equal(Vbar2, np.vstack([W, P @ W - eye]))
    assert np.array_equal(
        V2, np.vstack([np.vstack([W, P @ W - eye]) @ A_K.T, K @ W @ A_K.T + solve_linear(ric.Rw, sys.B.T)])
    )

    def plain(residual, terms):
        raw = fro_norm(residual)
        return raw, raw / (1.0 + max(fro_norm(t) for t in terms))

    def plain_triple(V, V_next):
        A, B, C, D = sys.A, sys.B, sys.C, sys.D
        X, Lam, U = V[:n], V[n : 2 * n], V[2 * n :]
        X_next, Lam_next = V_next[:n], V_next[n:]
        t_dyn = (A @ X, B @ U, X_next)
        t_cos = (C.T @ C @ X, A.T @ Lam_next, C.T @ D @ U, Lam)
        t_sta = (D.T @ C @ X, B.T @ Lam_next, D.T @ D @ U)
        d = plain(t_dyn[0] + t_dyn[1] - X_next, t_dyn)
        c = plain(t_cos[0] + t_cos[1] + t_cos[2] - Lam, t_cos)
        s = plain(t_sta[0] + t_sta[1] + t_sta[2], t_sta)
        return ResidualNorms(d[0], c[0], s[0], d[1], c[1], s[1])

    V1 = assemble_v1(ric)
    assert residuals_v1(sys, V1, A_K) == plain_triple(V1, V1[: 2 * n] @ A_K)
    assert residuals_v2(sys, V2, Vbar2) == plain_triple(V2, Vbar2)


@pytest.mark.parametrize("which", ["golden", "singular_dd_n30"])
def test_analyze_and_residuals_leave_their_inputs_unchanged(which, golden_sys):
    sys = golden_sys if which == "golden" else singular_dd_n30()
    plant = [M.copy() for M in (sys.A, sys.B, sys.C, sys.D)]
    bundle = analyze(sys)
    ric, b, A_K = bundle.riccati, bundle.bases, bundle.riccati.A_K
    # Vbar2 is the Gramian's own array and V2's input row its u_gain
    n, gram = sys.n, bundle.gramian
    assert b.Vbar2 is gram.Vbar2
    assert same_bits(b.V2[2 * n :], gram.u_gain)
    # analyze's own residual checks ran on the bases it returns
    assert np.array_equal(b.V1, assemble_v1(ric))
    assert np.array_equal(b.V2, assemble_v2(ric, bundle.gramian))
    assert np.array_equal(b.Vbar2, assemble_vbar2(ric, bundle.gramian))
    held = [M.copy() for M in (b.V1, b.V2, b.Vbar2, A_K)]
    residuals_v1(sys, b.V1, A_K)
    residuals_v2(sys, b.V2, b.Vbar2)
    for before, after in zip(plant, (sys.A, sys.B, sys.C, sys.D)):
        assert np.array_equal(before, after)
    for before, after in zip(held, (b.V1, b.V2, b.Vbar2, A_K)):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("which", ["golden", "n12", "singular_dd_n30"])
def test_analyze_holds_p_as_a_view_of_v1(which, golden_sys):
    # P is the rows n:2n of V1, not a second copy, with the solver's bits and
    # C layout: trajectories solved from the bundle round as those solved
    # from a fresh solve_dare, at either endpoint.
    sys = {
        "golden": lambda: golden_sys,
        "n12": lambda: random_stabilizable(np.random.default_rng(63), 12, 3, 4),
        "singular_dd_n30": singular_dd_n30,
    }[which]()
    bundle = analyze(sys)
    P = bundle.riccati.P
    assert np.shares_memory(P, bundle.bases.V1)
    assert P.flags.c_contiguous
    ric, gram = solve_all(sys)
    assert same_bits(P, ric.P)

    x0 = np.random.default_rng(64).standard_normal(sys.n)
    free = TrajectoryProblem(sys, x0, 10)
    fresh = solve_nonrecursive(free, ric, gram)
    fixed = TrajectoryProblem(sys, x0, 10, xf=fresh.x[-1])  # reachable by construction
    for prob in (free, fixed):
        want = solve_nonrecursive(prob, ric, gram)
        got = solve_nonrecursive(prob, bundle.riccati, bundle.gramian)
        for name in ("x", "p", "u"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(np.float64(got.J), np.float64(want.J))
