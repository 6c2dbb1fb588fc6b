import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHECKERS,
    count_calls,
    hidden_left_null_space,
    krylov_overflow_plant,
    random_stabilizable,
    same_bits,
    staircase_embedded,
    traced_peak,
)
from hamlq import hamsubspace
from hamlq.errors import NotStabilizable
from hamlq.hamsubspace import (
    ResidualNorms,
    analyze,
    assemble_v1,
    assemble_v2,
    assemble_vbar2,
    residuals_v1,
    residuals_v2,
)
from hamlq.matcore import ToleranceConfig, fro_norm, rank, solve_linear
from hamlq.reachdecomp import SystemQuadruple, staircase, zero_row_indices
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


def plain(residual, terms):
    raw = fro_norm(residual)
    return raw, raw / (1.0 + max(fro_norm(t) for t in terms))


def plain_triple(sys, V, V_next):
    """The three relation residuals of a whole basis ``V = [X; L; U]`` stepping
    onto ``V_next = [X_+; L_+]``, each summed as its plain expression."""
    n = sys.n
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


def test_residual_identities(golden_sys):
    ric, gram = solve_all(golden_sys)
    for r in (residuals_v1(golden_sys, ric), residuals_v2(golden_sys, ric, gram)):
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
    V2 = assemble_v2(ric, bundle.gramian)
    assert np.count_nonzero(np.linalg.svd(V2, compute_uv=False) > cutoff) == n - d


def test_analyze_residuals_check_reported_bases(golden_sys):
    # The checks hold no basis, yet each triple must be the plain one of the
    # bases assembled from the bundle, V1 = [I; P; K] with the solver's
    # bits. At n = 100 OpenBLAS rounds the rows n:2n of V1[:2n] @ A_K
    # otherwise than P @ A_K, so a product of another shape would show there.
    for sys in (golden_sys, random_stabilizable(np.random.default_rng(61), 100, 3, 3)):
        bundle = analyze(sys)
        ric, gram = bundle.riccati, bundle.gramian
        r1, r2 = residuals_v1(sys, ric), residuals_v2(sys, ric, gram)
        V1, V2, Vbar2 = assemble_v1(ric), assemble_v2(ric, gram), assemble_vbar2(ric, gram)
        fresh = solve_dare(sys)
        assert same_bits(V1, np.vstack([np.eye(sys.n), fresh.P, fresh.K])), sys.n
        assert r1 == plain_triple(sys, V1, V1[: 2 * sys.n] @ fresh.A_K), sys.n
        assert r2 == plain_triple(sys, V2, Vbar2), sys.n


@pytest.mark.parametrize("which", ["golden", "singular_dd"])
def test_residuals_detect_perturbed_blocks(which, golden_sys):
    if which == "golden":
        sys = golden_sys
    else:
        sys = random_stabilizable(np.random.default_rng(34), 5, 2, 2, singular_D=True)
        assert np.linalg.matrix_rank(sys.D.T @ sys.D) < sys.m
    ric, gram = solve_all(sys)
    n = sys.n
    rng = np.random.default_rng(35)

    def bumped(M, rows=slice(None)):
        out = M.copy()
        block = out[rows]
        out[rows] += 1e-3 * (1.0 + np.max(np.abs(block))) * rng.standard_normal(block.shape)
        return out

    assert residuals_v1(sys, ric).max_rel <= 1e-10
    assert residuals_v2(sys, ric, gram).max_rel <= 1e-10
    # V1 = [I; P; K] advances by A_K; V2 = [Vbar2 A_K'; u_gain] steps onto
    # the state and costate blocks of Vbar2
    for name in ("P", "K", "A_K"):
        bad = dataclasses.replace(ric, **{name: bumped(getattr(ric, name))})
        assert residuals_v1(sys, bad).max_rel > 1e-6, name
    assert residuals_v2(sys, dataclasses.replace(ric, A_K=bumped(ric.A_K)), gram).max_rel > 1e-6
    for name, rows in (("Vbar2", slice(0, n)), ("Vbar2", slice(n, 2 * n)), ("u_gain", slice(None))):
        bad = dataclasses.replace(gram, **{name: bumped(getattr(gram, name), rows)})
        assert residuals_v2(sys, ric, bad).max_rel > 1e-6, (name, rows)


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
        assert residuals_v1(sys, ric).max_rel <= 1e-10
        assert residuals_v2(sys, ric, gram).max_rel <= 1e-10


def test_analyze_peak_memory():
    # The staircase factor is formed in place and no basis or residual term
    # at all: with every residual term held on top of all three bases the
    # peak was about 20 n x n matrices. With P W formed once, in the
    # Gramian's Vbar2, it read 12.3 (13.3 when analyze formed Vbar2 twice);
    # with P a view of V1, 11.3; with both residual checks and V1 assembled
    # inside analyze and a four-buffer Smith loop, 10.25. With the bases and
    # checks left to the bundle and each Smith solve writing W over its
    # forcing, the Newton steps on top of the held staircase set it: 8.26.
    # With the staircase form dropped once n_c and the zero rows of A_u are
    # read off it, the staircase's own Krylov QR set it: 7.98. With the
    # Krylov blocks folded into a buffer of about 2n rows as they are formed,
    # the staircase peaks at 5.23 and the Newton steps' Smith loop sets it: 6.19.
    n = 100
    sys = random_stabilizable(np.random.default_rng(61), n, 3, 3)
    analyze(sys)
    peak = traced_peak(lambda: analyze(sys))
    assert peak < 6.3 * n * n * 8, peak / (n * n * 8)


def test_analyze_plant_whose_krylov_blocks_overflow_raises_a_typed_error():
    # Unscaled Krylov blocks leaked numpy warnings and a "non-finite entries"
    # ValueError from the staircase. Scaled down as they grow, they keep
    # their relative sizes, the staircase returns without a warning, and the
    # Riccati bootstrap finds no certified gain.
    sys = krylov_overflow_plant()
    staircase(sys)
    with pytest.raises(NotStabilizable):
        analyze(sys)


@pytest.mark.parametrize("which", ["golden", "rotated", "n100"])
def test_analyze_calls_only_the_staircase_and_returns_what_it_computed(which, golden_sys, monkeypatch):
    # analyze reads n_c and the zero rows of A_u off one staircase form and
    # holds it no longer; it forms no basis and no residual check, and the
    # bundle is a plain record of what it computed.
    sys = {
        "golden": lambda: golden_sys,
        "rotated": lambda: staircase_embedded(np.random.default_rng(5), 3, 2, rotate=True),
        "n100": lambda: random_stabilizable(np.random.default_rng(61), 100, 3, 3),
    }[which]()
    calls = count_calls(monkeypatch, hamsubspace, CHECKERS)
    bundle = analyze(sys)
    assert calls == dict(dict.fromkeys(CHECKERS, 0), staircase=1)
    assert list(vars(bundle)) == ["sys", "riccati", "gramian", "report"]
    form = staircase(sys)
    rep = bundle.report
    assert (rep.n_c, rep.n_u, rep.zero_rows_Au) == (form.n_c, form.n_u, zero_row_indices(form.A_u))
    if which == "golden":
        assert (rep.n_c, rep.n_u, rep.zero_rows_Au) == (2, 2, [2])
    elif which == "rotated":
        assert not np.array_equal(form.T, np.eye(sys.n))


def test_analyze_forms_no_basis_or_residual_until_one_is_read(golden_sys, monkeypatch):
    # Reading the record's fields forms nothing; a basis or a residual
    # check is formed only by the caller's own call, once per call.
    calls = count_calls(monkeypatch, hamsubspace, CHECKERS)
    bundle = analyze(golden_sys)
    none = dict(dict.fromkeys(CHECKERS, 0), staircase=1)
    assert calls == none
    bundle.report, bundle.riccati.P, bundle.gramian.Vbar2
    assert calls == none
    hamsubspace.residuals_v1(golden_sys, bundle.riccati)
    assert calls == dict(none, residuals_v1=1, assemble_v1=1, _relation_residuals=1)


def test_staircase_read_uses_the_tolerances_analyze_ran_with():
    # A coarser rank cutoff drops the weakest reachable directions: 8 of 12
    # instead of 12. The form analyze reads the report off is the one of
    # that cutoff.
    sys = random_stabilizable(np.random.default_rng(0), 12, 1, 2)
    cfg = ToleranceConfig(rank_tol_factor=1e-4)
    assert staircase(sys).n_c == 12
    bundle = analyze(sys, cfg)
    assert bundle.report.tolerances is cfg
    form = staircase(sys, cfg)
    assert (form.n_c, bundle.report.n_c, bundle.report.n_u) == (8, 8, 4)
    assert bundle.report.zero_rows_Au == zero_row_indices(form.A_u, cfg)


def test_residual_reading_peak_memory():
    # analyze, then both residual checks and the three bases, as hamlq
    # analyze --full forms them. Each check holds one 2n x n product and two
    # residual terms on top of the bundle: 8.16 n x n matrices, and the bases
    # formed after the checks stay below that. With the staircase form held
    # by the bundle it read 10.23, where analyze read 10.25 when it formed
    # both checks itself; checking a whole assembled V1 with the Gramian held
    # read 12.1, and routing residuals_v2 through a whole V2 10.26.
    n = 100
    sys = random_stabilizable(np.random.default_rng(61), n, 3, 3)

    def analyze_and_check():
        bundle = analyze(sys)
        ric, gram = bundle.riccati, bundle.gramian
        residuals_v1(sys, ric), residuals_v2(sys, ric, gram)
        return bundle, assemble_v1(ric), assemble_v2(ric, gram), assemble_vbar2(ric, gram)

    analyze_and_check()
    peak = traced_peak(analyze_and_check)
    assert peak < 8.5 * n * n * 8, peak / (n * n * 8)


def singular_dd_n30():
    sys = random_stabilizable(np.random.default_rng(62), 30, 3, 3, singular_D=True)
    assert np.linalg.matrix_rank(sys.D.T @ sys.D) < sys.m
    return sys


def layout_plants():
    rng = np.random.default_rng(66)
    plants = {f"n{n}": random_stabilizable(rng, n, m, 3) for n, m in ((1, 1), (7, 1), (12, 3), (100, 3))}
    plants["zero_row"] = staircase_embedded(rng, 3, 3, zero_row=2)
    A = np.diag([0.5, -0.0, 0.25])
    plants["exact_zeros"] = SystemQuadruple(A=A, B=np.eye(3)[:, :2], C=np.eye(3), D=np.zeros((3, 2)))
    return plants


LAYOUT_CASES = [
    f"{name}-{order}" for name in ("n1", "n7", "n12", "n100", "zero_row", "exact_zeros") for order in "CF"
]


# The checks leave out the identity block of V1 and read A_K for its state
# rows I A_K, exact up to the sign of zeros; a norm sums in memory order, so
# they must read A, P, K and A_K C-ordered as V1 does. C- and F-ordered
# plants, one input (a K that is both C- and F-contiguous) and exact zeros
# in A_K and in the residual sums all keep the plain expressions' bits.
@pytest.mark.parametrize("which", ["golden", "singular_dd_n30", *LAYOUT_CASES])
def test_bases_and_residuals_equal_plain_expressions_bitwise(which, golden_sys):
    if which == "golden":
        sys = golden_sys
    elif which == "singular_dd_n30":
        sys = singular_dd_n30()
    else:
        name, order = which.rsplit("-", 1)
        base = layout_plants()[name]
        sys = SystemQuadruple(*(np.asarray(M, order=order) for M in (base.A, base.B, base.C, base.D)))
        if sys.n > 1 and order == "F":
            assert sys.A.flags.f_contiguous and not sys.A.flags.c_contiguous
    ric, gram = solve_all(sys)
    n, eye = sys.n, np.eye(sys.n)
    P, K, W, A_K = ric.P, ric.K, gram.W, ric.A_K
    Vbar2 = assemble_vbar2(ric, gram)
    V2 = assemble_v2(ric, gram)
    assert np.array_equal(Vbar2, np.vstack([W, P @ W - eye]))
    assert np.array_equal(
        V2, np.vstack([np.vstack([W, P @ W - eye]) @ A_K.T, K @ W @ A_K.T + solve_linear(ric.Rw, sys.B.T)])
    )
    V1 = assemble_v1(ric)
    assert residuals_v1(sys, ric) == plain_triple(sys, V1, V1[: 2 * n] @ A_K)
    assert residuals_v2(sys, ric, gram) == plain_triple(sys, V2, Vbar2)


@pytest.mark.parametrize("n", [12, 50, 100])
def test_residuals_do_not_depend_on_the_layout_of_a_callers_solution(n):
    # A caller may check a solution of its own, in any layout. On the
    # solver's outputs the layout shows in no bit: the dynamics residual is
    # exactly 0 and P exactly symmetric, and with m = 3 the products with K
    # and u_gain round alike. So the blocks are perturbed, and m = 20 is
    # tried too. Without the C-ordered reads of P, K, A_K (before V1[:2n]
    # A_K and Vbar2 A_K' are formed) and u_gain, F-ordered copies of the
    # same values give other bits on some of these plants.
    rng = np.random.default_rng(3000 + n)
    for m in (3, 3, 20, 20):
        sys = random_stabilizable(rng, n, m, m)
        ric, gram = solve_all(sys)

        def bumped(M):
            return M + 1e-3 * (1.0 + np.max(np.abs(M))) * rng.standard_normal(M.shape)

        ric = dataclasses.replace(ric, P=bumped(ric.P), K=bumped(ric.K), A_K=bumped(ric.A_K))
        gram = dataclasses.replace(gram, u_gain=bumped(gram.u_gain))
        F = np.asfortranarray
        f_ric = dataclasses.replace(ric, P=F(ric.P), K=F(ric.K), A_K=F(ric.A_K))
        f_gram = dataclasses.replace(gram, u_gain=F(gram.u_gain))
        assert not f_ric.K.flags.c_contiguous and not f_gram.u_gain.flags.c_contiguous
        assert residuals_v1(sys, f_ric) == residuals_v1(sys, ric), m
        assert residuals_v2(sys, f_ric, f_gram) == residuals_v2(sys, ric, gram), m


@pytest.mark.parametrize("which", ["golden", "singular_dd_n30"])
def test_analyze_and_residuals_leave_their_inputs_unchanged(which, golden_sys):
    sys = golden_sys if which == "golden" else singular_dd_n30()
    plant = [M.copy() for M in (sys.A, sys.B, sys.C, sys.D)]
    bundle = analyze(sys)
    ric, gram = bundle.riccati, bundle.gramian
    V1, V2 = assemble_v1(ric), assemble_v2(ric, gram)
    # Vbar2 is the Gramian's own array and V2's input row its u_gain
    n = sys.n
    assert assemble_vbar2(ric, gram) is gram.Vbar2
    assert same_bits(V2[2 * n :], gram.u_gain)
    read = (ric.P, ric.K, ric.A_K, gram.Vbar2, gram.u_gain, V1, V2)
    held = [M.copy() for M in read]
    residuals_v1(sys, ric), residuals_v2(sys, ric, gram)
    for before, after in zip(plant + held, (sys.A, sys.B, sys.C, sys.D, *read)):
        assert same_bits(before, after)


@pytest.mark.parametrize("which", ["golden", "n12", "singular_dd_n30"])
def test_analyze_holds_the_solvers_own_p(which, golden_sys):
    # P is the Riccati solver's own C-ordered array, and V1 a new array
    # assembled from it: trajectories solved from the bundle round as those
    # solved from a fresh solve_dare, at either endpoint.
    sys = {
        "golden": lambda: golden_sys,
        "n12": lambda: random_stabilizable(np.random.default_rng(63), 12, 3, 4),
        "singular_dd_n30": singular_dd_n30,
    }[which]()
    bundle = analyze(sys)
    P = bundle.riccati.P
    assert P.flags.c_contiguous and P.flags.owndata
    V1 = assemble_v1(bundle.riccati)
    assert not np.shares_memory(P, V1)
    assert same_bits(V1[sys.n : 2 * sys.n], P)
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
