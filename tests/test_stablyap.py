import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import big_b_plant, count_calls, is_psd, random_stabilizable, same_bits, stable_matrix
from conftest import staircase_embedded, traced_peak
from hamlq.errors import ConvergenceFailure, NotStable
from hamlq.matcore import DEFAULT_TOL, fro_norm, solve_linear
from hamlq.reachdecomp import SystemQuadruple, staircase
from hamlq.riccati import solve_dare
from hamlq import matcore, stablyap
from hamlq.stablyap import closed_loop_gramian, solve_dlyap_stable, stability_certificate


def smith_residual(A_K, Q, W):
    """Frobenius norm of ``A_K W A_K' + Q - W``."""
    return np.linalg.norm(A_K @ W @ A_K.T + Q - W, "fro")


def test_zero_loop_returns_forcing():
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    sol = solve_dlyap_stable(np.zeros((2, 2)), Q)
    np.testing.assert_allclose(sol.W, Q)


def test_scalar_geometric_series():
    sol = solve_dlyap_stable(np.array([[0.5]]), np.array([[1.0]]))
    np.testing.assert_allclose(sol.W, [[4.0 / 3.0]], rtol=1e-12)
    assert smith_residual(0.5 * np.eye(1), np.eye(1), sol.W) <= 1e-12


def test_not_stable_raises_with_trace():
    with pytest.raises(NotStable) as exc:
        solve_dlyap_stable(np.array([[2.0]]), np.eye(1))
    assert exc.value.trace
    assert len(exc.value.trace) >= 1
    # unit spectral radius: no overflow, the budget runs out instead
    with pytest.raises(NotStable):
        solve_dlyap_stable(np.eye(2), np.eye(2))


def test_stability_certificate():
    assert stability_certificate(np.zeros((3, 3)))
    assert not stability_certificate(np.eye(2))
    assert stability_certificate(np.array([[0.5, 0.0], [0.0, 0.0]]))
    assert not stability_certificate(np.array([[2.0]]))
    assert not stability_certificate(np.array([[1.0]]))


@st.composite
def scaled_matrices(draw):
    """(kind, M, rho) with n <= 8 and M scaled to spectral radius rho.

    ``symmetric`` is normal; ``gaussian`` is generically non-normal;
    ``triangular`` is upper triangular with off-diagonal entries four times
    the diagonal's, far from normal, and its spectrum is its diagonal exactly.
    """
    kind = draw(st.sampled_from(["symmetric", "gaussian", "triangular"]))
    n = draw(st.integers(1, 8))
    rho = draw(st.floats(0.2, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n))
    if kind == "symmetric":
        G = G + G.T
    elif kind == "triangular":
        G = np.triu(4.0 * G, 1) + np.diag(np.diag(G))
    return kind, G * (rho / np.max(np.abs(np.linalg.eigvals(G)))), rho


# On a failure, hypothesis's pytest plugin imports libcst, which warns on
# import; ignoring that one warning keeps the failure reported instead of
# aborting the session.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scaled_matrices())
def test_certificate_property(case):
    kind, M, rho = case
    # Near the unit circle eigvals itself is off by rounding times the
    # eigenvalue condition number, so it decides nothing there; a triangular
    # matrix's eigenvalues are its diagonal entries, exactly.
    assume(kind == "triangular" or abs(rho - 1.0) > 1e-6)
    certified = stability_certificate(M)
    if certified:
        assert np.max(np.abs(np.linalg.eigvals(M))) < 1.0
    if rho <= 0.999:
        assert certified


def jordan(lam, k):
    return lam * np.eye(k) + np.eye(k, k=1)


@pytest.mark.parametrize(
    "M",
    [jordan(1.0, 2), jordan(-1.0, 2), jordan(1.0, 8), jordan(-1.0, 3), np.diag([1.0, 0.5])],
    ids=["jordan+1", "jordan-1", "jordan+1-n8", "jordan-1-n3", "diag(1,0.5)"],
)
def test_certificate_rejects_unit_modulus_without_warnings(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not stability_certificate(M)


def test_certificate_runs_no_smith_solve(monkeypatch):
    def no_smith(*args, **kwargs):
        raise AssertionError("stability_certificate ran a Smith solve")

    monkeypatch.setattr(stablyap, "solve_dlyap_stable", no_smith)
    rng = np.random.default_rng(12)
    for radius in (0.5, 0.99, 1.01, 2.0):
        M = stable_matrix(rng, 6, radius=radius)
        assert stability_certificate(M) == (radius < 1.0)


def test_certificate_reads_float64_arrays_in_place(monkeypatch):
    # a float64 array is checked where it lies and only read, whatever its layout
    calls = count_calls(monkeypatch, matcore, ["_float_array"])
    M = stable_matrix(np.random.default_rng(13), 5, radius=0.99)
    for layout in (M, np.asfortranarray(M), M.T, np.vstack((M, M))[::2]):
        before = layout.copy()
        assert stability_certificate(layout)
        assert np.array_equal(layout, before)
    assert calls["_float_array"] == 0
    assert stability_certificate(M.tolist())
    assert calls["_float_array"] == 1


def test_certificate_validates_shape():
    with pytest.raises(ValueError):
        stability_certificate(np.ones((2, 3)))


def test_residual_contract_random_stable():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A_K = stable_matrix(rng, n, radius=float(rng.uniform(0.1, 0.95)))
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        sol = solve_dlyap_stable(A_K, Q)
        assert smith_residual(A_K, Q, sol.W) <= 1e-10 * (1 + np.linalg.norm(sol.W, "fro"))
        assert np.max(np.abs(sol.W - sol.W.T)) <= 1e-12 * max(1.0, np.max(np.abs(sol.W)))
        assert is_psd(sol.W)


@pytest.mark.parametrize("transposed", [False, True])
def test_smith_peak_memory(transposed):
    # E, W and two loop buffers, 4.01-4.06 n x n matrices; a separate
    # buffer for the next E made it 5.0. Holding the copy of Q through the
    # loop, and a transposed A_K's copy next to E, made it 6.8 and 7.8 n x n
    # matrices at n = 100; symmetrizing by np.add(W, W.T) added numpy's
    # buffer copy of W.T, 1.1 n x n at n = 50 and 0.8 at n = 100. Q is
    # checked in place, not copied.
    for n in (50, 100):
        rng = np.random.default_rng(63)
        A_K = stable_matrix(rng, n, radius=0.9)
        if transposed:
            A_K = A_K.T
        G = rng.standard_normal((n, n + 1))
        Q = G @ G.T
        peak = traced_peak(lambda: solve_dlyap_stable(A_K, Q))
        assert peak < 4.2 * n * n * 8, (n, peak / (n * n * 8))


def test_smith_peak_memory_with_the_forcing_overwritten():
    # W is formed over the caller's forcing and the transposed A_K is
    # copied, so the solve's own arrays are E and the two loop buffers,
    # 3.02-3.08 n x n matrices
    for n in (50, 100):
        rng = np.random.default_rng(63)
        A_K = stable_matrix(rng, n, radius=0.9)
        G = rng.standard_normal((n, n + 1))
        Q = G @ G.T
        W = []
        peak = traced_peak(lambda: W.append(solve_dlyap_stable(A_K.T, Q, overwrite=True).W))
        assert W[0] is Q
        assert peak < 3.2 * n * n * 8, (n, peak / (n * n * 8))


def test_smith_peak_memory_with_the_closed_loop_and_forcing_overwritten():
    # E is the caller's A_K and W its forcing, so the solve's own arrays are
    # the two loop buffers, 2.02-2.08 n x n matrices
    for n in (50, 100):
        rng = np.random.default_rng(63)
        A_K = stable_matrix(rng, n, radius=0.9)
        G = rng.standard_normal((n, n + 1))
        Q = G @ G.T
        peak = traced_peak(lambda: solve_dlyap_stable(A_K, Q, overwrite=True))
        assert peak < 2.2 * n * n * 8, (n, peak / (n * n * 8))


@pytest.mark.parametrize("layout", ["C", "F", "read-only"])
def test_overwriting_the_closed_loop_gives_the_same_bits(layout):
    # A writable C-ordered A_K is taken as E and written over by the loop;
    # any other is copied and left unchanged
    rng = np.random.default_rng(67)
    for n in (1, 3, 20):
        A_K = np.asarray(stable_matrix(rng, n, radius=0.9), order="F" if layout == "F" else "C")
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        plain = solve_dlyap_stable(A_K, Q)
        loop = A_K.copy(order="K")
        loop.flags.writeable = layout != "read-only"
        over = solve_dlyap_stable(loop, Q.copy(), overwrite=True)
        assert same_bits(over.W, plain.W) and over.iterations == plain.iterations > 1
        in_place = loop.flags.writeable and loop.flags.c_contiguous
        assert in_place == (layout != "read-only" and (layout == "C" or n == 1))
        assert same_bits(loop, A_K) != in_place, n


@pytest.mark.parametrize("layout", ["C", "F"])
def test_overwriting_the_forcing_gives_the_same_bits(layout):
    # an F-ordered forcing is not overwritten: W is always C-ordered
    rng = np.random.default_rng(64)
    for n in (1, 3, 20):
        A_K = stable_matrix(rng, n, radius=0.9)
        G = rng.standard_normal((n, n))
        Q = np.asarray(G @ G.T + rng.standard_normal((n, n)), order=layout)  # not symmetric
        plain = solve_dlyap_stable(A_K, Q)
        forcing = Q.copy(order="K")
        over = solve_dlyap_stable(A_K, forcing, overwrite=True)
        assert (over.W is forcing) == forcing.flags.c_contiguous
        assert over.W.flags.c_contiguous
        assert same_bits(over.W, plain.W) and over.iterations == plain.iterations


def test_plain_call_leaves_q_unchanged():
    rng = np.random.default_rng(65)
    A_K = stable_matrix(rng, 6, radius=0.9)
    Q = np.asfortranarray(rng.standard_normal((6, 6)))
    for q in (Q, np.ascontiguousarray(Q), Q.tolist()):
        before = np.array(q)
        solve_dlyap_stable(A_K, q)
        assert same_bits(np.array(q), before)


def test_read_only_forcing_is_copied_not_overwritten():
    rng = np.random.default_rng(66)
    A_K = stable_matrix(rng, 5, radius=0.9)
    Q = rng.standard_normal((5, 5))
    plain = solve_dlyap_stable(A_K, Q)
    before = Q.copy()
    Q.flags.writeable = False
    over = solve_dlyap_stable(A_K, Q, overwrite=True)
    assert over.W is not Q and over.W.flags.c_contiguous
    assert same_bits(over.W, plain.W) and over.iterations == plain.iterations
    assert same_bits(Q, before)


def test_forcing_in_the_closed_loops_memory_is_copied():
    # the closed loop is taken as E, so a forcing that is the same array
    # cannot also be W
    rng = np.random.default_rng(68)
    M = stable_matrix(rng, 4, radius=0.9)
    plain = solve_dlyap_stable(M, M)
    both = M.copy()
    over = solve_dlyap_stable(both, both, overwrite=True)
    assert over.W is not both
    assert same_bits(over.W, plain.W) and over.iterations == plain.iterations


def test_golden_gramian_matches_reference_block(golden_sys):
    ric = solve_dare(golden_sys)
    gram = closed_loop_gramian(golden_sys, ric)
    W_c_ref = np.array([[0.4708, -0.5165], [-0.5165, 1.1828]])
    assert np.max(np.abs(gram.W[:2, :2] - W_c_ref)) <= 5e-5
    assert np.max(np.abs(gram.W[2:, :])) <= 5e-5
    assert np.max(np.abs(gram.W[:, 2:])) <= 5e-5


@pytest.mark.filterwarnings("error")
def test_overflowing_gramian_forcing_is_a_convergence_failure():
    # A finite B whose forcing B Rw^{-1} B' overflows: one typed error, with
    # no numpy warning first and no ValueError from the Smith solve's check
    # of its forcing.
    sysq = big_b_plant()
    ric = solve_dare(sysq)
    with pytest.raises(ConvergenceFailure, match="Gramian forcing"):
        closed_loop_gramian(sysq, ric)


def test_gramian_block_structure_dual_route():
    # full-system W projected to the staircase basis must agree with the
    # Gramian computed from the restricted data alone
    rng = np.random.default_rng(11)
    for i in range(10):
        s = staircase_embedded(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), rotate=bool(i % 2))
        st = staircase(s)
        ric = solve_dare(s)
        gram = closed_loop_gramian(s, ric)

        Wt = st.T.T @ gram.W @ st.T
        n_c = st.n_c
        scale = 1e-8 * (1 + np.linalg.norm(gram.W, "fro"))
        assert np.max(np.abs(Wt[n_c:, :])) <= scale
        assert np.max(np.abs(Wt[:, n_c:])) <= scale

        sub = SystemQuadruple(st.A_c, st.B_c, st.C_c, s.D)
        W_c = closed_loop_gramian(sub, solve_dare(sub)).W
        assert np.max(np.abs(Wt[:n_c, :n_c] - W_c)) <= scale

        # the reachable block is strictly positive definite
        assert np.linalg.svd(W_c, compute_uv=False)[-1] > 0
        assert is_psd(W_c)


@pytest.mark.parametrize("which", ["golden", "n12", "singular_dd_n30"])
def test_closed_loop_gramian_backward_blocks_bitwise(which, golden_sys):
    # A_K = A + B K, Vbar2 = [W; P W - I] and u_gain = K W A_K' + Rw^{-1} B'
    # are the plain expressions to the last bit and sign of zero, W is the
    # Smith solution and a view of Vbar2's top half, not a second copy, and
    # the two block norms the boundary verdict reads are fro_norm's.
    rng = np.random.default_rng(63)
    sys = {
        "golden": lambda: golden_sys,
        "n12": lambda: random_stabilizable(rng, 12, 3, 4),
        "singular_dd_n30": lambda: random_stabilizable(rng, 30, 3, 3, singular_D=True),
    }[which]()
    ric = solve_dare(sys)
    gram = closed_loop_gramian(sys, ric)
    n = sys.n
    P, K, A_K, W = ric.P, ric.K, gram.A_K, gram.W
    Rw_inv_Bt = solve_linear(ric.Rw, sys.B.T)
    smith = solve_dlyap_stable(A_K, sys.B @ Rw_inv_Bt)

    assert same_bits(A_K, sys.A + sys.B @ K)
    assert same_bits(W, smith.W) and gram.iterations == smith.iterations
    assert np.shares_memory(gram.W, gram.Vbar2)
    assert W.flags.c_contiguous
    assert same_bits(gram.Vbar2, np.vstack([W, P @ W - np.eye(n)]))
    assert same_bits(gram.u_gain, K @ W @ A_K.T + Rw_inv_Bt)
    assert gram.norm_W == fro_norm(W) and gram.norm_PW_I == fro_norm(gram.Vbar2[n:])


def test_gramian_peak_memory():
    # The Riccati solution held, as analyze holds it, then the Smith solve's
    # four arrays, the forcing among them as W and the closed loop formed
    # for it as E, then Vbar2 and the kept A_K: 5.05 n x n matrices. With
    # the Riccati solution's own A_K held next to the Smith solve's copy of
    # it, 6.05.
    n = 100
    sys = random_stabilizable(np.random.default_rng(61), n, 3, 3)
    closed_loop_gramian(sys, solve_dare(sys))
    tracemalloc.start()
    try:
        ric = solve_dare(sys)
        tracemalloc.reset_peak()
        closed_loop_gramian(sys, ric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.2 * n * n * 8, peak / (n * n * 8)


def test_restricted_gain_stabilizes_reachable_part(golden_sys):
    st = staircase(golden_sys)
    ric = solve_dare(golden_sys)
    KT = ric.K @ st.T
    K_c, K_u = KT[:, : st.n_c], KT[:, st.n_c :]
    assert K_c.shape == (2, 2)
    assert K_u.shape == (2, 2)
    assert stability_certificate(st.A_c + st.B_c @ K_c)


def smith_reference(A_K, Q, cfg=DEFAULT_TOL):
    """The Smith loop written with ``@`` and ``np.linalg.norm``: the arithmetic
    ``solve_dlyap_stable`` must repeat, operation for operation."""
    A = np.array(A_K, dtype=np.float64)
    Qm = np.array(Q, dtype=np.float64)
    W = 0.5 * (Qm + Qm.T)
    E = A.copy()
    for it in range(1, cfg.max_iter + 1):
        update = E @ W @ E.T
        update_norm = float(np.linalg.norm(update, "fro"))
        W = W + update
        W = 0.5 * (W + W.T)
        if update_norm <= cfg.residual_tol * float(np.linalg.norm(W, "fro")):
            return W, it
        E = E @ E
    raise AssertionError("reference Smith loop did not converge")


@st.composite
def smith_cases(draw):
    """(A_K, Q) with n <= 30, spectral radius 0.1..0.99, each operand either
    C-ordered or the transpose of a C-ordered matrix."""
    n = draw(st.integers(1, 30))
    rho = draw(st.floats(0.1, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_K = stable_matrix(rng, n, radius=rho)
    G = rng.standard_normal((n, n + 1))
    Q = G @ G.T
    if draw(st.booleans()):
        A_K = np.ascontiguousarray(A_K.T).T
    if draw(st.booleans()):
        Q = np.ascontiguousarray(Q.T).T
    return A_K, Q


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(smith_cases())
def test_smith_matches_reference_bitwise(case):
    A_K, Q = case
    W_ref, it_ref = smith_reference(A_K, Q)
    sol = solve_dlyap_stable(A_K, Q)
    assert sol.iterations == it_ref
    assert np.array_equal(sol.W, W_ref)
