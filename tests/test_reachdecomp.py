
import numpy as np
import pytest

from conftest import krylov, random_orthogonal, random_stabilizable, stable_matrix, staircase_embedded
from conftest import traced_peak
from hamlq.matcore import EPS, rank
from hamlq.reachdecomp import SystemQuadruple, staircase, zero_row_indices


def test_quadruple_validation_names_offending_field():
    with pytest.raises(ValueError, match="B"):
        SystemQuadruple(A=np.eye(2), B=np.zeros((3, 1)), C=np.eye(2), D=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="C"):
        SystemQuadruple(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(3), D=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="D"):
        SystemQuadruple(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2), D=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SystemQuadruple(A=[[np.inf]], B=[[1.0]], C=[[1.0]], D=[[1.0]])


def test_quadruple_dimensions():
    s = SystemQuadruple(A=np.eye(3), B=np.ones((3, 2)), C=np.ones((1, 3)), D=np.ones((1, 2)))
    assert (s.n, s.m, s.p) == (3, 2, 1)


def test_staircase_golden(golden_sys):
    st = staircase(golden_sys)
    assert st.n_c == 2
    assert st.n_u == 2
    np.testing.assert_allclose(st.T, np.eye(4))  # already in staircase coordinates
    np.testing.assert_allclose(st.A_u, [[0.5, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(st.B_c, [[1.0, 0.2], [2.0, 3.0]])
    np.testing.assert_allclose(st.A_c, golden_sys.A[:2, :2])
    np.testing.assert_allclose(st.A_cu, golden_sys.A[:2, 2:])
    np.testing.assert_allclose(st.C_c, golden_sys.C[:, :2])
    np.testing.assert_allclose(st.C_u, golden_sys.C[:, 2:])


def test_staircase_fully_reachable():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    s = SystemQuadruple(A=A, B=np.eye(3), C=np.ones((1, 3)), D=np.zeros((1, 3)))
    st = staircase(s)
    assert st.n_c == 3
    assert st.A_u.shape == (0, 0)
    assert st.n_u == 0


def test_staircase_unreachable():
    A = np.diag([0.5, -0.3])
    s = SystemQuadruple(A=A, B=np.zeros((2, 1)), C=np.ones((1, 2)), D=np.ones((1, 1)))
    st = staircase(s)
    assert st.n_c == 0
    np.testing.assert_allclose(st.A_u, A)
    assert st.B_c.shape == (0, 1)


def test_staircase_invariants_on_rotated_systems():
    rng = np.random.default_rng(6)
    for i in range(25):
        n_c = int(rng.integers(1, 4))
        n_u = int(rng.integers(0, 3))
        s = staircase_embedded(rng, n_c, n_u, rotate=True)
        st = staircase(s)
        assert st.n_c == n_c
        n = s.n
        assert np.max(np.abs(st.T.T @ st.T - np.eye(n))) <= 1e-12
        At = st.T.T @ s.A @ st.T
        Bt = st.T.T @ s.B
        scale = 1e-10 * (1 + np.linalg.norm(s.A, "fro") + np.linalg.norm(s.B, "fro"))
        if n_u:
            assert np.max(np.abs(At[n_c:, :n_c])) <= scale
            assert np.max(np.abs(Bt[n_c:, :])) <= scale
        np.testing.assert_allclose(At[:n_c, :n_c], st.A_c)
        np.testing.assert_allclose(Bt[:n_c, :], st.B_c)
        # the reachable pair really is reachable
        assert rank(krylov(st.A_c, st.B_c)) == n_c


def test_staircase_n_c_equals_krylov_rank():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        A = stable_matrix(rng, n)
        B = rng.standard_normal((n, m))
        s = SystemQuadruple(A=A, B=B, C=np.ones((1, n)), D=np.zeros((1, m)))
        assert staircase(s).n_c == rank(krylov(A, B))


def test_staircase_idempotent_dimension():
    rng = np.random.default_rng(8)
    s = staircase_embedded(rng, 2, 2, rotate=True)
    st = staircase(s)
    transformed = SystemQuadruple(
        A=st.T.T @ s.A @ st.T, B=st.T.T @ s.B, C=s.C @ st.T, D=s.D
    )
    st2 = staircase(transformed)
    assert st2.n_c == st.n_c
    # the transformed system is already staircase, so T should be identity
    np.testing.assert_allclose(st2.T, np.eye(s.n))


def test_zero_row_indices():
    assert zero_row_indices(np.array([[0.5, 0.0], [0.0, 0.0]])) == [2]
    assert zero_row_indices(np.eye(2)) == []
    assert zero_row_indices(np.zeros((2, 2))) == [1, 2]
    assert zero_row_indices(np.zeros((0, 0))) == []


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-20])
def test_zero_row_indices_is_relative(scale):
    # golden's A_u; an absolute threshold calls its first row zero at 1e-12
    assert zero_row_indices(scale * np.array([[0.5, 0.0], [0.0, 0.0]])) == [2]
    assert zero_row_indices(scale * np.array([[1.0, 0.0], [0.0, 1e-13]])) == [2]


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-13, 2.0**-600, 2.0**600])
def test_staircase_identity_test_is_relative(scale):
    # Rotated input must not keep T = I because A and B are small: with an
    # absolute threshold the unreachable block of T'AT is 0.53 max|A| at 1e-13.
    # The rows' largest entries decide, with no square that could under- or
    # overflow at the ends of float64 range.
    s = staircase_embedded(np.random.default_rng(6), 3, 2, rotate=True)
    small = SystemQuadruple(A=scale * s.A, B=scale * s.B, C=s.C, D=s.D)
    st = staircase(small)
    assert st.n_c == 3
    assert not np.array_equal(st.T, np.eye(small.n))
    At = st.T.T @ small.A @ st.T
    assert np.max(np.abs(At[3:, :3])) <= 1e-10 * np.max(np.abs(small.A))
    # input already in staircase form keeps its coordinates at any scale
    plain = staircase_embedded(np.random.default_rng(6), 3, 2)
    st = staircase(SystemQuadruple(A=scale * plain.A, B=scale * plain.B, C=plain.C, D=plain.D))
    assert np.array_equal(st.T, np.eye(plain.n))


def test_random_orthogonal_is_orthogonal():
    rng = np.random.default_rng(9)
    Q = random_orthogonal(rng, 5)
    np.testing.assert_allclose(Q.T @ Q, np.eye(5), atol=1e-12)


# (n_c, n_u, m): generic, m > n, nothing reachable, fully reachable
STAIRCASE_SHAPES = [
    (3, 2, 2), (4, 3, 1), (2, 1, 5), (1, 2, 4), (0, 4, 2), (0, 2, 3), (5, 0, 2), (3, 0, 6),
]


@pytest.mark.parametrize("n_c, n_u, m", STAIRCASE_SHAPES)
def test_staircase_rank_and_orthogonal_basis_on_rotated_input(n_c, n_u, m):
    rng = np.random.default_rng(100 + 10 * n_c + n_u + 100 * m)
    for _ in range(5):
        s = staircase_embedded(rng, n_c, n_u, m=m, rotate=True)
        st = staircase(s)
        assert st.n_c == rank(krylov(s.A, s.B)) == n_c
        assert np.max(np.abs(st.T.T @ st.T - np.eye(s.n))) <= 1e-12


@pytest.mark.parametrize("n_c, n_u, m", STAIRCASE_SHAPES)
def test_staircase_keeps_unrotated_input_exactly(n_c, n_u, m):
    rng = np.random.default_rng(200 + 10 * n_c + n_u + 100 * m)
    s = staircase_embedded(rng, n_c, n_u, m=m)
    st = staircase(s)
    assert st.n_c == n_c
    assert np.array_equal(st.T, np.eye(s.n))
    blocks = [
        (st.A_c, s.A[:n_c, :n_c]),
        (st.A_cu, s.A[:n_c, n_c:]),
        (st.A_u, s.A[n_c:, n_c:]),
        (st.B_c, s.B[:n_c]),
        (st.C_c, s.C[:, :n_c]),
        (st.C_u, s.C[:, n_c:]),
    ]
    for block, expected in blocks:
        assert block.shape == expected.shape
        assert np.array_equal(block, expected)


def test_staircase_cutoff_is_taken_at_the_krylov_shape():
    # sigma_2 / sigma_1 = 8 eps lies between the cutoff of the 2 x 2 factor
    # (2 eps) and that of the 2 x 20 Krylov matrix (20 eps)
    B = np.zeros((2, 10))
    B[0, 0], B[1, 1] = 1.0, 8 * EPS
    s = SystemQuadruple(A=np.zeros((2, 2)), B=B, C=np.ones((1, 2)), D=np.zeros((1, 10)))
    assert staircase(s).n_c == rank(krylov(s.A, s.B)) == 1


@pytest.mark.parametrize("n_c, n_u, m", [(6, 14, 2), (10, 30, 3)])
@pytest.mark.parametrize("a_c_radius", [0.0, 0.02], ids=["A_c=0", "A_c-radius-0.02"])
def test_staircase_counts_no_rounding_error_as_reachable(n_c, n_u, m, a_c_radius):
    # A B = 0 exactly, or the reachable part decays faster than the
    # unreachable one (radius 0.6): the rounding errors of A^k B grow against
    # the blocks, and with each block scaled to unit size they read n_c =
    # 18 to 40. Kept at their relative sizes, they stay under the cutoff.
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = staircase_embedded(rng, n_c, n_u, m=m, rotate=True, a_c_radius=a_c_radius)
        assert staircase(s).n_c == (m if a_c_radius == 0.0 else n_c)


def test_staircase_keeps_the_relative_sizes_of_growing_blocks():
    # A^k B grows by 2^20 a step, past 2^1000 by k = 50. The blocks formed so
    # far are scaled down with the one that passes 2^400, so n_c is the rank
    # of the Krylov matrix of the plant with B x 2^-600, which stays in range.
    rng = np.random.default_rng(8)
    n, m = 60, 2
    A = 2.0**20 * random_orthogonal(rng, n)
    B = rng.standard_normal((n, m))
    s = SystemQuadruple(A=A, B=B, C=np.ones((1, n)), D=np.zeros((1, m)))
    assert staircase(s).n_c == rank(krylov(A, 2.0**-600 * B))


@pytest.mark.parametrize("b_scale", [2.0**600, 2.0**-1000], ids=["B*2^600", "B*2^-1000"])
def test_staircase_ignores_power_of_two_scaling_of_b(b_scale):
    # B is brought to unit size by a power of two, so scaling it by one
    # changes no bit of n_c or T, even where its squares would leave float64
    # range unscaled.
    s = staircase_embedded(np.random.default_rng(6), 3, 2, rotate=True)
    st = staircase(s)
    scaled = staircase(SystemQuadruple(A=s.A, B=b_scale * s.B, C=s.C, D=s.D))
    assert scaled.n_c == st.n_c == 3
    assert np.array_equal(scaled.T, st.T)


@pytest.mark.parametrize("a_scale", [2.0**600, 2.0**-600], ids=["A*2^600", "A*2^-600"])
def test_staircase_reads_an_a_out_of_float64_range(a_scale):
    # An A whose Frobenius norm lies outside 2^+-400 is brought to unit size
    # first; unscaled, its products over- or underflow.
    s = staircase_embedded(np.random.default_rng(6), 3, 2, rotate=True)
    assert staircase(SystemQuadruple(A=a_scale * s.A, B=s.B, C=s.C, D=s.D)).n_c == 3


def test_staircase_peak_memory():
    # The Krylov blocks are folded, whole, into a buffer of n + m ceil(n/m)
    # rows (202 x n here) as they are formed: the buffer and np.linalg.qr's
    # copy of it, 5.23 n x n matrices. Holding the n x 3n Krylov matrix and
    # the QR's copy of it read 7.98.
    n = 100
    sys = random_stabilizable(np.random.default_rng(61), n, 3, 3)
    staircase(sys)
    peak = traced_peak(lambda: staircase(sys))
    assert peak < 5.3 * n * n * 8, peak / (n * n * 8)
