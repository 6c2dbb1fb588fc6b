import time

import numpy as np
import pytest

from hamlq import SystemQuadruple, closed_loop_gramian, golden_system, solve_dare


def pytest_configure(config):
    config._suite_start = time.perf_counter()


def pytest_collection_modifyitems(config, items):
    # acceptance tests run last so the suite-runtime criterion can measure
    # everything that came before it
    items.sort(key=lambda item: item.fspath.basename == "test_acceptance.py")


@pytest.fixture(scope="session")
def golden_sys():
    return golden_system()


def stable_matrix(rng, k, radius=0.8):
    """Random k x k matrix scaled to the requested spectral radius."""
    if k == 0:
        return np.zeros((0, 0))
    M = rng.standard_normal((k, k))
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    if rho == 0.0:
        return M
    return M * (radius / rho)


def krylov(A, B):
    """Krylov block matrix ``[B, AB, ..., A^(n-1) B]``, by the plain recurrence.

    Each block is ``A @`` the one before, unscaled; the staircase forms the
    same products, rescaled by powers of two only to stay in float64 range.
    """
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def krylov_overflow_plant():
    """n = 30 plant with ``A`` = 1e12 x standard normal draws, ``m = p = 2``:
    finite data whose Krylov blocks ``A^k B`` leave float64 range by k = 26
    unless they are scaled down as they grow."""
    rng = np.random.default_rng(0)
    A = 1e12 * rng.standard_normal((30, 30))
    return SystemQuadruple(A=A, B=rng.standard_normal((30, 2)),
                           C=rng.standard_normal((2, 30)), D=rng.standard_normal((2, 2)))


def same_bits(a, b):
    """Equal shape and identical float64 bit patterns, signs of zero included."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# The public bases and checks, and the staircase, in the hamsubspace
# namespace; a caller reaches them as attributes of that module, so wrapping
# one there (as the benchmark's tracer does) sees every call
CHECKERS = (
    "assemble_v1", "assemble_v2", "assemble_vbar2", "residuals_v1", "residuals_v2", "_relation_residuals",
    "staircase",
)


def count_calls(monkeypatch, module, names):
    """Wrap each function ``names`` lists in ``module`` to count its calls;
    returns the counts by name."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def is_psd(M, tol=1e-12):
    """Whether ``M`` is symmetric positive semidefinite up to ``tol * max|M|``.

    Semidefiniteness is probed by a Cholesky factorization of the symmetrized
    matrix shifted by ``tol * (1 + max|M|)``, so the zero matrix passes.
    """
    M = np.asarray(M, dtype=float)
    scale = float(np.max(np.abs(M), initial=0.0))
    if np.max(np.abs(M - M.T), initial=0.0) > tol * scale:
        return False
    try:
        np.linalg.cholesky(0.5 * (M + M.T) + tol * (1.0 + scale) * np.eye(M.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def full_column_rank_D(rng, p, m, floor=0.5):
    """p x m matrix with all singular values at least ``floor`` (needs p >= m)."""
    M = rng.standard_normal((p, m))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U @ np.diag(np.maximum(s, floor)) @ Vt


def random_stabilizable(rng, n=None, m=None, p=None, singular_D=False):
    """Random system with stable A, so any (A, B) is stabilizable."""
    n = n if n is not None else int(rng.integers(1, 7))
    m = m if m is not None else int(rng.integers(1, 4))
    p = p if p is not None else int(rng.integers(1, 4))
    A = stable_matrix(rng, n, radius=float(rng.uniform(0.3, 0.9)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    if singular_D:
        D = rng.standard_normal((p, m))
        D[:, -1] = 0.0
    else:
        D = rng.standard_normal((p, m))
    return SystemQuadruple(A=A, B=B, C=C, D=D)


def unstable_modes(rng, n, k=None, m=3):
    """Generic system whose A has ``k`` real modes with |lambda| in 1.05..1.5.

    ``k`` defaults to a draw from 1..3. B is generic, so every mode is
    reachable and (A, B) is stabilizable; D is square and generic, so D'D is
    invertible and ``C'(I - D (D'D)^{-1} D')C = 0``: P = 0 solves the DARE
    without stabilizing it.
    """
    k = k if k is not None else int(rng.integers(1, 4))
    lam = rng.uniform(1.05, 1.5, k) * rng.choice([-1.0, 1.0], k)
    A0 = np.zeros((n, n))
    A0[: n - k, : n - k] = stable_matrix(rng, n - k, radius=0.8)
    A0[n - k :, n - k :] = np.diag(lam)
    T = random_orthogonal(rng, n)
    return SystemQuadruple(
        A=T @ A0 @ T.T,
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((m, n)),
        D=rng.standard_normal((m, m)),
    )


def hidden_left_null_space(rng, n, d, singular_D, cost_scale):
    """Rotated staircase system whose ``[A B]`` has a d-dimensional left null space.

    The first d rows of the stable unreachable block ``A_u`` are zero and the
    rest of ``[A B]`` has full row rank. ``D'D`` is singular on request, and
    ``(C, D)`` is multiplied by ``cost_scale``.
    """
    m = int(rng.integers(1, 4))
    p = int(rng.integers(m, 5))
    n_u = int(rng.integers(d, n))
    n_c = n - n_u
    A_u = np.zeros((n_u, n_u))
    A_u[d:, :d] = rng.standard_normal((n_u - d, d))
    A_u[d:, d:] = stable_matrix(rng, n_u - d, radius=0.6)
    A = np.block([
        [stable_matrix(rng, n_c, radius=0.8), rng.standard_normal((n_c, n_u))],
        [np.zeros((n_u, n_c)), A_u],
    ])
    B = np.vstack([rng.standard_normal((n_c, m)), np.zeros((n_u, m))])
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    if singular_D:
        D[:, -1] = 0.0
    T = random_orthogonal(rng, n)
    return SystemQuadruple(A=T @ A @ T.T, B=T @ B, C=cost_scale * C @ T.T, D=cost_scale * D)


def staircase_embedded(rng, n_c, n_u, m=2, p=2, rotate=False, zero_row=None, a_c_radius=0.7):
    """System built block upper triangular with a stable unreachable part.

    ``zero_row`` (1-based) forces that row of A_u to zero while keeping A_u
    stable, by building the complementary minor stable first. A_c has
    spectral radius ``a_c_radius``; at 0 it is the zero matrix, and only the
    ``m`` directions of B_c are reachable.
    """
    A_c = stable_matrix(rng, n_c, radius=a_c_radius)
    if zero_row is None:
        A_u = stable_matrix(rng, n_u, radius=0.6)
    else:
        i = zero_row - 1
        minor = stable_matrix(rng, n_u - 1, radius=0.6)
        A_u = np.zeros((n_u, n_u))
        keep = [j for j in range(n_u) if j != i]
        A_u[np.ix_(keep, keep)] = minor
        A_u[keep, i] = rng.standard_normal(n_u - 1)
    A_cu = rng.standard_normal((n_c, n_u))
    B_c = rng.standard_normal((n_c, m))
    A = np.block([[A_c, A_cu], [np.zeros((n_u, n_c)), A_u]])
    B = np.vstack([B_c, np.zeros((n_u, m))])
    C = rng.standard_normal((p, n_c + n_u))
    D = rng.standard_normal((p, m))
    if rotate:
        T = random_orthogonal(rng, n_c + n_u)
        A, B, C = T @ A @ T.T, T @ B, C @ T.T
    return SystemQuadruple(A=A, B=B, C=C, D=D)


@pytest.fixture(scope="session")
def random_suite():
    """Shared pool of solved random stabilizable systems for property tests.

    Draws with singular stage weights (D'D not invertible) can violate the
    strict innovation-weight assumption; those are skipped, everything else
    must solve.
    """
    from hamlq import HamlqError

    rng = np.random.default_rng(20240817)
    out = []
    attempts = 0
    while len(out) < 100:
        attempts += 1
        assert attempts < 1000, "random system generation kept failing"
        sysq = random_stabilizable(rng)
        try:
            ric = solve_dare(sysq)
            gram = closed_loop_gramian(sysq, ric)
        except HamlqError:
            continue
        out.append((sysq, ric, gram))
    return out
