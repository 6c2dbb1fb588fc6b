"""Correctness checks the benchmark applies to every operation.

The checks use only numpy and SciPy, never hamlq, so they are independent
of the code under test. Each returns the list of failed checks as short
``"name: detail"`` strings; an empty list means the output is correct.

``attribute`` maps a failed operation to one of the defects known at the
commit that introduced the benchmark. A failure that matches none of them
is ``"unexplained"`` and makes the run incorrect.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

RICCATI_TOL = 1e-9  # relative Riccati equation and gain residual
SCIPY_TOL = 1e-8  # relative distance to SciPy's stabilizing solution
TRAJ_TOL = 1e-8  # relative residual of each trajectory relation

KNOWN_DEFECTS = {
    "krylov-staircase": "n_c under-reported: rank of the ill-conditioned Krylov matrix",
    "dare-bootstrap": "NotStabilizable on a stabilizable system that SciPy's DARE solves",
    "boundary-solve": "boundary system solved by lstsq with its default rank cutoff: "
    "BoundaryInconsistent on a feasible problem, or the end condition missed",
}


def _rel(residual, *terms) -> float:
    """Largest residual entry relative to one plus the largest term entry."""
    scale = max((float(np.max(np.abs(t))) for t in terms if np.size(t)), default=0.0)
    return float(np.max(np.abs(residual))) / (1.0 + scale) if np.size(residual) else 0.0


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dare_reference(sysq):
    """SciPy's stabilizing DARE solution ``P``, or ``None`` where SciPy fails."""
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    try:
        return scipy.linalg.solve_discrete_are(A, B, C.T @ C, D.T @ D, s=C.T @ D)
    except (np.linalg.LinAlgError, ValueError):
        return None


def optimal_gain(sysq, P) -> np.ndarray:
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    return -np.linalg.solve(D.T @ D + B.T @ P @ B, B.T @ P @ A + D.T @ C)


def stabilizes(sysq, P) -> bool:
    """Whether ``P`` exists and its optimal gain gives a stable closed loop."""
    return P is not None and spectral_radius(sysq.A + sysq.B @ optimal_gain(sysq, P)) < 1.0


def riccati_failures(sysq, P, K, P_ref) -> list[str]:
    """Riccati residual, gain consistency, closed-loop stability, SciPy agreement."""
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    out = []
    L = B.T @ P @ A + D.T @ C
    gain_term = L.T @ np.linalg.solve(D.T @ D + B.T @ P @ B, L)
    r = _rel(A.T @ P @ A + C.T @ C - gain_term - P, A.T @ P @ A, C.T @ C, gain_term, P)
    if not r <= RICCATI_TOL:
        out.append(f"dare_residual: {r:.2e}")
    r = _rel(K - optimal_gain(sysq, P), K)
    if not r <= RICCATI_TOL:
        out.append(f"gain: {r:.2e}")
    rho = spectral_radius(A + B @ K)
    if not rho < 1.0:
        out.append(f"spectral_radius: {rho:.6f}")
    if P_ref is not None:
        r = _rel(P - P_ref, P_ref)
        if not r <= SCIPY_TOL:
            out.append(f"scipy_dare: {r:.2e}")
    return out


def analysis_failures(sysq, expect, P, K, n_c, zero_rows, rank_v2, rank_vbar2, P_ref) -> list[str]:
    """Riccati checks plus the reported structure against the construction."""
    out = riccati_failures(sysq, P, K, P_ref)
    if n_c != expect.n_c:
        out.append(f"n_c: {n_c} != {expect.n_c}")
    if expect.zero_rows is not None and tuple(zero_rows) != expect.zero_rows:
        out.append(f"zero_rows_Au: {list(zero_rows)} != {list(expect.zero_rows)}")
    if rank_vbar2 != sysq.n:
        out.append(f"rank_vbar2: {rank_vbar2} != {sysq.n}")
    if expect.rank_drop is not None and rank_v2 != sysq.n - expect.rank_drop:
        out.append(f"rank_v2: {rank_v2} != {sysq.n - expect.rank_drop}")
    return out


def trajectory_failures(sysq, x0, xf, x, p, u, J) -> list[str]:
    """First-order optimality of one finite-horizon solution.

    Dynamics, costate recursion, stationarity and the boundary conditions
    (``x_0 = x0`` and ``p_kf = 0`` or ``x_kf = xf``) are sufficient for
    optimality because the problem is a convex quadratic program. ``J`` must
    equal the cost recomputed from ``x`` and ``u``.
    """
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    k_f = u.shape[0]
    if x.shape != (k_f + 1, sysq.n) or p.shape != x.shape or u.shape != (k_f, sysq.m):
        return [f"shape: x {x.shape}, p {p.shape}, u {u.shape}"]
    xs, xn, pn = x[:-1], x[1:], p[1:]
    CC, CD, DD = C.T @ C, C.T @ D, D.T @ D
    rels = {
        "dynamics": _rel(xn - xs @ A.T - u @ B.T, xn, xs @ A.T, u @ B.T),
        "costate": _rel(p[:-1] - xs @ CC - pn @ A - u @ CD.T, p[:-1], xs @ CC, pn @ A, u @ CD.T),
        "stationarity": _rel(xs @ CD + pn @ B + u @ DD, xs @ CD, pn @ B, u @ DD),
        "boundary_x0": _rel(x[0] - x0, x[0], x0),
        "boundary_end": _rel(p[-1], p) if xf is None else _rel(x[-1] - xf, x[-1], xf),
    }
    y = xs @ C.T + u @ D.T
    cost = float(np.sum(y * y))
    rels["cost"] = abs(J - cost) / (1.0 + abs(cost))
    return [f"{name}: {r:.2e}" for name, r in rels.items() if not r <= TRAJ_TOL]


def attribute(exc_name, failures, expect=None, n_c=None, stabilizable=False) -> str:
    """Name the known defect a failed operation shows, or ``"unexplained"``.

    Every trajectory problem in the benchmark is feasible by construction,
    so a ``BoundaryInconsistent`` is a defect of the boundary solve, and so
    is a missed boundary condition: ``x_0`` and the end condition are the
    boundary system's two block rows. Where the boundary solve misses, its
    parameters are huge and the other relations can lose accuracy with it.
    """
    if exc_name == "NotStabilizable" and stabilizable:
        return "dare-bootstrap"
    if exc_name == "BoundaryInconsistent" or any(f.startswith(("boundary_x0:", "boundary_end:")) for f in failures):
        return "boundary-solve"
    if (
        exc_name is None
        and failures
        and all(f.startswith(("n_c:", "zero_rows_Au:")) for f in failures)
        and n_c is not None
        and n_c < expect.n_c
    ):
        return "krylov-staircase"
    return "unexplained"
