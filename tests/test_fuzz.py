"""Seeded fuzz of the public surface: every call returns or raises a typed error.

Each draw is a small plant (n <= 6, m, p <= 3) whose matrices are standard
normal, then, each on its own, scaled by 10^U(-300, 300) with probability
0.15, zeroed with 0.1, rounded with 0.05 or scaled by 10^U(-20, 20) with
0.05. On half the draws ``A`` is rescaled to a spectral radius in 0.1-1.5.
Every draw runs ``analyze``; one that returns also runs both residual
checks and free- and fixed-end trajectory solves at k_f = 1, 5 and 40.
Warnings are errors, so a leaked numpy warning fails the draw as an
untyped error would.
"""

import numpy as np
import pytest

from hamlq.errors import HamlqError
from hamlq.hamsubspace import analyze, residuals_v1, residuals_v2
from hamlq.lqtraj import TrajectoryProblem, solve_nonrecursive
from hamlq.reachdecomp import SystemQuadruple

DRAWS = 1000
HORIZONS = (1, 5, 40)


def fuzz_matrix(rng, shape):
    M = rng.standard_normal(shape)
    u = rng.uniform()
    if u < 0.15:
        M *= 10.0 ** rng.uniform(-300, 300)
    elif u < 0.25:
        M[:] = 0.0
    elif u < 0.30:
        M = np.round(M)
    elif u < 0.35:
        M *= 10.0 ** rng.uniform(-20, 20)
    return M


def fuzz_plant(rng):
    n, m, p = (int(k) for k in rng.integers(1, (7, 4, 4)))
    A = fuzz_matrix(rng, (n, n))
    if rng.uniform() < 0.5:
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        scale = rng.uniform(0.1, 1.5) / rho if rho else 0.0
        # a radius far below an entry's size would rescale A out of float64 range
        if scale and float(np.abs(A).max()) * scale < 1e300:
            A = A * scale
    B, C, D = fuzz_matrix(rng, (n, m)), fuzz_matrix(rng, (p, n)), fuzz_matrix(rng, (p, m))
    return SystemQuadruple(A=A, B=B, C=C, D=D)


def run_draw(rng, sysq):
    """The failed calls of one draw as ``(name, what)``: an untyped exception
    (a warning raised as an error among them) or a trajectory with a
    non-finite entry. A typed error ends no more than its own call."""
    failed = []

    def call(name, fn, *args):
        try:
            out = fn(*args)
        except HamlqError:
            return None
        except Exception as exc:  # untyped
            failed.append((name, repr(exc)))
            return None
        return out

    bundle = call("analyze", analyze, sysq)
    if bundle is None:
        return failed
    call("residuals_v1", residuals_v1, sysq, bundle.riccati, bundle.gramian)
    call("residuals_v2", residuals_v2, sysq, bundle.riccati, bundle.gramian)
    for k_f in HORIZONS:
        for xf in (None, rng.standard_normal(sysq.n)):
            prob = TrajectoryProblem(sys=sysq, x0=rng.standard_normal(sysq.n), k_f=k_f, xf=xf)
            name = f"solve_nonrecursive(k_f={k_f}, {'free' if xf is None else 'fixed'} end)"
            traj = call(name, solve_nonrecursive, prob, bundle.riccati, bundle.gramian)
            if traj is not None and not all(np.isfinite(v).all() for v in (traj.x, traj.p, traj.u)):
                failed.append((name, "a non-finite trajectory"))
    return failed


@pytest.mark.filterwarnings("error")
def test_every_fuzzed_call_returns_or_raises_a_typed_error():
    rng = np.random.default_rng(5)
    failures = []
    for draw in range(DRAWS):
        sysq = fuzz_plant(rng)
        failures += [(draw, sysq.A.shape[0], name, what) for name, what in run_draw(rng, sysq)]
    assert not failures, failures[:5]
