"""Seeded fuzz of the public surface: every call returns or raises a typed error.

Each draw is a small plant (n <= 6, m, p <= 3) whose matrices are standard
normal, then, each on its own, scaled by 10^U(-300, 300) with probability
0.15, zeroed with 0.1, rounded with 0.05 or scaled by 10^U(-20, 20) with
0.05. On half the draws ``A`` is rescaled to a spectral radius in 0.1-1.5.
Every draw runs ``analyze``; one that returns has its Riccati solution and
Gramian checked finite, runs both residual checks, and runs free- and
fixed-end trajectory solves at k_f = 1, 5 and 40, each of which returns
finite sequences and a ``J`` within ``2 k_f p eps J`` of its stage-cost sum
or raises a typed error. Warnings are errors, so a leaked numpy warning
fails the draw as an untyped error would.

The draws of ``default_rng(11)`` that once raised an untyped error are
replayed from their rng states; ``tools/fuzz_sweep.py`` runs the seeded
sweep they came from.

A hypothesis property test draws the rng's seed, so its plants are drawn
the same way, and runs the same draw with ``cli.main`` added: ``analyze``
and ``trajectory`` on the plant written to a file, each exiting 0 with
nothing on stderr or with a code of ``_EXIT_CODES`` and one error line.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlq import cli
from hamlq.errors import HamlqError, SingularWeight
from hamlq.hamsubspace import analyze, residuals_v1, residuals_v2
from hamlq.lqtraj import TrajectoryProblem, solve_nonrecursive, stage_costs
from hamlq.matcore import EPS
from hamlq.reachdecomp import SystemQuadruple
from hamlq.riccati import solve_dare
from hamlq.stablyap import stability_certificate

DRAWS = 1000
HORIZONS = (1, 5, 40)
# The PCG64 state (state, has_uint32, uinteger) of default_rng(11) before
# each draw of `tools/fuzz_sweep.py 11 100000` that once raised numpy's
# LinAlgError from analyze: cost data near 1e-160, where a failed Cholesky
# factorization of a weight passed a zero tolerance that underflowed, or
# the bootstrap's regularized weight failed to factor (draw 49747).
UNTYPED_ONCE = {
    24682: (15785203412107625796344112751198234245, 0, 786857325),
    29567: (89900094255953662598056291805691928319, 1, 432540048),
    35930: (147861481615302133835221807617143872088, 0, 3429522704),
    36509: (67007105542888052712632462376206453901, 1, 2065156),
    36596: (46980968576135939365174139611027120099, 0, 3144454521),
    49747: (272030400654337765216101850790677267763, 1, 2757587042),
    54549: (254567448642818239660132931241157823127, 1, 3091877315),
    56309: (264989012062305916892089623943500276499, 1, 548962238),
    58416: (102505023167232430706836651679129801981, 0, 2125618503),
    66997: (47708705402472518835780786554410264191, 1, 5926632),
    68574: (119357332054353472971978346710927451830, 0, 2285554839),
    75657: (332568418970600133656200550265187788593, 1, 3438011666),
    88377: (147875779805264992083448304844642288024, 1, 2275720499),
}


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


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def with_radius(A, rho, radius):
    """``A``, of spectral radius ``rho > 0``, rescaled to ``radius``, or ``A``
    itself where the rescale would leave float64 range: a radius far below
    an entry's size."""
    scale = radius / rho
    return A * scale if float(np.abs(A).max()) * scale < 1e300 else A


def fuzz_plant(rng):
    n, m, p = (int(k) for k in rng.integers(1, (7, 4, 4)))
    A = fuzz_matrix(rng, (n, n))
    if rng.uniform() < 0.5 and (rho := spectral_radius(A)):
        A = with_radius(A, rho, rng.uniform(0.1, 1.5))
    B, C, D = fuzz_matrix(rng, (n, m)), fuzz_matrix(rng, (p, n)), fuzz_matrix(rng, (p, m))
    return SystemQuadruple(A=A, B=B, C=C, D=D)


def rng_at(draw):
    """``default_rng(11)`` as it stands before ``draw`` of ``UNTYPED_ONCE``."""
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    state["state"]["state"], state["has_uint32"], state["uinteger"] = UNTYPED_ONCE[draw]
    rng.bit_generator.state = state
    return rng


def all_finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def run_cli(argv):
    """Exit code and stderr lines of in-process ``hamlq <argv>``."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def run_draw(rng, sysq, workdir=None):
    """The failed calls of one draw as ``(name, what)``: an untyped exception
    (a warning raised as an error among them), a non-finite result, a ``J``
    off its stage-cost sum, or, when ``workdir`` is given, a CLI run with an
    unknown exit code or other than one error line. A typed error ends no
    more than its own call."""
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
    if bundle is not None:
        ric, gram = bundle.riccati, bundle.gramian
        if not all_finite(ric.P, ric.K, ric.Rw):
            failed.append(("solve_dare", "a non-finite Riccati solution"))
        if not all_finite(gram.W, gram.A_K, gram.Vbar2, gram.u_gain, gram.norm_W, gram.norm_PW_I):
            failed.append(("closed_loop_gramian", "a non-finite Gramian record"))
        call("residuals_v1", residuals_v1, sysq, ric, gram)
        call("residuals_v2", residuals_v2, sysq, ric, gram)
        for k_f in HORIZONS:
            for xf in (None, rng.standard_normal(sysq.n)):
                prob = TrajectoryProblem(sys=sysq, x0=rng.standard_normal(sysq.n), k_f=k_f, xf=xf)
                name = f"solve_nonrecursive(k_f={k_f}, {'free' if xf is None else 'fixed'} end)"
                traj = call(name, solve_nonrecursive, prob, ric, gram)
                if traj is None:
                    continue
                if not all_finite(traj.x, traj.p, traj.u, traj.alpha, traj.beta, traj.J):
                    failed.append((name, "a non-finite trajectory"))
                    continue
                # J is one dot over the k_f p output entries; the stage sum
                # adds the same squares in another order
                stage_sum = float(stage_costs(traj, sysq).sum())
                if abs(traj.J - stage_sum) > 2 * k_f * sysq.p * EPS * traj.J:
                    failed.append((name, f"J {traj.J!r} against the stage sum {stage_sum!r}"))

    if workdir is not None:
        path = workdir / "plant.json"
        path.write_text(json.dumps({name: getattr(sysq, name).tolist() for name in "ABCD"}))
        x0 = ",".join(repr(float(v)) for v in rng.standard_normal(sysq.n))
        for argv in (["analyze", str(path)], ["trajectory", str(path), f"--x0={x0}", "--kf", "5"]):
            code, lines = run_cli(argv)
            if code == 0:
                ok = lines == []
            else:
                ok = code in cli._EXIT_CODES.values() and len(lines) == 1 and lines[0].startswith("error: ")
            if not ok:
                failed.append((f"cli {argv[0]}", f"exit {code} with stderr {lines!r}"))
    return failed


@pytest.mark.filterwarnings("error")
def test_every_fuzzed_call_returns_or_raises_a_typed_error():
    rng = np.random.default_rng(5)
    failures = []
    for draw in range(DRAWS):
        sysq = fuzz_plant(rng)
        failures += [(draw, sysq.A.shape[0], name, what) for name, what in run_draw(rng, sysq)]
    assert not failures, failures[:5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("draw", sorted(UNTYPED_ONCE))
def test_draws_that_raised_an_untyped_error_raise_only_typed_errors(draw):
    rng = rng_at(draw)
    assert not run_draw(rng, fuzz_plant(rng))


@pytest.mark.filterwarnings("error")
def test_bootstrap_weight_too_small_to_factor_raises_singular_weight():
    sysq = fuzz_plant(rng_at(49747))
    # B near 1e-19, C and D near 1e-161, and an unstable A: the bootstrap path
    assert np.abs(sysq.B).max() < 1e-18 and max(np.abs(sysq.C).max(), np.abs(sysq.D).max()) < 1e-160
    assert not stability_certificate(sysq.A)
    with pytest.raises(SingularWeight, match="too small to solve with"):
        solve_dare(sysq)


# On a failure, hypothesis's pytest plugin imports libcst, which warns on
# import; ignoring that one warning keeps the failure reported instead of
# aborting the session. Every other warning is an error (pyproject).
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_each_layer_returns_finite_results_or_raises_a_typed_error(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    sysq = fuzz_plant(rng)
    assert not run_draw(rng, sysq, tmp_path_factory.mktemp("plant"))
