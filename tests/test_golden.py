import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import CHECKERS, count_calls
from hamlq import hamsubspace
from hamlq.golden import (
    ANGLE_TOL,
    ENTRYWISE_TOL,
    REFERENCE_V2,
    REFERENCE_VBAR2,
    _largest_angle,
    golden_check,
    golden_system,
)
from hamlq.hamsubspace import assemble_v2
from hamlq.matcore import DEFAULT_TOL, rank
from hamlq.reachdecomp import SystemQuadruple


def bumped_golden():
    base = golden_system()
    A = base.A.copy()
    A[0, 0] += 1e-3
    return SystemQuadruple(A=A, B=base.B, C=base.C, D=base.D)


def test_golden_system_shape():
    sys = golden_system()
    assert sys.n == 4
    assert sys.m == 2
    assert sys.p == 2
    assert sys.A[3, 3] == 0.0
    assert np.all(sys.B[2:] == 0.0)


def test_reference_matrices():
    assert REFERENCE_V2.shape == (10, 4)
    assert REFERENCE_VBAR2.shape == (8, 4)
    assert rank(REFERENCE_V2) == 3
    assert rank(REFERENCE_VBAR2) == 4


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 2)])
def test_golden_check_rejects_another_shape_before_analysis(n, m, monkeypatch):
    def no_analysis(*args):
        raise AssertionError("analyze ran")

    monkeypatch.setattr("hamlq.golden.analyze", no_analysis)
    rng = np.random.default_rng(67)
    sys = SystemQuadruple(*(rng.standard_normal(shape) for shape in ((n, n), (n, m), (2, n), (2, m))))
    with pytest.raises(ValueError, match="4 states and 2 inputs"):
        golden_check(sys)


def test_golden_check_passes():
    res = golden_check()
    assert res.passed
    assert res.entrywise_pass
    assert res.max_dev_v2 <= ENTRYWISE_TOL
    assert res.max_dev_vbar2 <= ENTRYWISE_TOL
    assert len(res.loc_v2) == 2
    assert len(res.loc_vbar2) == 2
    # fallback is not consulted when the entrywise gate already passed
    assert res.fallback_pass is None
    assert res.bundle.report.rank_v2 == 3
    assert res.bundle.report.rank_vbar2 == 4


def test_golden_check_forms_each_check_once_and_no_v1(monkeypatch):
    # Through the hamsubspace module's own names, so a tracer that wraps
    # them sees every call. V1 is never compared: its one assembly is the
    # one residuals_v1 makes to form V1[:2n] A_K.
    calls = count_calls(monkeypatch, hamsubspace, CHECKERS)
    assert golden_check().passed
    assert calls == dict(dict.fromkeys(CHECKERS, 1), _relation_residuals=2)


def test_golden_check_reports_deviation_location():
    res = golden_check(bumped_golden())
    assert not res.entrywise_pass
    assert res.max_dev_v2 > ENTRYWISE_TOL or res.max_dev_vbar2 > ENTRYWISE_TOL
    # on entrywise failure the subspace fallback is evaluated and reported
    assert res.fallback_pass is not None
    assert res.max_angle_v2 is not None
    assert res.max_angle_vbar2 is not None
    # a 1e-3 bump moves the subspaces too, so the overall verdict is a fail
    assert not res.passed or res.fallback_pass
    loc = res.loc_v2
    assert 1 <= loc[0] <= 10 and 1 <= loc[1] <= 4


def test_fallback_rank_cutoff_follows_cfg():
    # V2 is 10 x 4 with singular values 2.6, 0.46, 0.066, 0: the default
    # factor keeps three of them, and a factor of 0.01 cuts at 0.1 sigma_max,
    # so the fallback then compares the leading planes. Both match SciPy.
    sys = bumped_golden()

    def span(M, r):
        return np.linalg.svd(M)[0][:, :r]

    angles = []
    for factor, r in ((DEFAULT_TOL.rank_tol_factor, 3), (0.01, 2)):
        res = golden_check(sys, dataclasses.replace(DEFAULT_TOL, rank_tol_factor=factor))
        assert res.fallback_pass is not None
        V2 = assemble_v2(res.bundle.riccati, res.bundle.gramian)
        want = np.max(scipy.linalg.subspace_angles(span(V2, r), span(REFERENCE_V2, r)))
        assert res.max_angle_v2 == pytest.approx(want, rel=1e-9)
        angles.append(res.max_angle_v2)
    assert angles[0] != angles[1]


@pytest.mark.parametrize("reference", [REFERENCE_V2, REFERENCE_VBAR2], ids=["V2", "Vbar2"])
def test_largest_angle_of_a_column_mixed_copy_is_rounding(reference):
    # The sine form resolves angles down to rounding; a cosine form bottoms
    # out near sqrt(EPS), about 1e-8 here.
    rng = np.random.default_rng(9)
    mixed = reference @ (rng.standard_normal((4, 4)) + 4.0 * np.eye(4))
    assert _largest_angle(mixed, reference, DEFAULT_TOL) <= 1e-12


def test_fallback_tolerances_are_pinned():
    assert ENTRYWISE_TOL == 5e-5
    assert ANGLE_TOL == 1e-6
