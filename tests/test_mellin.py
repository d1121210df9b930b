import subprocess
import sys

import pytest

from l2tor.mellin import (EULER_GAMMA, dsmall_constant, literal_candidate,
                          power_constant_oracle, reciprocal_candidate,
                          resolve_dsmall_constant)


def test_oracle_values_match_series_derivation():
    # 1/Gamma(s) = s + gamma s^2 + ..., so the product with 1/(s-a) has
    # derivative -1/a at zero
    for gap in (1, 2, 3, 4, 5):
        a = gap / 2.0
        assert power_constant_oracle(a) == pytest.approx(-1.0 / a, abs=1e-12)


def test_candidates_coincide_only_at_gap_two():
    for gap in (1, 2, 3, 4):
        lit = literal_candidate(0, gap)
        rec = reciprocal_candidate(0, gap)
        if gap == 2:
            assert lit == rec == -1.0
        else:
            assert lit != rec


def test_resolution_selects_reciprocal_uniquely():
    res = resolve_dsmall_constant()
    assert res.selected == "reciprocal"
    assert res.max_selected_residual < 1e-10
    # the rejected candidate's residual is macroscopic away from gap 2
    for row in res.rows:
        if row["power_gap"] != 2:
            assert row["literal_residual"] > 0.1


def test_euler_gamma_validated_by_gamma_derivative():
    res = resolve_dsmall_constant()
    assert res.euler_gamma_residual < 1e-12


def test_dsmall_constant_dispatch():
    assert dsmall_constant(3, 3) == pytest.approx(EULER_GAMMA)
    assert dsmall_constant(1, 3) == pytest.approx(-1.0)       # gap 2
    assert dsmall_constant(0, 3) == pytest.approx(-2.0 / 3.0) # gap 3
    assert dsmall_constant(2, 3) == pytest.approx(-2.0)       # gap 1
    with pytest.raises(ValueError):
        dsmall_constant(4, 3)


def test_oracle_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        power_constant_oracle(0.0)


def test_dsmall_constant_matches_oracle():
    for gap in range(1, 7):
        assert dsmall_constant(0, gap) == pytest.approx(
            power_constant_oracle(gap / 2), abs=1e-12)


def test_import_does_not_load_mpmath(src_env):
    # mpmath serves only the oracle self-test, which imports it on demand
    subprocess.run([sys.executable, "-c",
                    "import sys, l2tor; assert 'mpmath' not in sys.modules"],
                   env=src_env, check=True)
