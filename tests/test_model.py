import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bosewave.errors import DomainError
from bosewave.model import ModelConfig, reduced_params, validate


def test_theta_normalized_modulo_period():
    cfg = validate(ModelConfig(n=2, theta=math.pi / 2 + 0.1))
    assert cfg.theta == pytest.approx(0.1, abs=1e-15)


def test_theta_already_normal_unchanged():
    cfg = validate(ModelConfig(n=2, theta=0.3, gamma=1.0, N0=0.5, B=0.5))
    assert cfg.theta == 0.3
    assert cfg.B == 0.5


def test_theta_negative_wraps_into_interval():
    cfg = validate(ModelConfig(n=3, theta=-0.2))
    assert 0.0 <= cfg.theta < math.pi / 3
    assert cfg.theta == pytest.approx(math.pi / 3 - 0.2, abs=1e-15)


def test_b_at_minus_one_rejected():
    with pytest.raises(DomainError, match="B must exceed -1"):
        validate(ModelConfig(n=2, gamma=-1.0, N0=1.0, B=-1.0))


@pytest.mark.parametrize("field", ["c", "S", "N0", "omega"])
def test_nonpositive_physical_fields_rejected(field):
    with pytest.raises(DomainError, match=field):
        validate(ModelConfig(**{field: 0.0}))


@pytest.mark.parametrize("field, value, needle", [
    ("theta", math.nan, "theta must be finite"), ("theta", math.inf, "theta must be finite"),
    ("theta", -math.inf, "theta must be finite"), ("B", math.nan, "B must be finite"),
    ("B", math.inf, "B must be finite"), ("B", -math.inf, "B must be finite")])
def test_non_finite_theta_or_b_rejected(field, value, needle):
    with pytest.raises(DomainError, match=needle):
        validate(ModelConfig(**{field: value}))


def test_small_n_rejected():
    with pytest.raises(DomainError, match="n"):
        validate(ModelConfig(n=1))


def test_inconsistent_b_gamma_n0_rejected():
    with pytest.raises(DomainError, match="inconsistent"):
        validate(ModelConfig(gamma=1.0, N0=1.0, B=0.5))


def test_nan_gamma_rejected():
    with pytest.raises(DomainError, match="inconsistent"):
        validate(ModelConfig(n=2, theta=0.3, gamma=math.nan, B=0.0))


@pytest.mark.parametrize("c,S,N0,omega,B,h,h_b", [
    (1.0, 1.0, 1.0, 4.0, 0.0, 1.0, 1.0),
    (1.0, 1.0, 1.0, 4.0, 0.5, 1.0, 1.5),
    (2.0, 0.5, 3.0, 6.0, 1.0, 2.0, 4.0),
])
def test_reduced_params_direct_substitution(c, S, N0, omega, B, h, h_b):
    cfg = validate(ModelConfig(n=2, c=c, S=S, N0=N0, omega=omega,
                               gamma=B / N0, B=B))
    red = reduced_params(cfg)
    assert red.h == pytest.approx(h, rel=1e-15)
    assert red.h_b == pytest.approx(h_b, rel=1e-15)
    assert red.knudsen_proxy == pytest.approx(1.0 / h, rel=1e-15)


@given(s=st.floats(min_value=1e-6, max_value=1e6),
       S=st.floats(min_value=1e-3, max_value=1e3),
       N0=st.floats(min_value=1e-3, max_value=1e3))
def test_h_invariant_under_s_n0_exchange(s, S, N0):
    a = reduced_params(validate(ModelConfig(S=S, N0=N0)))
    b = reduced_params(validate(ModelConfig(S=S * s, N0=N0 / s)))
    assert b.h == pytest.approx(a.h, rel=1e-12)


@given(theta=st.floats(min_value=-50.0, max_value=50.0),
       n=st.integers(min_value=2, max_value=6))
def test_validate_is_idempotent_on_theta(theta, n):
    once = validate(ModelConfig(n=n, theta=theta))
    twice = validate(once)
    assert 0.0 <= once.theta < math.pi / n
    assert twice.theta == once.theta


def test_validate_returns_a_reduced_config_as_it_is():
    cfg = ModelConfig(n=3, theta=0.3)
    assert validate(cfg) is cfg


@pytest.mark.parametrize("field, value, canonical", [
    ("theta", 0, 0.0),
    ("theta", np.float32(0.3), float(np.float32(0.3))),
    ("theta", np.float64(0.3), 0.3),
    ("theta", -0.2, math.pi / 3 - 0.2),
    ("theta", math.pi / 3, 0.0),
    ("theta", 7.0, math.fmod(7.0, math.pi / 3)),
    ("c", 2, 2.0),
    ("S", np.float32(0.3), float(np.float32(0.3))),
    ("N0", np.float64(0.5), 0.5),
    ("n", np.int64(4), 4),
], ids=["int", "float32", "float64", "negative", "period", "above",
        "int-c", "float32-S", "float64-N0", "int64-n"])
def test_validate_copies_any_other_theta_as_a_reduced_float(field, value, canonical):
    """Any field not yet a plain Python scalar (n an int, the rest floats,
    theta in [0, pi/n)) is converted exactly in a copy."""
    cfg = replace(ModelConfig(n=3, theta=0.3), **{field: value})
    got = validate(cfg)
    assert got is not cfg
    assert got == replace(cfg, **{field: canonical})
    assert type(got.n) is int
    assert all(type(v) is float for k, v in vars(got).items() if k != "n")


def test_from_reduced_statistics_defaults():
    bose = ModelConfig.from_reduced(2, 0.1, h=1.0, B=0.5)
    assert bose.gamma == 1.0 and bose.N0 == 0.5
    fermi = ModelConfig.from_reduced(2, 0.1, h=1.0, B=-0.5)
    assert fermi.gamma == -1.0 and fermi.N0 == 0.5
    classical = ModelConfig.from_reduced(2, 0.1, h=1.0, B=0.0)
    assert classical.gamma == 0.0 and classical.N0 == 1.0
    for cfg in (bose, fermi, classical):
        assert reduced_params(cfg).h == pytest.approx(1.0, rel=1e-15)


def test_from_reduced_rejects_nonpositive_h():
    # a NaN or infinite h or B is named, not reported through the S it makes
    for h, B, field in [(-1.0, 0.0, "h"), (math.nan, 0.0, "h"), (math.inf, 0.0, "h"),
                        (1.0, math.inf, "B"), (1.0, -math.inf, "B"),
                        (1.0, math.nan, "B"), (1.0, -1.0, "B")]:
        with pytest.raises(DomainError, match=f"^{field} must satisfy"):
            ModelConfig.from_reduced(2, 0.3, h=h, B=B)
