import math
import typing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ftconsensus import (
    GridSpec,
    Linear,
    LogPower,
    PowerLinear,
    ProtocolBank,
    antiderivative,
    check_a1,
    check_a2,
    claim1_constants,
    claim2_constants,
    evaluate,
    format_protocol_spec,
    parse_protocol_spec,
)
from ftconsensus import config, protocols
from ftconsensus.errors import WrongProtocolKind

from conftest import random_claim1_bank

ALL_KINDS = [Linear(k=1.3), PowerLinear(a=1.0, b=1.0, c=0.75), LogPower(a=1.0, c=0.5)]


class TestParameterRanges:
    @pytest.mark.parametrize("bad", [
        lambda: Linear(k=0.0),
        lambda: Linear(k=-1.0),
        lambda: PowerLinear(a=0.0, b=1.0, c=0.5),
        lambda: PowerLinear(a=1.0, b=-0.1, c=0.5),
        lambda: PowerLinear(a=1.0, b=1.0, c=1.0),
        lambda: PowerLinear(a=1.0, b=1.0, c=0.0),
        lambda: LogPower(a=0.0, c=0.5),
        lambda: LogPower(a=1.0, c=2.0 / 3.0),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestEvaluate:
    def test_powerlinear_at_one(self):
        assert evaluate(PowerLinear(1.0, 1.0, 0.75), 1.0) == 2.0

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_zero_at_zero(self, f):
        assert evaluate(f, 0.0) == 0.0

    def test_logpower_breakpoint_continuity(self):
        f = LogPower(a=1.0, c=0.5)
        z = math.exp(-1.0)
        inner = -z**0.5 * math.log(z)
        outer = z**0.5
        assert inner == pytest.approx(outer, abs=1e-15)
        assert evaluate(f, z) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_powerlinear_negative_argument(self):
        f = PowerLinear(1.0, 1.0, 0.75)
        assert evaluate(f, -4.0) == pytest.approx(-(4.0**0.75 + 4.0), rel=1e-15)

    @pytest.mark.parametrize("f", ALL_KINDS)
    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_odd(self, f, z):
        assert evaluate(f, -z) == -evaluate(f, z)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_sign_preservation_on_grid(self, f):
        for z in np.geomspace(1e-10, 10.0, 200):
            assert z * evaluate(f, z) > 0
            assert -z * evaluate(f, -z) > 0

    def test_bank_vector_eval_matches_scalar(self):
        rng = np.random.default_rng(0)
        for bank in [ProtocolBank(ALL_KINDS),
                     ProtocolBank([PowerLinear(1.0, 0.5, 0.3), PowerLinear(2.0, 0.0, 0.8)]),
                     ProtocolBank([LogPower(1.0, 0.5), LogPower(0.7, 0.2)]),
                     ProtocolBank([Linear(1.0), Linear(2.0)])]:
            y = rng.uniform(-3, 3, len(bank))
            expected = [evaluate(f, z) for f, z in zip(bank, y)]
            assert np.allclose(bank.eval(y), expected, rtol=1e-15)
            assert np.array_equal(bank.eval(np.zeros(len(bank))), np.zeros(len(bank)))

    def test_bank_eval_any_leading_shape(self):
        # every bank applies f_i along the last axis; in the mixed bank each
        # kind has one agent, whose kernel call is the one evaluate makes
        rng = np.random.default_rng(1)
        for bank in [ProtocolBank(ALL_KINDS), ProtocolBank([LogPower(1.0, 0.5), LogPower(0.7, 0.2)])]:
            y = rng.uniform(-3, 3, (4, 5, len(bank)))
            y[0, 0, 1] = 0.0
            out = bank.eval(y)
            assert out.shape == y.shape
            for idx in np.ndindex(y.shape[:-1]):
                assert np.array_equal(out[idx], bank.eval(y[idx]))
            assert np.array_equal(bank.eval(y[:, :0]), np.empty((4, 0, len(bank))))
        mixed = ProtocolBank(ALL_KINDS)
        z = rng.uniform(-3, 3, len(mixed))
        assert mixed.eval(z).tolist() == [evaluate(f, zi) for f, zi in zip(mixed, z)]


FUNCTIONS = st.one_of(
    st.builds(Linear, k=st.floats(0.1, 5.0)),
    st.builds(PowerLinear, a=st.floats(0.1, 3.0), b=st.floats(0.0, 2.0), c=st.floats(0.05, 0.95)),
    st.builds(LogPower, a=st.floats(0.1, 3.0), c=st.floats(0.05, 0.65)),
)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestKernels:
    def test_one_kernel_pair_per_family(self):
        families = typing.get_args(config.ProtocolFunction)
        assert sorted(protocols._KERNELS, key=repr) == sorted(families, key=repr)
        for family, (f, F, names) in protocols._KERNELS.items():
            assert callable(f) and callable(F) and f is not F
            assert names == tuple(field.name for field in fields(family))

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(functions=st.lists(FUNCTIONS, min_size=1, max_size=6),
           lead=st.lists(st.integers(1, 4), max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_shape_invariance(self, functions, lead, seed):
        # a point's f and F do not depend on the shape it is evaluated in,
        # and a bank's single agent gives exactly the scalar evaluate
        bank = ProtocolBank(functions)
        rng = np.random.default_rng(seed)
        shape = (*lead, len(bank))
        y = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-9.0, 1.5, shape)
        y.flat[rng.integers(0, y.size, 2)] = [0.0, math.exp(-1.0)]
        fy, Fy = bank.eval(y), bank.antiderivatives(y)
        assert fy.shape == Fy.shape == shape
        for idx in np.ndindex(*lead):
            assert np.array_equal(_bits(fy[idx]), _bits(bank.eval(y[idx])))
            assert np.array_equal(_bits(Fy[idx]), _bits(bank.antiderivatives(y[idx])))
        for f, z in zip(bank, y.reshape(-1, len(bank))[0]):
            single = ProtocolBank([f])
            assert _bits(evaluate(f, z)) == _bits(single.eval([z])[0])
            assert _bits(antiderivative(f, z)) == _bits(single.antiderivatives([z])[0])


class TestAntiderivative:
    def test_linear(self):
        assert antiderivative(Linear(k=2.0), 3.0) == 9.0

    def test_powerlinear_at_one(self):
        assert antiderivative(PowerLinear(1.0, 1.0, 0.75), 1.0) == pytest.approx(4.0 / 7.0 + 0.5, rel=1e-15)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_zero_at_zero(self, f):
        assert antiderivative(f, 0.0) == 0.0

    def test_logpower_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        f = LogPower(a=1.3, c=0.4)
        for z in rng.uniform(1e-3, 6.0, 50):
            ref, err = quad(lambda s: evaluate(f, s), 0.0, z,
                            points=[math.exp(-1.0)] if z > math.exp(-1.0) else None,
                            limit=200)
            assert antiderivative(f, z) == pytest.approx(ref, abs=max(1e-9, 10 * err))

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_derivative_consistency(self, f):
        # central differences away from 0 and the breakpoint
        for z in [0.05, 0.2, 0.9, 2.5, -1.7, -0.12]:
            h = 1e-6 * max(1.0, abs(z))
            num = (antiderivative(f, z + h) - antiderivative(f, z - h)) / (2 * h)
            assert num == pytest.approx(evaluate(f, z), rel=1e-6)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_positive_and_increasing_in_magnitude(self, f):
        grid = np.geomspace(1e-9, 8.0, 300)
        vals = np.array([antiderivative(f, z) for z in grid])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)
        assert np.allclose(vals, [antiderivative(f, -z) for z in grid], rtol=1e-15)


class TestCheckA1:
    def test_linear_all_pass(self):
        r = check_a1(Linear(k=1.0), M=6.0)
        assert r.zero_at_zero and r.sign_preserving and r.continuous and r.monotone
        assert r.passed

    def test_pure_power_all_pass(self):
        r = check_a1(PowerLinear(a=1.0, b=0.0, c=0.5), M=6.0)
        assert r.passed and r.monotone

    def test_logpower_monotone_flag_fails(self):
        # the inner branch peaks at |z| = e^(-1/c) and then decreases:
        # f(e^-2) = 2/e > f(e^-1) = e^(-1/2)
        f = LogPower(a=1.0, c=0.5)
        assert evaluate(f, math.exp(-2.0)) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
        assert evaluate(f, math.exp(-1.0)) == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert evaluate(f, math.exp(-2.0)) > evaluate(f, math.exp(-1.0))
        r = check_a1(f, M=6.0)
        assert r.zero_at_zero and r.sign_preserving and r.continuous
        assert not r.monotone
        assert r.passed  # monotonicity is informational, not fatal


class TestCheckA2:
    def test_linear_fails_any_beta(self):
        bank = ProtocolBank([Linear(k=1.0)])
        for beta in [1e-6, 1e-3, 1.0]:
            rep = check_a2(bank, M=6.0, alpha=0.5, beta=beta)
            assert not rep.a2_pass
        rep = check_a2(bank, M=6.0, alpha=0.5, beta=None)
        assert not rep.a2_pass  # vanishing infimum detected

    def test_linear_ratio_vanishes_near_zero(self):
        # ratio = k^(2-alpha) 2^alpha z^(2-2alpha) -> 0 as z -> 0 for any
        # alpha < 1; the z=1e-8 probe resolves it only when alpha is not too
        # close to 1, so larger alphas are probed deeper into the tail
        z = 1e-8
        for k in [0.5, 1.0, 10.0]:
            for alpha in [0.1, 0.5]:
                ratio = (k * z) ** 2 / (k * z**2 / 2.0) ** alpha
                assert ratio < 1e-3
            zz = 1e-30
            ratio = (k * zz) ** 2 / (k * zz**2 / 2.0) ** 0.9
            assert ratio < 1e-3
            # alpha -> 1 needs z too small for direct evaluation; check in logs
            log_ratio = (2 - 0.99) * math.log(k) + 0.99 * math.log(2) + (2 - 2 * 0.99) * (-300 * math.log(10))
            assert log_ratio < math.log(1e-3)

    def test_claim1_fixture_passes(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        alpha, beta = claim1_constants(bank, M=6.0)
        rep = check_a2(bank, M=6.0, alpha=alpha, beta=beta)
        assert rep.a2_pass
        assert rep.empirical_ratio_min >= beta - 1e-9
        assert rep.bound_M == 6.0

    def test_boundary_point_included(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)])
        alpha, beta = claim1_constants(bank, M=6.0)
        grid = GridSpec().positive_grid(6.0)
        assert grid[-1] == 6.0
        f = bank[0]
        ratio_at_M = evaluate(f, 6.0) ** 2 / antiderivative(f, 6.0) ** alpha
        assert ratio_at_M >= beta

    def test_claim1_random_banks_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            bank = random_claim1_bank(rng, int(rng.integers(1, 6)))
            M = float(rng.uniform(1.0, 10.0))
            alpha, beta = claim1_constants(bank, M)
            rep = check_a2(bank, M, alpha, beta)
            assert rep.a2_pass, (bank.functions, M, alpha, beta, rep.empirical_ratio_min)

    def test_negative_guard_matches_positive_minimum(self):
        # the odd families repeat positive-grid values on the negative side,
        # so the guard must not undercut the minimum by rounding alone
        for a in (0.5, 1.0, 2.0):
            for c in (0.25, 0.4, 0.5):
                for M in (1.0, 2.5, 40.0):
                    bank = ProtocolBank([LogPower(a, c)])
                    alpha, _, emp = claim2_constants(bank, M)
                    assert check_a2(bank, M, alpha).empirical_ratio_min == emp, (a, c, M)


class TestClaim1Constants:
    def test_uniform_fixture(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        alpha, beta = claim1_constants(bank, M=6.0)
        assert alpha == pytest.approx(6.0 / 7.0, rel=1e-15)
        # independent re-evaluation of the printed formula
        c = 0.75
        e2 = 2 * c - 4 * c / (1 + c)
        expected = 6.0**e2 / (2 * max((1 / (1 + c)) ** alpha, 0.5**alpha))
        assert beta == pytest.approx(expected, rel=1e-14)
        assert beta == pytest.approx(0.55, abs=0.01)

    def test_uniform_c_first_exponent_is_zero(self):
        bank = ProtocolBank([PowerLinear(2.0, 1.0, 0.5), PowerLinear(1.0, 0.5, 0.5)])
        c = 0.5
        alpha, _ = claim1_constants(bank, M=3.0)
        assert 2 * c - 2 * c * (1 + c) / (1 + c) == 0.0
        assert alpha == 2 * c / (1 + c)

    def test_m_equal_one_simplification(self):
        bank = ProtocolBank([PowerLinear(1.5, 0.7, 0.6), PowerLinear(0.9, 1.2, 0.3)])
        c = 0.6
        alpha, beta = claim1_constants(bank, M=1.0)
        expected = min(
            f.a**2 / (2 * max((f.a / (1 + f.c)) ** (2 * c / (1 + c)), (f.b / 2) ** (2 * c / (1 + c))))
            for f in bank
        )
        assert beta == pytest.approx(expected, rel=1e-14)

    def test_overflowing_closed_form_is_unavailable(self):
        # a^2 overflows a float, so the closed form has no float value
        assert claim1_constants(ProtocolBank([PowerLinear(1e200, 1.0, 0.5)]), M=1e-100)[1] is None

    def test_wrong_kind(self):
        with pytest.raises(WrongProtocolKind):
            claim1_constants(ProtocolBank([Linear(k=1.0)]), M=6.0)


class TestClaim2Constants:
    def test_uniform_fixture(self):
        bank = ProtocolBank([LogPower(1.0, 0.5)] * 4)
        alpha, beta, emp = claim2_constants(bank, M=6.0)
        assert alpha == pytest.approx(0.8, rel=1e-15)
        # independent re-derivation of the two printed expressions
        c = 0.5
        b1 = 6.0 ** (2 * c - 4 * c * (1 + c) / (2 + c)) / (2 * (1 / (1 + c)) ** alpha)
        b2 = 6.0 ** (2 * c - 2 * c * (2 + c) / (2 + c)) / (2 * (2 / (2 + c)) ** alpha)
        assert beta == pytest.approx(min(b1, b2), rel=1e-14)
        assert emp > 0

    def test_uniform_c_exponent(self):
        c = 0.4
        assert 2 * c - 4 * c * (1 + c) / (2 + c) == pytest.approx(2 * c - 4 * c * (1 + c) / (2 + c))
        bank = ProtocolBank([LogPower(1.0, c)])
        alpha, _, _ = claim2_constants(bank, M=2.0)
        assert alpha == 4 * c / (2 + c)

    def test_empirical_minimum_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            bank = ProtocolBank([
                LogPower(a=float(rng.uniform(0.5, 2.0)), c=float(rng.uniform(0.05, 0.6)))
                for _ in range(int(rng.integers(1, 4)))
            ])
            M = float(rng.uniform(1.0, 8.0))
            _, _, emp = claim2_constants(bank, M)
            assert emp > 0

    def test_overflowing_closed_form_is_unavailable(self):
        _, beta, emp = claim2_constants(ProtocolBank([LogPower(1e200, 0.5)]), M=1e-100)
        assert beta is None and 0.0 < emp < math.inf

    def test_wrong_kind(self):
        with pytest.raises(WrongProtocolKind):
            claim2_constants(ProtocolBank([PowerLinear(1.0, 1.0, 0.5)]), M=6.0)


class TestSpecGrammar:
    @pytest.mark.parametrize("spec,expected", [
        ("linear{k=1}", Linear(k=1.0)),
        ("powerlinear{a=1, b=1, c=0.75}", PowerLinear(1.0, 1.0, 0.75)),
        ("logpower{a=1,c=0.5}", LogPower(1.0, 0.5)),
    ])
    def test_parse(self, spec, expected):
        assert parse_protocol_spec(spec) == expected

    @pytest.mark.parametrize("spec", [
        "powerlinear{a=1}",           # missing keys
        "linear{k=1,a=2}",            # extra key
        "nosuch{k=1}",                # unknown kind
        "linear{k=abc}",              # non-numeric
        "linear",                     # no braces
        "powerlinear{a=1,b=1,c=2}",   # out of range
    ])
    def test_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_protocol_spec(spec)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_round_trip(self, f):
        assert parse_protocol_spec(format_protocol_spec(f)) == f
