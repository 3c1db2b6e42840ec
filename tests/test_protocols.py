import math
import typing
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ftconsensus import (
    Linear,
    LogPower,
    PowerLinear,
    ProtocolBank,
    antiderivative,
    check_a1,
    check_a2,
    evaluate,
    parse_protocol_spec,
)
from ftconsensus import config, protocols
from ftconsensus.analysis import constants_for_bank

from conftest import format_protocol_spec, random_claim1_bank

ALL_KINDS = [Linear(k=1.3), PowerLinear(a=1.0, b=1.0, c=0.75), LogPower(a=1.0, c=0.5)]


def closed_form(bank, M):
    """(alpha, closed-form beta or None) of ``_constants``."""
    alpha, _, beta, _ = protocols._constants(bank, M)
    return alpha, beta


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
    ] + [
        # check_a1's proofs hold for finite real parameters: a bool or a
        # non-finite value is refused in every field, not only by the spec grammar
        partial(kind, **{**valid, name: value})
        for kind, valid in [(Linear, {"k": 1.0}), (PowerLinear, {"a": 1.0, "b": 1.0, "c": 0.5}),
                            (LogPower, {"a": 1.0, "c": 0.5})]
        for name in valid
        for value in (True, False, math.nan, math.inf, -math.inf)
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
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(z=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_odd(self, f, z):
        assert evaluate(f, -z) == -evaluate(f, z)
        assert antiderivative(f, -z) == antiderivative(f, z)

    @pytest.mark.parametrize("f", ALL_KINDS)
    @pytest.mark.parametrize("M", [1e-100, 6.0, 1e150])
    def test_odd_and_even_on_the_ratio_grid(self, f, M):
        # f odd and F even bit for bit on the grid check_a2 scans: the ratio at
        # -z is the ratio at z, so (0, M] covers [-M, M]
        f_kernel, F_kernel = protocols._KERNELS[type(f)]
        params = protocols._params([f])
        z = protocols._ratio_grid(M)
        assert np.array_equal(f_kernel(-z, *params), -f_kernel(z, *params))
        assert np.array_equal(F_kernel(-z, *params), F_kernel(z, *params))

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


    def test_mixed_bank_gather_matches_per_family_indexing(self):
        # one gather into family-sorted order and one back give, bit for bit,
        # what indexing each family's agents in place gives, for inputs of any
        # memory layout, and leave the input as it was
        rng = np.random.default_rng(5)
        kinds = [LogPower(0.8, 0.55), PowerLinear(1.5, 0.7, 0.6), Linear(1.3), PowerLinear(1.1, 1.2, 0.7)]
        bank = ProtocolBank([kinds[i] for i in rng.integers(0, 4, 23)])
        assert bank.uniform_kind is None
        for y in [rng.uniform(-3, 3, 23), rng.uniform(-3, 3, (7, 23)),
                  np.asfortranarray(rng.uniform(-3, 3, (7, 23))), rng.uniform(-3, 3, (23, 7)).T]:
            before = y.copy()
            for which, method in [(0, bank.eval), (1, bank.antiderivatives)]:
                expected = np.empty_like(y)
                for kind in bank.kinds:
                    idx = [i for i, f in enumerate(bank) if type(f) is kind]
                    family = [bank[i] for i in idx]
                    expected[..., idx] = protocols._KERNELS[kind][which](
                        y[..., idx], *protocols._params(family))
                assert np.array_equal(_bits(method(y)), _bits(expected))
            assert np.array_equal(y, before)

    def test_uniform_bank_applies_its_kernel_to_the_input(self, monkeypatch):
        # no copy of y and no output buffer: the kernel sees y itself
        seen = []
        f, F = protocols._KERNELS[PowerLinear]
        monkeypatch.setitem(protocols._KERNELS, PowerLinear, (lambda z, *p: seen.append(z) or f(z, *p), F))
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75), PowerLinear(2.0, 0.5, 0.6)])
        y = np.array([0.5, -2.0])
        out = bank.eval(y)
        assert seen[0] is y and out is not y and np.array_equal(y, [0.5, -2.0])
        assert np.array_equal(out, f(y, np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.array([0.75, 0.6])))

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
        for f, F in protocols._KERNELS.values():
            assert callable(f) and callable(F) and f is not F

    def test_power_linear_f_is_the_signed_product(self):
        # sign(z) a |z|^c + b z bit for bit, both zeros included: copysign(a |z|^c, z)
        # + b z agrees everywhere else but maps -0.0 to -0.0, where this gives +0.0,
        # and y = -(L x) is -0.0 wherever L x is exactly 0
        grid = protocols._ratio_grid(6.0)
        z = np.concatenate([grid, -grid, [0.0, -0.0]])
        for a, b, c in [(1.0, 1.0, 0.75), (1.5, 0.5, 0.6), (2.0, 0.0, 0.1),
                        (np.full(z.size, 0.8), np.full(z.size, 1.2), np.full(z.size, 0.5))]:
            expected = np.sign(z) * a * np.power(np.abs(z), c) + b * z
            assert np.array_equal(_bits(protocols._power_linear_f(z, a, b, c)), _bits(expected))

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
    def test_linear_monotone(self):
        assert check_a1(Linear(k=1.0), M=6.0) is True

    def test_pure_power_monotone(self):
        assert check_a1(PowerLinear(a=1.0, b=0.0, c=0.5), M=6.0) is True

    def test_logpower_monotone_flag_fails(self):
        # the inner branch peaks at |z| = e^(-1/c) and then decreases:
        # f(e^-2) = 2/e > f(e^-1) = e^(-1/2)
        f = LogPower(a=1.0, c=0.5)
        assert evaluate(f, math.exp(-2.0)) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
        assert evaluate(f, math.exp(-1.0)) == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert evaluate(f, math.exp(-2.0)) > evaluate(f, math.exp(-1.0))
        assert check_a1(f, M=6.0) is False

    @pytest.mark.parametrize("factor,monotone", [(0.99, True), (1.01, False)])
    def test_logpower_monotone_up_to_the_inner_peak(self, factor, monotone):
        # with c = 0.5 the inner branch peaks at e^(-1/c) = e^-2
        f = LogPower(a=1.0, c=0.5)
        M = factor * math.exp(-2.0)
        z = np.linspace(0.0, M, 2001)
        assert bool(np.all(np.diff(protocols._f(f, z)) >= 0.0)) is monotone
        assert check_a1(f, M=M) is monotone

    def test_not_a_protocol_family(self):
        with pytest.raises(TypeError):
            check_a1(math.sin, M=6.0)


class TestPositiveGrid:
    @staticmethod
    def _sorted_union(M):
        # the construction _ratio_grid replaced: sort the grid, M and 1/e, drop repeats
        z = np.geomspace(min(M * 10.0**-protocols._GRID_DECADES, protocols._BREAK), M,
                         protocols._GRID_POINTS)
        z = np.sort(np.concatenate([z, [M, protocols._BREAK] if M >= protocols._BREAK else [M]]))
        return z[np.concatenate([[True], z[1:] != z[:-1]])]

    def test_bit_identical_to_the_sorted_union(self):
        rng = np.random.default_rng(15)
        b = protocols._BREAK
        bounds = [*10.0 ** rng.uniform(-300.0, 300.0, 3000), b, np.nextafter(b, 0.0),
                  np.nextafter(b, 1.0), 1.0, 6.0, 1e-310, 1e-311, 1.7e308]
        for M in map(float, bounds):
            z = protocols._ratio_grid(M)
            assert z.tobytes() == self._sorted_union(M).tobytes(), M
            assert np.all(z[1:] > z[:-1]) and z[-1] == M

    def test_a_huge_M_grid_starts_at_1_over_e(self):
        # once M 1e-12 > 1/e the grid starts at 1/e: no cell spans the decades
        # from 1/e to M 1e-12, whose first cell gave 1.5e-184 at M = 1e150 and
        # 0.055 at M = 1e13; the infimum is 1.5^(2/3) = 1.3104 (the z -> 0 limit)
        f = PowerLinear(1.0, 1.0, 0.5)
        alpha = protocols._closed_form_alpha(ProtocolBank([f]))
        assert protocols._ratio_grid(6.0)[0] == 6e-12
        for M in (1e13, 1e50, 1e150):
            assert protocols._ratio_grid(M)[0] == protocols._BREAK
            assert 1.02 < protocols._ratio_min_single(f, M, alpha) <= 1.3104, M


class TestCheckA2:
    def test_linear_fails_any_beta(self):
        bank = ProtocolBank([Linear(k=1.0)])
        for beta in [1e-6, 1e-3, 1.0]:
            rep = check_a2(bank, M=6.0, alpha=0.5, beta=beta)
            assert not rep.a2_pass
        rep = check_a2(bank, M=6.0, alpha=0.5, beta=None)
        assert not rep.a2_pass and rep.beta == 0.0  # the ratio tends to 0 as z -> 0

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
        alpha, beta = closed_form(bank, M=6.0)
        rep = check_a2(bank, M=6.0, alpha=alpha, beta=beta)
        assert rep.a2_pass
        assert rep.ratio_bound >= beta - 1e-9

    def test_boundary_point_included(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)])
        alpha, beta = closed_form(bank, M=6.0)
        grid = protocols._ratio_grid(6.0)
        assert grid[-1] == 6.0
        f = bank[0]
        ratio_at_M = evaluate(f, 6.0) ** 2 / antiderivative(f, 6.0) ** alpha
        assert ratio_at_M >= beta

    def test_claim1_random_banks_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            bank = random_claim1_bank(rng, int(rng.integers(1, 6)))
            M = float(rng.uniform(1.0, 10.0))
            alpha, beta = closed_form(bank, M)
            rep = check_a2(bank, M, alpha, beta)
            assert beta is not None and rep.a2_pass, (bank.functions, M, alpha, beta, rep.ratio_bound)

    def test_negative_guard_matches_positive_minimum(self):
        # the odd families repeat positive-grid values on the negative side,
        # so the guard must not undercut the minimum by rounding alone
        for a in (0.5, 1.0, 2.0):
            for c in (0.25, 0.4, 0.5):
                for M in (1.0, 2.5, 40.0):
                    bank = ProtocolBank([LogPower(a, c)])
                    alpha, emp, _ = constants_for_bank(bank, M)
                    assert check_a2(bank, M, alpha).ratio_bound == emp, (a, c, M)


class TestRatioBound:
    """``_ratio_min_single`` is a lower bound on f^2 / F^alpha over all of (0, M]."""

    FAMILIES = pytest.mark.parametrize("kind", [Linear, PowerLinear, LogPower], ids=lambda k: k.__name__)
    CLOSED_FORM_FAMILIES = pytest.mark.parametrize("kind", [PowerLinear, LogPower], ids=lambda k: k.__name__)

    @staticmethod
    def ratio(f, z, alpha):
        return protocols._f(f, z) ** 2 / protocols._F(f, z) ** alpha

    @staticmethod
    def draws():
        rng = np.random.default_rng(16)
        # the paper's spec, whose ratio falls to 1.75^(6/7) = 1.6155 as z -> 0, and a
        # large b/a, whose linear term still dominates at the bottom of the grid
        yield PowerLinear(1.0, 1.0, 0.75), 6.0, True
        yield PowerLinear(1.0, 1e6, 0.5), 6.0, True
        # M 1e-12 > 1/e: the grid starts at 1/e, and so does the tail
        yield PowerLinear(1.0, 1.0, 0.5), 1e13, True
        yield LogPower(1.0, 0.5), 1e13, True
        for _ in range(100):
            M = 10.0 ** rng.uniform(-1.5, 2.0)
            closed = bool(rng.integers(2))  # else a random alpha
            yield Linear(10.0 ** rng.uniform(-1, 1)), M, False
            b = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-2, 2)
            yield PowerLinear(10.0 ** rng.uniform(-1, 1), b, rng.uniform(0.05, 0.95)), M, closed
            yield LogPower(10.0 ** rng.uniform(-1, 1), rng.uniform(0.02, 0.66)), M, closed

    @classmethod
    def cases(cls, kind):
        """Every draw of ``kind`` as (f, M, alpha, closed, beta); the draws and their
        alphas are the same whichever family a test asks for."""
        rng = np.random.default_rng(17)
        for f, M, closed in cls.draws():
            bank = ProtocolBank([f])
            alpha = protocols._closed_form_alpha(bank) if closed else rng.uniform(0.05, 0.95)
            if type(f) is kind:
                yield f, M, alpha, closed, protocols._ratio_min_single(f, M, alpha)

    @FAMILIES
    def test_below_the_ratio_on_a_denser_grid(self, kind):
        for f, M, alpha, _, beta in self.cases(kind):
            # ten times the points of the ratio grid over the same span, with M and 1/e
            dense = np.geomspace(min(M * 10.0**-protocols._GRID_DECADES, protocols._BREAK), M,
                                 10 * protocols._GRID_POINTS)
            dense = np.concatenate([dense, [M, protocols._BREAK] if M >= protocols._BREAK else [M]])
            assert beta <= self.ratio(f, dense, alpha).min(), (f, M, alpha, beta)

    @FAMILIES
    def test_below_the_ratio_under_the_grid(self, kind):
        rng = np.random.default_rng(18)
        for f, M, alpha, _, beta in self.cases(kind):
            z0 = protocols._ratio_grid(M)[0]
            z = z0 * 10.0 ** -rng.uniform(0, 30, 200)
            assert beta <= self.ratio(f, z, alpha).min(), (f, M, alpha, beta)

    @FAMILIES
    def test_below_the_limit_at_zero(self, kind):
        # the z -> 0 limit: 0 for linear and for a positive tail exponent; for
        # power-linear at 2c = (1+c) alpha, which the closed form meets to 2 ulps,
        # a^(2-alpha) (1+c)^alpha
        for f, M, alpha, closed, beta in self.cases(kind):
            case = (f, M, alpha, beta)
            if kind is Linear or 2 * Fraction(f.c) > (1 + Fraction(f.c)) * Fraction(alpha):
                assert beta == 0.0, case
            elif kind is PowerLinear and closed:
                assert beta <= f.a ** (2 - alpha) * (1 + f.c) ** alpha, case

    @CLOSED_FORM_FAMILIES
    def test_closed_form_beta_does_not_exceed_it(self, kind):
        # the Claim's own term, before _constants could leave out one above the bound
        term = protocols._CLOSED_FORMS[kind][1]
        for f, M, alpha, closed, beta in self.cases(kind):
            if closed:
                assert term(f, f.c, alpha, M) <= beta, (f, M, alpha, beta)

    def test_paper_spec_bounds_are_below_the_infima(self):
        # the infima are the z -> 0 limits a^(2-alpha) (1+c)^alpha: 1.75^(6/7) and 1.5^(2/3)
        for f, inf in ((PowerLinear(1.0, 1.0, 0.75), 1.6155422767), (PowerLinear(1.0, 1e6, 0.5), 1.3104)):
            alpha = protocols._closed_form_alpha(ProtocolBank([f]))
            assert 0.0 < protocols._ratio_min_single(f, 6.0, alpha) <= inf, f

    def test_fl_closed_form_alpha_misses_the_tail_exponent(self):
        # 2c - (1+c) alpha > 0 over the reals at alpha = fl(2c/(1+c)) for these c
        for c in (0.75, 0.5):
            assert 2 * Fraction(c) > (1 + Fraction(c)) * Fraction(2 * c / (1 + c))

    @CLOSED_FORM_FAMILIES
    def test_closed_form_alpha_meets_the_tail_exponent(self, kind):
        # 2c - (1+c) alpha <= 0 over the reals
        rng = np.random.default_rng(16)
        u = 2.0**-53
        if kind is PowerLinear:
            cs = (0.75, 0.5, *rng.uniform(0, 1, 2000))
        else:
            # log-power is not rounded: check the binades its docstring leaves to the test
            cs = (*rng.uniform(0, 2 / 3, 1000), *(u * rng.uniform(2, 8, 2000)), *(u * rng.uniform(0, 2, 100)))
        for c in cs:
            f = kind(1.0, 1.0, float(c)) if kind is PowerLinear else kind(1.0, float(c))
            alpha = Fraction(protocols._closed_form_alpha(ProtocolBank([f])))
            assert 2 * Fraction(f.c) <= (1 + Fraction(f.c)) * alpha, (f, alpha)


# (bank, M, alpha, closed-form beta) as float.hex, read before the per-family
# closed-form functions became one table; the mixed-c banks' beta is set by
# the agent whose c is not the largest
CLOSED_FORM_PINS = [
    ([PowerLinear(1.0, 1.0, 0.75)], 6.0, "0x1.b6db6db6db6ddp-1", "0x1.19b74f4cd4d68p-1"),
    ([PowerLinear(1.0, 1.0, 0.75)], 1e150, "0x1.b6db6db6db6ddp-1", "0x1.e2f59fcdc0d79p-108"),
    ([PowerLinear(1.0, 1.0, 0.75), PowerLinear(0.5, 1.0, 0.4)], 6.0,
     "0x1.b6db6db6db6ddp-1", "0x1.687929cfc307fp-5"),
    ([LogPower(1.0, 0.5)], 6.0, "0x1.999999999999ap-1", "0x1.eee504bc32425p-2"),
    ([LogPower(1.0, 0.5)], 1e150, "0x1.999999999999ap-1", "0x1.c0dc97a036756p-101"),
    ([LogPower(1.0, 0.5), LogPower(0.5, 0.3)], 6.0, "0x1.999999999999ap-1", "0x1.f3e032b1954a1p-4"),
]


@pytest.mark.parametrize("functions,M,alpha,beta", CLOSED_FORM_PINS)
def test_closed_form_constants_are_pinned(functions, M, alpha, beta):
    for bank in (ProtocolBank(functions), ProtocolBank(functions[::-1])):
        assert [float(v).hex() for v in closed_form(bank, M)] == [alpha, beta]


class TestClaim1Constants:
    def test_uniform_fixture(self):
        bank = ProtocolBank([PowerLinear(1.0, 1.0, 0.75)] * 4)
        alpha, beta = closed_form(bank, M=6.0)
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
        alpha, _ = closed_form(bank, M=3.0)
        assert 2 * c - 2 * c * (1 + c) / (1 + c) == 0.0
        assert alpha == math.nextafter(math.nextafter(2 * c / (1 + c), 1), 1)  # two ulps up

    def test_m_equal_one_simplification(self):
        bank = ProtocolBank([PowerLinear(1.5, 0.7, 0.6), PowerLinear(0.9, 1.2, 0.3)])
        c = 0.6
        alpha, beta = closed_form(bank, M=1.0)
        expected = min(
            f.a**2 / (2 * max((f.a / (1 + f.c)) ** (2 * c / (1 + c)), (f.b / 2) ** (2 * c / (1 + c))))
            for f in bank
        )
        assert beta == pytest.approx(expected, rel=1e-14)

    def test_overflowing_closed_form_is_unavailable(self):
        # a^2 overflows a float, so the closed form has no float value
        assert closed_form(ProtocolBank([PowerLinear(1e200, 1.0, 0.5)]), M=1e-100)[1] is None


class TestClaim2Constants:
    def test_uniform_fixture(self):
        bank = ProtocolBank([LogPower(1.0, 0.5)] * 4)
        alpha, beta = closed_form(bank, M=6.0)
        assert alpha == pytest.approx(0.8, rel=1e-15)
        # independent re-derivation of the two printed expressions
        c = 0.5
        b1 = 6.0 ** (2 * c - 4 * c * (1 + c) / (2 + c)) / (2 * (1 / (1 + c)) ** alpha)
        b2 = 6.0 ** (2 * c - 2 * c * (2 + c) / (2 + c)) / (2 * (2 / (2 + c)) ** alpha)
        assert beta == pytest.approx(min(b1, b2), rel=1e-14)
        assert check_a2(bank, 6.0, alpha).ratio_bound > 0

    def test_uniform_c_exponent(self):
        c = 0.4
        assert 2 * c - 4 * c * (1 + c) / (2 + c) == pytest.approx(2 * c - 4 * c * (1 + c) / (2 + c))
        bank = ProtocolBank([LogPower(1.0, c)])
        alpha, _ = closed_form(bank, M=2.0)
        assert alpha == 4 * c / (2 + c)

    def test_empirical_minimum_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            bank = ProtocolBank([
                LogPower(a=float(rng.uniform(0.5, 2.0)), c=float(rng.uniform(0.05, 0.6)))
                for _ in range(int(rng.integers(1, 4)))
            ])
            M = float(rng.uniform(1.0, 8.0))
            alpha, _ = closed_form(bank, M)
            assert check_a2(bank, M, alpha).ratio_bound > 0

    def test_overflowing_closed_form_is_unavailable(self):
        bank = ProtocolBank([LogPower(1e200, 0.5)])
        alpha, beta = closed_form(bank, M=1e-100)
        assert beta is None and 0.0 < check_a2(bank, 1e-100, alpha).ratio_bound < math.inf


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
        "powerlinear{a=1,a=2,b=1,c=0.5}",  # repeated key
        "linear{k=1,k=1}",            # repeated key, same value
    ])
    def test_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_protocol_spec(spec)

    @pytest.mark.parametrize("f", ALL_KINDS)
    def test_round_trip(self, f):
        assert parse_protocol_spec(format_protocol_spec(f)) == f
