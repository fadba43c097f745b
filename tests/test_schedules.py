import numpy as np
import pytest

from fpiter.schedules import (
    Schedules,
    check_inertia_decay,
    default_psi,
    default_xi,
    inverse_linear,
)


class TestDefaultSequences:
    def test_psi_values(self):
        assert default_psi(0) == 0.01
        assert default_psi(1) == pytest.approx(1 / 400)
        assert default_psi(9) == pytest.approx(1e-4)

    def test_nu_values(self):
        assert inverse_linear(0) == 1.0
        assert inverse_linear(1) == 0.5
        assert inverse_linear(99) == 0.01

    def test_xi_values(self):
        assert default_xi(0) == 10.0
        assert default_xi(9) == pytest.approx(0.1)

    def test_default_evaluates_formulas_as_written(self):
        sched = Schedules()
        assert sched.nu(0) == 1.0
        for n in (0, 1, 7, 250):
            assert sched.psi(n) == default_psi(n)
            assert sched.nu(n) == inverse_linear(n)
            assert sched.xi(n) == default_xi(n)

    def test_xi_over_nu_vanishes(self):
        ratios = [default_xi(n) / inverse_linear(n) for n in range(200)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.06


class TestDeltaBar:
    def test_first_steps_have_no_inertia(self):
        sched = Schedules()
        assert sched.delta_bar(0, 5.0) == 0.0
        assert sched.delta_bar(1, 5.0) == 0.0  # (n-1)/(n+eta-1) = 0

    def test_ratio_branch(self):
        sched = Schedules(eta=4.0)
        # xi(9) = 0.1, cap = 8/12; ratio 0.1/0.3 wins
        assert sched.delta_bar(9, 0.3) == pytest.approx(1 / 3, rel=1e-12)

    def test_cap_branch_when_iterates_coincide(self):
        sched = Schedules(eta=4.0)
        assert sched.delta_bar(9, 0.0) == pytest.approx(8 / 12, rel=1e-15)

    def test_budget_bound_is_exact(self):
        # delta_bar(n, d) * d <= xi(n) must hold without any slack
        sched = Schedules()
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(1, 500))
            diff = float(rng.uniform(1e-12, 1e3))
            assert sched.delta_bar(n, diff) * diff <= sched.xi(n)

    def test_monotone_in_diff_norm(self):
        sched = Schedules()
        diffs = np.linspace(1e-6, 10.0, 50)
        values = [sched.delta_bar(20, d) for d in diffs]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_below_cap_and_below_one(self):
        sched = Schedules(eta=3.0)
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(0, 1000))
            d = float(rng.uniform(0, 10))
            cap = max((n - 1) / (n + sched.eta - 1), 0.0)
            value = sched.delta_bar(n, d)
            assert 0.0 <= value <= cap
            assert value < 1.0

    def test_negative_diff_rejected(self):
        with pytest.raises(ValueError):
            Schedules().delta_bar(3, -1.0)

    def test_nan_diff_rejected(self):
        # a NaN norm used to get the full cap, beyond the xi budget
        for n in (0, 5):
            with pytest.raises(ValueError, match="diff_norm must be nonnegative"):
                Schedules().delta_bar(n, float("nan"))
            with pytest.raises(ValueError, match="diff_norm must be nonnegative"):
                Schedules(delta_mode="adaptive").delta(n, float("nan"))

    @pytest.mark.parametrize("xi_n", [float("nan"), -1.0])
    def test_bad_xi_rejected_by_name(self, xi_n):
        # a NaN budget gave a NaN delta, a negative one a negative delta
        sched = Schedules(xi=lambda n: xi_n)
        with pytest.raises(ValueError, match=r"xi\(5\) must be nonnegative"):
            sched.delta_bar(5, 1.0)
        with pytest.raises(ValueError, match=r"xi\(5\) must be nonnegative"):
            sched.delta(5, 1.0)


class TestDeltaModes:
    def test_zero_mode(self):
        sched = Schedules(delta_mode="zero")
        assert sched.delta(50, 1.0) == 0.0

    def test_constant_mode(self):
        sched = Schedules(delta_mode="constant", delta_value=0.5)
        assert sched.delta(50, 1.0) == 0.5
        assert sched.delta(0, 0.0) == 0.5

    def test_adaptive_mode_matches_bound(self):
        sched = Schedules()
        assert sched.delta(9, 0.3) == sched.delta_bar(9, 0.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            Schedules(eta=2.0)
        with pytest.raises(ValueError, match="delta_mode"):
            Schedules(delta_mode="bogus")
        with pytest.raises(ValueError, match="delta_value"):
            Schedules(delta_mode="constant", delta_value=-0.1)
        with pytest.raises(ValueError, match="delta_value"):
            Schedules(delta_mode="constant", delta_value=float("nan"))
        with pytest.raises(ValueError, match="delta_value"):
            Schedules(delta_mode="constant", delta_value=float("inf"))


class TestInertiaDecayDiagnostic:
    def test_all_zero_inertia(self):
        entries = [(0.0, 1 / (n + 1), 0.5) for n in range(50)]
        report = check_inertia_decay(entries)
        assert report.ratios == tuple([0.0] * 50)
        assert report.trending_to_zero

    def test_adaptive_rule_trends_to_zero(self):
        sched = Schedules()
        entries = []
        for n in range(1, 2000):
            diff = 1.0 / (n + 1)  # decaying but nonzero steps
            delta = sched.delta_bar(n, diff)
            entries.append((delta, sched.nu(n), diff))
        report = check_inertia_decay(entries, tolerance=1e-2)
        # each ratio is bounded by xi_n / nu_n = 10/(n+1)
        for n, ratio in zip(range(1, 2000), report.ratios):
            assert ratio <= 10.0 / (n + 1) + 1e-15
        assert report.trending_to_zero

    def test_constant_inertia_with_nonvanishing_steps_fails(self):
        entries = [(0.5, 1 / (n + 1), 1.0) for n in range(100)]
        report = check_inertia_decay(entries)
        assert report.ratios[-1] > report.ratios[0]
        assert not report.trending_to_zero

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            check_inertia_decay([])

    @pytest.mark.parametrize(
        "nu", [0.0, -0.5, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_nu_must_be_finite_and_positive(self, nu):
        entries = [(0.0, 1.0, 0.5), (0.5, nu, 1.0)]
        with pytest.raises(ValueError, match="nu_n must be finite and positive"):
            check_inertia_decay(entries)

    @pytest.mark.parametrize("name", ["delta_n", "diff_norm"])
    @pytest.mark.parametrize("value", [-3.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    def test_delta_and_diff_norm_must_be_finite_and_nonnegative(self, name, value):
        bad = (value, 1.0, 1.0) if name == "delta_n" else (0.2, 0.5, value)
        entries = [(0.5, 1.0, 2.0), bad]
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            check_inertia_decay(entries)
