import pytest

from cyclebench.bench import InfidelityEstimate
from cyclebench.qcap import (
    QcapCurve,
    QcapError,
    compare_estimates,
    qcap_cb_curve,
    qcap_rb_curve,
)


def est(value, sigma=0.0, source="CB", label=""):
    return InfidelityEstimate(infidelity=value, sigma=sigma, source=source, label=label)


class TestRbCurve:
    def test_zero_rates_zero_bound(self):
        curve = qcap_rb_curve([0.0, 0.0], d=4, steps=[0, 1, 5, 20])
        assert curve.bound == (0.0, 0.0, 0.0, 0.0)

    def test_single_rate_two_steps_worked_value(self):
        curve = qcap_rb_curve([0.01], d=4, steps=[2])
        assert curve.bound[0] == pytest.approx(0.02484375, abs=1e-12)

    def test_six_cnot_step_worked_value(self):
        # three backend pair errors read as process infidelities, each pair
        # hit twice per Trotter step; factors compose as (1 - e) directly
        errors = [0.00908, 0.00908, 0.01128, 0.01128, 0.01010, 0.01010]
        curve = qcap_rb_curve(errors, d=4, steps=[1], rates_are_infidelities=True)
        expected = 1.0
        for e in errors:
            expected *= 1 - e
        assert curve.bound[0] == pytest.approx(1 - expected, abs=1e-12)
        assert curve.bound[0] == pytest.approx(0.0594, abs=5e-4)

    def test_raw_rate_conversion_applies_five_fourths(self):
        raw = qcap_rb_curve([0.01], d=4, steps=[1])
        pre = qcap_rb_curve([0.0125], d=4, steps=[1], rates_are_infidelities=True)
        assert raw.bound[0] == pytest.approx(pre.bound[0], abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(QcapError):
            qcap_rb_curve([1.2], d=4, steps=[1])
        with pytest.raises(QcapError):
            qcap_rb_curve([0.01], d=3, steps=[1])
        with pytest.raises(QcapError):
            qcap_rb_curve([0.01], d=4, steps=[-1])

    @pytest.mark.parametrize("sigmas", [[0.001], [0.001] * 4, []])
    def test_rejects_sigmas_of_another_length(self, sigmas):
        """Every rate is a CNOT factor of the step; none is dropped."""
        with pytest.raises(QcapError, match=f"3 rates but {len(sigmas)} sigmas"):
            qcap_rb_curve([0.01, 0.02, 0.03], d=4, steps=[1], rate_sigmas=sigmas)


class TestCbCurve:
    def test_zero_infidelity_flat(self):
        curve = qcap_cb_curve({1: est(0.0)}, [1], steps=[0, 1, 10])
        assert curve.bound == (0.0, 0.0, 0.0)

    def test_single_cycle_worked_value(self):
        curve = qcap_cb_curve({3: est(0.0367)}, [3], steps=[10])
        assert curve.bound[0] == pytest.approx(1 - (1 - 0.0367) ** 10, abs=1e-12)
        assert curve.bound[0] == pytest.approx(0.3119, abs=5e-4)

    def test_more_factors_grow_faster(self):
        ests = {cid: est(0.01) for cid in (1, 2, 3, 4)}
        short = qcap_cb_curve(ests, [1, 1, 3, 3], steps=range(0, 8))
        long = qcap_cb_curve(ests, [2, 2, 3, 3, 4, 4], steps=range(0, 8))
        assert long.bound[0] == short.bound[0] == 0.0
        assert all(b2 >= b1 for b1, b2 in zip(short.bound[1:], long.bound[1:]))
        assert long.bound[1] > short.bound[1]

    def test_missing_estimate(self):
        with pytest.raises(QcapError):
            qcap_cb_curve({1: est(0.01)}, [1, 3], steps=[1])

    def test_sigma_propagation_repeated_cycle(self):
        sigma = 0.002
        curve = qcap_cb_curve({3: est(0.05, sigma)}, [3, 3], steps=[4])
        # 8 correlated factors of (1 - e): d(bound)/de = 8 * prod / (1 - e)
        prod = (1 - 0.05) ** 8
        expected = 8 * prod / 0.95 * sigma
        assert curve.sigma[0] == pytest.approx(expected, rel=1e-9)


class TestCurveProperties:
    def test_monotone_nondecreasing(self):
        curve = qcap_cb_curve(
            {1: est(0.02, 0.001), 3: est(0.035, 0.002)},
            [1, 1, 3, 3],
            steps=range(0, 30),
        )
        assert all(b >= a - 1e-15 for a, b in zip(curve.bound, curve.bound[1:]))
        assert curve.bound[0] == 0.0

    def test_bounded_by_one_at_depth(self):
        curve = qcap_cb_curve({1: est(0.2)}, [1] * 6, steps=[0, 1, 10, 200, 5000])
        assert all(0.0 <= b <= 1.0 for b in curve.bound)
        assert curve.bound[-1] == pytest.approx(1.0)

    def test_saturated_factor(self):
        curve = qcap_cb_curve({1: est(1.0)}, [1], steps=[0, 1, 3])
        assert curve.bound == (0.0, 1.0, 1.0)

    def test_rb_and_cb_agree_for_single_cnot_cycles(self):
        """Per-gate infidelities fed to both builders give identical bounds."""
        rates = [0.008, 0.0125, 0.0101]
        steps = list(range(0, 12))
        rb = qcap_rb_curve(rates, d=4, steps=steps)
        ests = {i: est(1.25 * r) for i, r in enumerate(rates)}
        cb = qcap_cb_curve(ests, [0, 1, 2], steps=steps)
        for a, b in zip(rb.bound, cb.bound):
            assert a == pytest.approx(b, abs=1e-12)

    def test_first_step_above_threshold(self):
        curve = qcap_cb_curve({1: est(0.1)}, [1], steps=range(0, 20))
        n = curve.first_step_above(0.5)
        assert 1 - 0.9**n > 0.5 >= 1 - 0.9 ** (n - 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(QcapError):
            QcapCurve("CB", (0, 1), (0.0,), (0.0, 0.0))


class TestCompare:
    def test_identical_estimates_consistent(self):
        a = est(0.02, 0.001)
        assert compare_estimates(a, a) == "consistent"

    def test_worked_drift_example(self):
        a = est(0.0367, 0.002)
        b = est(0.0479, 0.0025)
        assert compare_estimates(a, b) == "drift-detected"

    def test_huge_k_always_consistent(self):
        a = est(0.0367, 0.002)
        b = est(0.0479, 0.0025)
        assert compare_estimates(a, b, k=1e9) == "consistent"

    def test_curves_pointwise(self):
        x = QcapCurve("CB", (1, 2), (0.1, 0.2), (0.001, 0.001))
        y = QcapCurve("CB", (1, 2), (0.1, 0.3), (0.001, 0.001))
        assert compare_estimates(x, y) == ["consistent", "drift-detected"]

    def test_grid_mismatch(self):
        x = QcapCurve("CB", (1, 2), (0.1, 0.2), (0.0, 0.0))
        y = QcapCurve("CB", (1, 3), (0.1, 0.2), (0.0, 0.0))
        with pytest.raises(QcapError):
            compare_estimates(x, y)

    def test_mixed_kinds_rejected(self):
        x = QcapCurve("CB", (1,), (0.1,), (0.0,))
        with pytest.raises(QcapError):
            compare_estimates(x, est(0.1))
