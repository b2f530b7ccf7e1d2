import math

import numpy as np
import pytest

from conftest import oracle_half_excess, oracle_mutual_information
from quasihmm import errors
from quasihmm.measures import (
    MEASURES,
    alpha_mutual_information,
    defined_reports,
    excess_entropy_half,
    excess_entropy_shannon,
    half_excess_from_futures,
    mana,
    negativity,
    perturbed_coin_excess_half,
    renyi_entropy,
    sns_excess_entropy_half,
)
from quasihmm.processes import (
    even_process_epsilon,
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    sns_epsilon_truncated,
    sns_g_machine,
    unbiased_coin,
)
from quasihmm.quantum import gram_from_machine, quantum_complexity

GRID = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]


class TestRenyiEntropy:
    def test_uniform_collision_entropy(self):
        assert renyi_entropy([0.5, 0.5], 2) == 1.0

    def test_signed_vector_collision_entropy(self):
        # sum of squares 9/4 + 1/4 = 5/2
        assert renyi_entropy([1.5, -0.5], 2) == pytest.approx(-math.log2(2.5), abs=1e-12)

    def test_golden_mean_stationary(self):
        p = 0.5
        pi = [1 / (2 - p), (1 - p) / (2 - p)]
        assert renyi_entropy(pi, 2) == pytest.approx(-math.log2(5 / 9), abs=1e-12)

    def test_signed_vector_rejects_other_orders(self):
        for alpha in (0.0, 0.5, 1.0, 3.0):
            with pytest.raises(errors.NegativeEntriesUnsupportedOrder):
                renyi_entropy([1.5, -0.5], alpha)

    def test_signed_vector_rejects_zero_entries(self):
        with pytest.raises(errors.ZeroEntryWithQuasiOrder):
            renyi_entropy([1.5, -0.5, 0.0], 2)

    def test_zero_entries_fine_for_proper_distributions(self):
        assert renyi_entropy([0.5, 0.0, 0.5], 2) == pytest.approx(1.0)
        assert renyi_entropy([0.5, 0.0, 0.5], 1) == pytest.approx(1.0)

    def test_order_zero_counts_support(self):
        assert renyi_entropy([0.25, 0.25, 0.5, 0.0], 0) == pytest.approx(math.log2(3))

    def test_shannon_order(self):
        assert renyi_entropy([0.25, 0.75], 1) == pytest.approx(
            -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-12
        )

    def test_negative_order_rejected(self):
        with pytest.raises(errors.InvalidAlpha):
            renyi_entropy([0.5, 0.5], -1.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.4], 2)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("q", [[1.0], [0.0, 1.0, 0.0]])
    def test_zero_entropy_is_positive_zero(self, q, alpha):
        value = renyi_entropy(q, alpha)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_monotone_nonincreasing_in_order(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            q = rng.dirichlet(np.ones(n))
            values = [renyi_entropy(q, a) for a in (0.0, 0.5, 1.0, 2.0)]
            assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


class TestNegativityAndMana:
    def test_nonnegative_vector(self):
        assert negativity([0.5, 0.5]) == 1.0
        assert mana([0.25, 0.75]) == 0.0

    def test_signed_vector(self):
        assert negativity([1.5, -0.5]) == pytest.approx(2.0)
        assert mana([1.5, -0.5]) == pytest.approx(2.0)

    def test_split_identity(self, rng):
        # H2 of the rescaled absolute distribution = H2 of the signed vector + mana
        for _ in range(30):
            n = int(rng.integers(2, 7))
            q = rng.uniform(-1.0, 1.5, n)
            q += (1.0 - q.sum()) / n
            if np.min(np.abs(q)) < 1e-3 or np.min(q) > 0:
                continue
            rescaled = np.abs(q) / np.sum(np.abs(q))
            lhs = renyi_entropy(rescaled, 2) - renyi_entropy(q, 2)
            assert lhs == pytest.approx(mana(q), abs=1e-10)


class TestAlphaMutualInformation:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_independent_is_zero(self, alpha):
        px = [0.3, 0.7]
        cond = [[0.2, 0.8], [0.2, 0.8]]
        assert alpha_mutual_information(px, cond, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_half_order(self):
        value = alpha_mutual_information([0.5, 0.5], np.eye(2), 0.5)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_shannon_order_matches_joint_oracle(self, rng):
        for _ in range(25):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            px = rng.dirichlet(np.ones(nx))
            cond = rng.dirichlet(np.ones(ny), size=nx)
            joint = px[:, None] * cond
            expected = oracle_mutual_information(joint)
            got = alpha_mutual_information(px, cond, 1.0)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_negative_conditional_rejected(self):
        with pytest.raises(errors.NegativeConditional):
            alpha_mutual_information([0.5, 0.5], [[1.2, -0.2], [0.0, 1.0]], 0.5)

    def test_negative_order_rejected(self):
        with pytest.raises(errors.InvalidAlpha):
            alpha_mutual_information([1.0], [[1.0]], -0.5)

    def test_collision_entropy_bounds_half_order_information(self, rng):
        # order-2 entropy of X dominates order-1/2 information with any Y
        for _ in range(30):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            px = rng.dirichlet(np.ones(nx))
            cond = rng.dirichlet(np.ones(ny), size=nx)
            h2 = renyi_entropy(px, 2)
            i_half = alpha_mutual_information(px, cond, 0.5)
            assert h2 >= i_half - 1e-10

    def test_perturbed_coin_states_to_futures(self):
        # conditioning the 12-step future on the state reproduces the closed form
        machine = perturbed_coin_epsilon(0.3)
        futures = machine.conditional_future_matrix(12)
        value = alpha_mutual_information(machine.stationary, futures, 0.5)
        assert value == pytest.approx(perturbed_coin_excess_half(0.3), abs=1e-9)


class TestExcessEntropyHalf:
    def test_iid_coin_is_zero(self):
        for horizon in (1, 3, 6):
            report = excess_entropy_half(unbiased_coin(), horizon)
            assert report.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", GRID)
    def test_perturbed_coin_closed_form(self, p):
        report = excess_entropy_half(perturbed_coin_epsilon(p), 12)
        assert report.value == pytest.approx(perturbed_coin_excess_half(p), abs=1e-3)
        # for this process the estimate is exact at any horizon
        assert report.value == pytest.approx(perturbed_coin_excess_half(p), abs=1e-12)

    def test_matches_enumeration_oracle(self):
        for machine in (golden_mean_epsilon(0.4), sns_g_machine(0.5), even_process_epsilon()):
            report = excess_entropy_half(machine, 4)
            assert report.value == pytest.approx(oracle_half_excess(machine, 4), abs=1e-10)

    def test_sns_epsilon_machine_approaches_closed_form(self):
        closed, _ = sns_excess_entropy_half(0.5)
        report = excess_entropy_half(sns_epsilon_truncated(0.5), 12)
        assert report.value == pytest.approx(closed, abs=1e-4)
        assert report.residual < 1e-6

    def test_quasi_machine_rejected(self):
        from quasihmm.nmachine import (
            build_split_machine,
            perturbed_coin_ideal_params,
            perturbed_coin_split_spec,
        )

        q1, q2 = perturbed_coin_ideal_params(0.3)
        built = build_split_machine(
            perturbed_coin_epsilon(0.3), perturbed_coin_split_spec(0.3), {"q1": q1, "q2": q2}
        )
        with pytest.raises(errors.QuasiMachineUnsupported):
            excess_entropy_half(built, 6)

    def test_signed_weights_variant_matches_quadratic_form(self):
        machine = golden_mean_epsilon(0.5)
        futures = machine.conditional_future_matrix(5)
        direct = half_excess_from_futures(machine.stationary, futures)
        assert direct == pytest.approx(excess_entropy_half(machine, 5).value, abs=1e-12)


class TestExcessEntropyShannon:
    def test_iid_coin_is_zero(self):
        assert excess_entropy_shannon(unbiased_coin(), 6).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_joint_oracle(self):
        machine = golden_mean_epsilon(0.5)
        report = excess_entropy_shannon(machine, 10)
        futures = machine.conditional_future_matrix(10)
        joint = np.asarray(machine.stationary)[:, None] * futures
        assert report.value == pytest.approx(oracle_mutual_information(joint), abs=1e-9)

    def test_perturbed_coin_between_zero_and_memory(self):
        report = excess_entropy_shannon(perturbed_coin_epsilon(0.3), 12)
        assert 0.0 < report.value <= 1.0

    def test_quasi_machine_rejected(self):
        from quasihmm.machine import make_machine

        t0 = [[1.2, -0.2], [0.0, 0.0]]
        t1 = [[0.0, 0.0], [0.5, 0.5]]
        quasi = make_machine(("0", "1"), ("a", "b"), [t0, t1])
        with pytest.raises(errors.QuasiMachineUnsupported):
            excess_entropy_shannon(quasi, 4)


class TestMeasureTable:
    def test_every_measure_is_defined_on_a_classical_machine(self):
        machine = golden_mean_epsilon(0.4)
        reports = defined_reports(machine, 6)
        assert reports == [measure(machine, 6) for measure in MEASURES.values()]
        assert [r.name for r in reports] == ["C_mu2", "C_mu1", "C_mu0", "C_q2", "C_q_vN",
                                             "E_half", "E", "negativity", "mana"]

    def test_c_q2_entry_reports_the_gram_complexity(self):
        machine = perturbed_coin_epsilon(0.3)
        gram = gram_from_machine(machine, 7)
        report = MEASURES["c-q2"](machine, 7)
        assert report.value == quantum_complexity(gram)
        assert (report.parameters, report.residual) == ({"horizon": 7}, gram.residual)

    @staticmethod
    def _failing(monkeypatch, error):
        def fail(m, horizon):
            raise error("synthetic failure")

        monkeypatch.setitem(MEASURES, "c-q2", fail)

    @pytest.mark.parametrize("refusal", [errors.QuasiMachineUnsupported,
                                         errors.NegativeEntriesUnsupportedOrder])
    def test_a_refusing_measure_is_left_out(self, monkeypatch, refusal):
        self._failing(monkeypatch, refusal)
        names = [r.name for r in defined_reports(unbiased_coin(), 3)]
        assert names == ["C_mu2", "C_mu1", "C_mu0", "C_q_vN", "E_half", "E", "negativity",
                         "mana"]

    @pytest.mark.parametrize("error", [errors.NonPSD, errors.ZeroEntryWithQuasiOrder,
                                       errors.UnsupportedError, ValueError])
    def test_any_other_error_propagates(self, monkeypatch, error):
        self._failing(monkeypatch, error)
        with pytest.raises(error, match="synthetic failure"):
            defined_reports(unbiased_coin(), 3)


class TestClosedForms:
    def test_perturbed_coin_endpoint(self):
        assert perturbed_coin_excess_half(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_coin_quarter(self):
        expected = 1 - 2 * math.log2(0.5 + math.sqrt(0.75))
        assert perturbed_coin_excess_half(0.25) == pytest.approx(expected, abs=1e-15)
        assert perturbed_coin_excess_half(0.25) == pytest.approx(0.10003137304700838, abs=1e-12)

    def test_sns_closed_form_cross_checked_by_horizon_estimate(self):
        value, _ = sns_excess_entropy_half(0.5)
        estimate = excess_entropy_half(sns_epsilon_truncated(0.5), 12).value
        assert value == pytest.approx(estimate, abs=1e-3)


class TestOrderingRelations:
    @pytest.mark.parametrize(
        "p", [round(0.05 * k, 2) for k in range(1, 20) if k != 10]
    )
    def test_perturbed_coin_inequality_chain(self, p):
        machine = perturbed_coin_epsilon(p)
        c_mu2 = renyi_entropy(machine.stationary, 2)
        c_q2 = quantum_complexity(gram_from_machine(machine, 12))
        e_half = perturbed_coin_excess_half(p)
        assert c_mu2 >= c_q2 - 1e-12
        assert c_q2 >= e_half - 1e-6

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_sns_inequality_chain(self, p):
        from quasihmm.processes import sns_renewal_data
        from quasihmm.quantum import sns_gram_ensemble

        data = sns_renewal_data(p)
        weights = data.stationary_weights()
        c_mu2 = renyi_entropy(weights / weights.sum(), 2)
        c_q2 = quantum_complexity(sns_gram_ensemble(data))
        e_half, _ = sns_excess_entropy_half(p)
        assert c_mu2 >= c_q2 - 1e-12
        assert c_q2 >= e_half - 1e-6

    def test_even_process_all_three_equal(self):
        machine = even_process_epsilon()
        c_mu2 = renyi_entropy(machine.stationary, 2)
        c_q2 = quantum_complexity(gram_from_machine(machine, 64))
        e_half = excess_entropy_half(machine, 64).value
        assert c_q2 == pytest.approx(c_mu2, abs=1e-6)
        assert e_half == pytest.approx(c_mu2, abs=1e-6)
