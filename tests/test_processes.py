import math
import sys

import numpy as np
import pytest

from conftest import (
    assert_stationary,
    oracle_word_probability,
    word_distribution_gap,
    word_probability,
)
from quasihmm import errors
from quasihmm.machine import same_process
from quasihmm.measures import perturbed_coin_excess_half
from quasihmm.nmachine import perturbed_coin_ideal_params
from quasihmm.processes import (
    MAX_SNS_STATES,
    even_process_epsilon,
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    perturbed_coin_rjmc,
    sns_default_truncation,
    sns_epsilon_truncated,
    sns_g_machine,
    sns_past_future_overlap,
    sns_renewal_data,
    sns_surviving,
    sns_waiting_time,
    unbiased_coin,
)
from quasihmm.quantum import sns_gram_ensemble, wigner_qubit_representation
from quasihmm.transforms import rjmc_domain_check, rjmc_parameters

GRID = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]


def test_every_factory_output_validates():
    machines = [
        unbiased_coin(),
        perturbed_coin_epsilon(0.3),
        perturbed_coin_rjmc(0.3),
        perturbed_coin_rjmc(0.7),
        golden_mean_epsilon(0.5),
        even_process_epsilon(),
        sns_g_machine(0.5),
        sns_epsilon_truncated(0.5),
    ]
    for machine in machines:
        assert_stationary(machine)


class TestPerturbedCoin:
    def test_stationary_and_complexity(self):
        m = perturbed_coin_epsilon(0.3)
        assert m.stationary == pytest.approx([0.5, 0.5], abs=0)
        assert -math.log2(np.sum(m.stationary**2)) == 1.0

    def test_degenerate_at_half(self):
        with pytest.raises(errors.DegenerateParameter):
            perturbed_coin_epsilon(0.5)

    def test_out_of_range(self):
        with pytest.raises(errors.DegenerateParameter):
            perturbed_coin_epsilon(1.2)

    #: the Perturbed Coin functions of the other modules, each with whether
    #: it refuses p = 1/2
    P_CHECKED = {
        "perturbed_coin_excess_half": (perturbed_coin_excess_half, False),
        "wigner_qubit_representation": (wigner_qubit_representation, False),
        "perturbed_coin_ideal_params": (perturbed_coin_ideal_params, True),
        "rjmc_parameters": (rjmc_parameters, True),
        "rjmc_domain_check": (lambda p: rjmc_domain_check(p, 0.0, 1.0), True),
    }

    @pytest.mark.parametrize("name,p", [
        (name, p) for name, (_, half) in P_CHECKED.items()
        for p in (0.0, 1.0, 1.5) + ((0.5,) if half else ())
    ])
    def test_p_is_checked_by_the_process_checks(self, name, p):
        with pytest.raises(errors.DegenerateParameter):
            self.P_CHECKED[name][0](p)

    def test_symbol_marginals_are_uniform(self):
        dist = perturbed_coin_epsilon(0.3).word_distribution(1)
        assert dist == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-15)

    def test_matrices_match_diagram(self):
        m = perturbed_coin_epsilon(0.3)
        assert np.allclose(m.stacked[0], [[0.7, 0.0], [0.3, 0.0]])
        assert np.allclose(m.stacked[1], [[0.0, 0.3], [0.0, 0.7]])


class TestRjmc:
    def test_stationary_above_half(self):
        # [1/(2p), (2p-1)/(2p)] at p = 0.75
        m = perturbed_coin_rjmc(0.75)
        assert m.stationary == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_stationary_below_half(self):
        # [(1-2p)/(2-2p), 1/(2-2p)] at p = 0.25
        m = perturbed_coin_rjmc(0.25)
        assert m.stationary == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    @pytest.mark.parametrize("p", GRID)
    def test_generates_the_same_process(self, p):
        assert same_process(perturbed_coin_epsilon(p), perturbed_coin_rjmc(p))

    @pytest.mark.parametrize("p", GRID)
    def test_collision_memory_closed_form(self, p):
        # independent closed form for the stationary collision entropy
        pi = perturbed_coin_rjmc(p).stationary
        if p < 0.5:
            expected = -math.log2(((1 - 2 * p) ** 2 + 1) / (2 - 2 * p) ** 2)
        else:
            expected = -math.log2((1 + (2 * p - 1) ** 2) / (4 * p * p))
        assert -math.log2(float(np.sum(pi**2))) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_at_half(self):
        with pytest.raises(errors.DegenerateParameter):
            perturbed_coin_rjmc(0.5)


class TestGoldenMean:
    def test_stationary(self):
        m = golden_mean_epsilon(0.5)
        assert m.stationary == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_no_double_ones(self, p):
        m = golden_mean_epsilon(p)
        assert word_probability(m, "11") == pytest.approx(0.0, abs=1e-15)
        assert oracle_word_probability(m, "11") == pytest.approx(0.0, abs=1e-15)

    def test_collision_complexity_at_half(self):
        # pi = [2/3, 1/3]: sum of squares 5/9
        m = golden_mean_epsilon(0.5)
        value = -math.log2(float(np.sum(m.stationary**2)))
        assert value == pytest.approx(-math.log2(5 / 9), abs=1e-12)
        assert value == pytest.approx(0.84799690655495, abs=1e-12)


class TestEvenProcess:
    def test_stationary(self):
        assert even_process_epsilon().stationary == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_single_symbol_marginal(self):
        # P(1) = 2/3 * 1/2 + 1/3 * 1 = 2/3, cross-checked by enumeration
        m = even_process_epsilon()
        assert word_probability(m, "1") == pytest.approx(2 / 3, abs=1e-12)
        assert oracle_word_probability(m, "1") == pytest.approx(2 / 3, abs=1e-12)
        assert sum(v for w, v in m.word_distribution(3).items() if w.startswith("1")) == (
            pytest.approx(2 / 3, abs=1e-12)
        )

    def test_one_blocks_have_even_length(self):
        # "010" bounds a length-1 block of 1s: forbidden
        # "0110" bounds a length-2 block: allowed, probability 1/12 by paths
        m = even_process_epsilon()
        for word, expected, tol in (("010", 0.0, 1e-15), ("0110", 1 / 12, 1e-12)):
            assert word_probability(m, word) == pytest.approx(expected, abs=tol)
            assert oracle_word_probability(m, word) == pytest.approx(expected, abs=tol)


class TestSnsRenewalData:
    def test_waiting_time_formula(self):
        # phi(n) = n p^(n-1) (1-p)^2, phi(0) = 0
        assert sns_waiting_time(0, 0.5) == 0.0
        assert sns_waiting_time(1, 0.5) == pytest.approx(0.25)
        assert sns_waiting_time(3, 0.5) == pytest.approx(3 * 0.25 * 0.25)

    def test_surviving_closed_form_matches_tail_sums(self):
        for p in (0.3, 0.5, 0.8):
            # brute-force tail of the waiting-time series
            ns = np.arange(0, 4000)
            phis = sns_waiting_time(ns, p)
            for n in (0, 1, 2, 5, 11):
                assert sns_surviving(n, p) == pytest.approx(phis[n:].sum(), abs=1e-12)

    def test_surviving_values_at_half(self):
        assert sns_surviving(1, 0.5) == pytest.approx(1.0)
        assert sns_surviving(2, 0.5) == pytest.approx(0.75)

    def test_surviving_nonincreasing(self):
        ns = np.arange(0, 60)
        vals = sns_surviving(ns, 0.6)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_mean_firing_rate_closed_form(self):
        # geometric-series oracle: sum Phi = 2/(1-p), so mu = (1-p)/2
        for p in (0.1, 0.25, 0.5, 0.9):
            data = sns_renewal_data(p)
            assert data.mean_firing_rate == pytest.approx((1 - p) / 2, abs=1e-12)

    def test_waiting_time_mass_splits_with_tail(self):
        for p in (0.3, 0.5, 0.7):
            data = sns_renewal_data(p)
            ns = np.arange(0, data.truncation + 1)
            total = sns_waiting_time(ns, p).sum() + sns_surviving(data.truncation + 1, p)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_waiting_time_mass_converges(self):
        total = sns_waiting_time(np.arange(1, 41), 0.5).sum()
        assert total >= 1 - 1e-9

    def test_small_p_fires_immediately(self):
        assert sns_waiting_time(1, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_default_truncation_bounds_tail(self):
        for p in (0.2, 0.5, 0.9):
            n = sns_default_truncation(p)
            assert sns_surviving(n + 1, p) < 1e-12
            assert sns_surviving(n, p) >= 1e-12


class TestSnsMachines:
    def test_g_machine_stationary_uniform(self):
        for p in (0.1, 0.5, 0.9):
            assert sns_g_machine(p).stationary == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_g_machine_symbol_marginals(self):
        dist = sns_g_machine(0.5).word_distribution(1)
        assert dist["0"] == pytest.approx(0.75, abs=1e-12)
        assert dist["1"] == pytest.approx(0.25, abs=1e-12)

    def test_truncated_epsilon_matches_g_machine_words(self):
        for p in (0.3, 0.5, 0.7):
            eps_machine = sns_epsilon_truncated(p)
            tail = sns_surviving(eps_machine.n_states, p)
            distance = word_distribution_gap(eps_machine, sns_g_machine(p), 6)
            assert distance <= max(10 * tail, 1e-13)

    def test_truncated_stationary_close_to_renewal_weights(self):
        p = 0.5
        machine = sns_epsilon_truncated(p)
        weights = sns_renewal_data(p, machine.n_states - 1).stationary_weights()
        weights = weights / weights.sum()
        assert np.max(np.abs(machine.stationary - weights)) < 1e-9

    def test_explicit_coarse_truncation_rejected(self):
        with pytest.raises(errors.TruncationTooCoarse):
            sns_epsilon_truncated(0.5, truncation=5)

    def test_unifilar_classification(self):
        cls = sns_epsilon_truncated(0.5).classify()
        assert cls.classical and cls.unifilar


class TestPastFutureOverlap:
    def test_matches_plain_double_loop(self):
        p = 0.5
        value, _ = sns_past_future_overlap(sns_renewal_data(p))
        mu = (1 - p) / 2
        cut = 200
        total = 0.0
        for m in range(cut + 1):
            inner = 0.0
            for n in range(cut + 1):
                inner += mu * math.sqrt(
                    float(sns_waiting_time(m + n, p)) * float(sns_surviving(n, p))
                )
            total += inner**2
        assert value == pytest.approx(total, abs=1e-10)

    def test_residual_reported_small_at_default_truncation(self):
        for p in (0.2, 0.5, 0.8):
            _, residual = sns_past_future_overlap(sns_renewal_data(p))
            assert residual < 1e-10


# --- reference paths: the series on 0-d numpy arrays, as first written ------

#: the fig9 grid and points spanning both sns-epsilon benchmark bands
SERIES_GRID = [round(0.05 * k, 2) for k in range(1, 20)] + [
    0.8998, 0.89995, 0.9001, 0.94994, 0.949975, 0.95001,
]


def _reference_default_truncation(p, eps=1e-12):
    n = max(2, int(math.log(eps) / math.log(p)) // 2)
    while sns_surviving(n + 1, p) >= eps:
        n += 1
    while n > 2 and sns_surviving(n, p) < eps:
        n -= 1
    return n


def _reference_firing_rate(p):
    total = 1.0
    k = 1
    while True:
        term = float(sns_surviving(k, p))
        total += term
        if term < total * 1e-18:
            break
        k += 1
    return 1.0 / total


def _reference_epsilon_matrices(p, n_max):
    size = n_max + 1
    idx = np.arange(size)
    phi = sns_waiting_time(idx, p)
    big_phi = sns_surviving(idx, p)
    t0 = np.zeros((size, size))
    t1 = np.zeros((size, size))
    for n in range(n_max):
        t0[n, n + 1] = sns_surviving(n + 1, p) / big_phi[n]
        t1[n, 0] = phi[n] / big_phi[n]
    t0[n_max, n_max] = sns_surviving(n_max + 1, p) / big_phi[n_max]
    t1[n_max, 0] = phi[n_max] / big_phi[n_max]
    return t0, t1


class TestSeriesMatchReference:
    @pytest.mark.parametrize("p", SERIES_GRID)
    def test_truncation_rate_and_tail(self, p):
        n = _reference_default_truncation(p)
        data = sns_renewal_data(p)
        assert sns_default_truncation(p) == n
        assert data.truncation == n
        np.testing.assert_array_max_ulp(data.mean_firing_rate, _reference_firing_rate(p), 2)
        np.testing.assert_array_max_ulp(data.tail_mass, float(sns_surviving(n + 1, p)), 2)

    @pytest.mark.parametrize("p", SERIES_GRID)
    def test_epsilon_matrices(self, p):
        machine = sns_epsilon_truncated(p)
        t0, t1 = _reference_epsilon_matrices(p, machine.n_states - 1)
        np.testing.assert_array_max_ulp(machine.stacked[0], t0, 2)
        np.testing.assert_array_max_ulp(machine.stacked[1], t1, 2)

    def test_firing_rate_closed_form_across_grid(self):
        for p in SERIES_GRID:
            assert sns_renewal_data(p).mean_firing_rate == pytest.approx((1 - p) / 2, rel=1e-12)

    @pytest.mark.parametrize("p", SERIES_GRID)
    def test_root_waiting_grid_matches_grid_evaluation(self, p):
        data = sns_renewal_data(p)
        idx = np.arange(data.truncation + 1)
        expected = np.sqrt(sns_waiting_time(idx[:, None] + idx[None, :], p))
        got = data.root_waiting_grid
        assert got.shape == expected.shape
        np.testing.assert_array_max_ulp(got, expected, 2)


# --- the grid's readers before it was one view of the renewal data ----------


def _gathered_root_waiting_grid(n_cut, p):
    idx = np.arange(n_cut + 1)
    root_phi = np.sqrt(sns_waiting_time(np.arange(2 * n_cut + 1), p))
    return root_phi[idx[:, None] + idx[None, :]]


def _gathered_past_future_overlap(data):
    p = data.p

    def overlap(n_cut):
        idx = np.arange(n_cut + 1)
        mu = data.mean_firing_rate
        root_phi = _gathered_root_waiting_grid(n_cut, p)
        root_sur = np.sqrt(sns_surviving(idx, p))
        inner = mu * (root_phi * root_sur[None, :]).sum(axis=1)
        return float(np.sum(inner**2))

    value = overlap(data.truncation)
    shallower = max(2, data.truncation - max(2, data.truncation // 10))
    residual = abs(value - overlap(shallower))
    return value, residual


def _gathered_gram_ensemble(data):
    """(overlaps, weights, residual) of the SNS Gram ensemble."""
    p, n_cut = data.p, data.truncation
    idx = np.arange(n_cut + 1)
    root_phi = _gathered_root_waiting_grid(n_cut, p)
    numer = root_phi @ root_phi.T
    root_sur = np.sqrt(sns_surviving(idx, p))
    overlaps = numer / np.outer(root_sur, root_sur)
    np.fill_diagonal(overlaps, overlaps.diagonal().clip(max=1.0))

    weights = data.stationary_weights()
    weights = weights / weights.sum()
    residual = float(np.max(np.abs(numer.diagonal() / root_sur**2 - 1.0)))
    return overlaps, weights, residual


GRID_CASES = [(p, None) for p in SERIES_GRID] + [(0.99, None), (0.5, 120)]


class TestOneRootWaitingGrid:
    """The overlap, its residual and the Gram ensemble read one strided grid
    of the renewal data and keep the bits of one gathered grid per read."""

    @pytest.mark.parametrize("p, truncation", GRID_CASES)
    def test_readers_keep_their_bits(self, p, truncation):
        data = sns_renewal_data(p, truncation)
        expected = _gathered_root_waiting_grid(data.truncation, p)
        assert np.ascontiguousarray(data.root_waiting_grid).tobytes() == expected.tobytes()

        value, residual = sns_past_future_overlap(data)
        want_value, want_residual = _gathered_past_future_overlap(data)
        assert (value.hex(), residual.hex()) == (want_value.hex(), want_residual.hex())

        gram = sns_gram_ensemble(data)
        overlaps, weights, gram_residual = _gathered_gram_ensemble(data)
        assert gram.overlaps.tobytes() == overlaps.tobytes()
        assert gram.weights.tobytes() == weights.tobytes()
        assert gram.residual.hex() == gram_residual.hex()

    def test_grid_is_one_read_only_view(self):
        data = sns_renewal_data(0.5)
        grid = data.root_waiting_grid
        assert grid is data.root_waiting_grid
        assert not grid.flags.writeable
        # row m + 1 starts one float after row m: 2N + 1 floats, not (N + 1)^2
        assert grid.strides == (grid.itemsize, grid.itemsize)


class TestStateCap:
    def test_explicit_truncation_at_and_beyond_cap(self):
        assert sns_renewal_data(0.5, truncation=MAX_SNS_STATES - 1).truncation == 4095
        with pytest.raises(errors.TruncationTooLarge):
            sns_renewal_data(0.5, truncation=MAX_SNS_STATES)
        with pytest.raises(errors.TruncationTooLarge):
            sns_epsilon_truncated(0.5, truncation=200000)

    def test_default_truncation_beyond_cap(self):
        assert sns_renewal_data(0.99).truncation == 3094
        for p in (0.995, 0.99999):
            with pytest.raises(errors.TruncationTooLarge):
                sns_renewal_data(p)
            with pytest.raises(errors.TruncationTooLarge):
                sns_epsilon_truncated(p)
            with pytest.raises(errors.TruncationTooLarge):
                sns_past_future_overlap(sns_renewal_data(p))

    def test_cap_boundary_agrees_with_uncapped_walk(self):
        # bisect p to the last default truncation inside the cap
        lo, hi = 0.99, 0.995
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if sns_default_truncation(mid) + 1 <= MAX_SNS_STATES:
                lo = mid
            else:
                hi = mid
        assert sns_default_truncation(lo) + 1 <= MAX_SNS_STATES < sns_default_truncation(hi) + 1
        assert sns_renewal_data(lo).truncation == sns_default_truncation(lo)
        with pytest.raises(errors.TruncationTooLarge):
            sns_renewal_data(hi)

    def test_too_coarse_and_too_large_are_distinct(self):
        with pytest.raises(errors.TruncationTooCoarse):
            sns_renewal_data(0.5, truncation=1)
        with pytest.raises(errors.TruncationTooLarge):
            sns_renewal_data(0.5, truncation=10**9)

    def test_underflowing_survival_is_refused(self):
        # at p = 0.01, Phi(162) is the last nonzero survival value: the
        # predictive model, whose rows divide by Phi(n), is refused exactly
        # where Phi(N) underflows to 0; the renewal data never divide by it
        p = 0.01
        assert sns_surviving(162, p) > 0.0 == sns_surviving(163, p)
        for n in (163, 400):
            assert sns_renewal_data(p, truncation=n).truncation == n
            with pytest.raises(errors.TruncationTooLarge, match="underflows"):
                sns_epsilon_truncated(p, truncation=n)
        # below 158 the subnormal Phi(N) still leaves rows summing to 1
        assert sns_epsilon_truncated(p, truncation=157).n_states == 158
        with pytest.raises(errors.TruncationTooLarge, match="subnormal"):
            sns_epsilon_truncated(p, truncation=162)

    @pytest.mark.parametrize("n", [156, 157])
    def test_subnormal_survival_with_stochastic_rows_builds(self, n):
        # Phi(N) is subnormal here too, so no test of Phi alone can tell
        # these from 158-162: the refusal must come from the failed build
        p = 0.01
        assert 0.0 < sns_surviving(n, p) < sys.float_info.min
        assert sns_epsilon_truncated(p, truncation=n).n_states == n + 1

    @pytest.mark.parametrize("n", [158, 159, 160, 161, 162])
    def test_imprecise_subnormal_rows_name_the_truncation(self, n):
        p = 0.01
        with pytest.raises(errors.TruncationTooLarge) as info:
            sns_epsilon_truncated(p, truncation=n)
        message = str(info.value)
        assert f"truncation {n}" in message and "p = 0.01" in message
        assert f"Phi({n}) = " in message and "subnormal" in message
        assert isinstance(info.value.__cause__, errors.MachineFormatError)
