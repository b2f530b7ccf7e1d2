import itertools
import math
import re

import numpy as np
import pytest

from conftest import enumerated_word_gap, spearman
from quasihmm import errors
from quasihmm import nmachine as nm
from quasihmm.machine import Machine, make_machine, same_process
from quasihmm.measures import (
    excess_entropy_half,
    half_excess_from_futures,
    perturbed_coin_excess_half,
    renyi_entropy,
    sns_excess_entropy_half,
)
from quasihmm.nmachine import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    Affine,
    OptimizeOptions,
    SplitSpec,
    assess_split_machine,
    build_split_machine,
    generic_split_spec,
    golden_mean_bad_split_spec,
    optimize_ideal,
    perturbed_coin_ideal_params,
    perturbed_coin_split_spec,
    sns_ideal_params,
    sns_split_spec,
    verify_nmachine_properties,
)
from quasihmm.processes import (
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    sns_epsilon_truncated,
    sns_g_machine,
    sns_renewal_data,
)

GRID = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]


def pc_ideal_machine(p, branch=BRANCH_PLUS):
    source = perturbed_coin_epsilon(p)
    q1, q2 = perturbed_coin_ideal_params(p, branch)
    built = build_split_machine(source, perturbed_coin_split_spec(p), {"q1": q1, "q2": q2})
    return source, built, (q1, q2)


def sns_ideal_machine(p, branch=BRANCH_PLUS):
    source = sns_g_machine(p)
    gamma, eta = sns_ideal_params(p, branch=branch)
    built = build_split_machine(source, sns_split_spec(p), {"gamma": gamma, "eta": eta})
    return source, built, (gamma, eta)


def golden_mean_bad(p, q):
    """The no-advantage Golden Mean split at parameter q, assessed against the
    source's E_half at horizon 12 and its C_mu2."""
    source = golden_mean_epsilon(p)
    built = build_split_machine(source, golden_mean_bad_split_spec(p), {"q": q})
    e_half = excess_entropy_half(source, 12).value
    return assess_split_machine(built, {"q": q}, e_half, renyi_entropy(source.stationary, 2))


@pytest.fixture(scope="module")
def golden_mean_split():
    source = golden_mean_epsilon(0.4)
    e_half = excess_entropy_half(source, 12).value
    spec = generic_split_spec(source, (2, 1))
    return source, optimize_ideal(source, spec, e_half, OptimizeOptions(seed=1))


class TestAffine:
    def test_constant(self):
        assert Affine(0.25).evaluate({}) == 0.25

    def test_linear_terms(self):
        expr = Affine(1.0, {"a": 2.0, "b": -1.0})
        assert expr.evaluate({"a": 0.5, "b": 3.0}) == pytest.approx(-1.0)


class TestBuildSplitMachine:
    def test_trivial_split_reproduces_source(self):
        source = perturbed_coin_epsilon(0.3)
        built = build_split_machine(source, generic_split_spec(source, (1, 1)), {})
        assert np.allclose(built.stacked, source.stacked, atol=0)
        assert built.stationary == pytest.approx(source.stationary, abs=1e-12)
        assert built.groups == (0, 1)

    def test_perturbed_coin_stationary_closed_form(self):
        # hand-solved fixed point of the split chain:
        # [ (q2-q1)/(2(p-2q1)), (p-q2-q1)/(2(p-2q1)), 1/2 ]
        p, q1, q2 = 0.3, 0.05, 0.2
        source = perturbed_coin_epsilon(p)
        built = build_split_machine(source, perturbed_coin_split_spec(p), {"q1": q1, "q2": q2})
        expected = [
            (q2 - q1) / (2 * (p - 2 * q1)),
            (p - q2 - q1) / (2 * (p - 2 * q1)),
            0.5,
        ]
        assert built.stationary == pytest.approx(expected, abs=1e-12)

    def test_perturbed_coin_matrices_match_diagram(self):
        p, q1, q2 = 0.3, 0.05, 0.2
        built = build_split_machine(
            perturbed_coin_epsilon(p), perturbed_coin_split_spec(p), {"q1": q1, "q2": q2}
        )
        t0 = np.array(
            [[1 - p + q1, -q1, 0.0], [-q1, 1 - p + q1, 0.0], [q2, p - q2, 0.0]]
        )
        t1 = np.array([[0.0, 0.0, p], [0.0, 0.0, p], [0.0, 0.0, 1 - p]])
        assert np.allclose(built.stacked[0], t0, atol=1e-15)
        assert np.allclose(built.stacked[1], t1, atol=1e-15)

    def test_sns_stationary_closed_form(self):
        # hand-solved: 0.5 * [ (g-e)/(2g+p-1), (p+g+e-1)/(2g+p-1), 1 ]
        p, gamma, eta = 0.5, 0.1, -0.2
        built = build_split_machine(
            sns_g_machine(p), sns_split_spec(p), {"gamma": gamma, "eta": eta}
        )
        denom = 2 * gamma + p - 1
        expected = [
            0.5 * (gamma - eta) / denom,
            0.5 * (p + gamma + eta - 1) / denom,
            0.5,
        ]
        assert built.stationary == pytest.approx(expected, abs=1e-12)

    def test_missing_parameters_rejected(self):
        p = 0.3
        with pytest.raises(errors.SpecMismatch):
            build_split_machine(
                perturbed_coin_epsilon(p), perturbed_coin_split_spec(p), {"q1": 0.0}
            )

    def test_wrong_state_count_rejected(self):
        spec = SplitSpec(copy_counts=(2,))
        with pytest.raises(errors.SpecMismatch):
            build_split_machine(perturbed_coin_epsilon(0.3), spec, {})

    def test_degenerate_parameter_point(self):
        # q1 = p/2 splits the chain into two invariant components
        p = 0.3
        with pytest.raises(errors.DegenerateFixedSpace):
            build_split_machine(
                perturbed_coin_epsilon(p),
                perturbed_coin_split_spec(p),
                {"q1": p / 2, "q2": 0.1},
            )

    def test_labels_carry_copy_structure(self):
        _, built, _ = pc_ideal_machine(0.3)
        assert built.states == ("s0.0", "s0.1", "s1")
        assert built.groups == (0, 0, 1)


class TestVerifyProperties:
    @pytest.mark.parametrize("p", [0.2, 0.3, 0.7])
    @pytest.mark.parametrize("branch", [BRANCH_PLUS, BRANCH_MINUS])
    def test_perturbed_coin_identities(self, p, branch):
        source, built, _ = pc_ideal_machine(p, branch)
        report = verify_nmachine_properties(source, built)
        assert report.worst() <= 1e-9

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_sns_identities(self, p):
        source, built, _ = sns_ideal_machine(p)
        report = verify_nmachine_properties(source, built)
        assert report.worst() <= 1e-9

    def test_golden_mean_identities(self):
        source = golden_mean_epsilon(0.5)
        built = build_split_machine(source, golden_mean_bad_split_spec(0.5), {"q": -0.2})
        report = verify_nmachine_properties(source, built)
        assert report.worst() <= 1e-9

    def test_trivial_split_passes(self):
        source = perturbed_coin_epsilon(0.3)
        built = build_split_machine(source, generic_split_spec(source, (1, 1)), {})
        assert verify_nmachine_properties(source, built).passed()

    def test_corrupted_shares_violate(self):
        # move mass between split copies without keeping the share sum fixed
        source, built, _ = pc_ideal_machine(0.3)
        t0 = np.array(built.stacked[0])
        t0[2, 0] += 0.05
        broken = Machine(
            alphabet=built.alphabet,
            states=built.states,
            stacked=np.stack([t0, np.array(built.stacked[1]) - 0.0]),
            stationary=np.array(built.stationary),
            groups=built.groups,
        )
        with pytest.raises(errors.PropertyViolated):
            verify_nmachine_properties(source, broken)

    def test_stale_stationary_vector_violates(self):
        # move 0.05 of the s1 -> s0 share from copy s0.0 to s0.1: every row,
        # symbol and coarse-grained sum holds, but the old stationary vector
        # is no longer a fixed point (residual 0.05 * pi[s1] = 0.025)
        source, built, _ = pc_ideal_machine(0.3)
        t0 = np.array(built.stacked[0])
        t0[2, 0] -= 0.05
        t0[2, 1] += 0.05
        stale = Machine(
            alphabet=built.alphabet, states=built.states,
            stacked=np.stack([t0, built.stacked[1]]),
            stationary=np.array(built.stationary), groups=built.groups,
        )
        with pytest.raises(errors.PropertyViolated) as info:
            verify_nmachine_properties(source, stale)
        report = info.value.report
        assert report.stationary_fixed == pytest.approx(0.025, abs=1e-12)
        assert report.worst() == report.stationary_fixed
        assert "fixed=2.500e-02" in str(report)

    def test_generic_golden_mean_split_ignores_off_support_noise(self, golden_mean_split):
        # the optimized shares leave rounding noise of either sign on words a
        # source state forbids; its square root once made the half-order
        # gap about 3e-9
        source, result = golden_mean_split
        report = verify_nmachine_properties(source, result.machine)
        assert report.half_excess_gap <= 1e-14

    def test_corrupted_generic_split_violates(self, golden_mean_split):
        # send part of the "1" edge of a copy of s0 back to s0: row and
        # symbol sums hold, but the copy can now emit "11"
        source, result = golden_mean_split
        built = result.machine
        t1 = np.array(built.stacked[1])
        t1[0, 2] -= 0.01
        t1[0, 0] += 0.01
        broken = Machine(
            alphabet=built.alphabet, states=built.states,
            stacked=np.stack([built.stacked[0], t1]),
            stationary=np.array(built.stationary), groups=built.groups,
        )
        with pytest.raises(errors.PropertyViolated):
            verify_nmachine_properties(source, broken)

    def test_report_is_attached_to_error(self):
        source, built, _ = pc_ideal_machine(0.3)
        t1 = np.array(built.stacked[1])
        t1[0, 2] += 0.02
        broken = Machine(
            alphabet=built.alphabet, states=built.states,
            stacked=np.stack([built.stacked[0], t1]),
            stationary=np.array(built.stationary), groups=built.groups,
        )
        with pytest.raises(errors.PropertyViolated) as info:
            verify_nmachine_properties(source, broken)
        assert info.value.report.worst() > 1e-9

    def test_missing_groups_rejected(self):
        source = perturbed_coin_epsilon(0.3)
        with pytest.raises(errors.SpecMismatch):
            verify_nmachine_properties(source, source)


def reference_half_gap(source, built, horizon):
    """The half-order residual of ``verify_nmachine_properties`` as it was
    first computed, from one enumeration per machine at the horizon."""
    groups = np.asarray(built.groups)
    fut_built = built.conditional_future_matrix(horizon)
    fut_src = source.conditional_future_matrix(horizon)
    on_support = np.where(fut_src[groups] > 0, fut_built, 0.0)
    return abs(half_excess_from_futures(built.stationary, on_support)
               - half_excess_from_futures(source.stationary, fut_src))


def enumerated_word_residuals(source, built):
    """The word-conditional and word-distribution residuals over the words
    up to length n_built + n_source - 1, where agreement decides equality."""
    copies = np.hstack([np.eye(built.n_states), -np.eye(source.n_states)[list(built.groups)]])
    bound = built.n_states + source.n_states - 1
    dist = np.concatenate([built.stationary, -source.stationary])
    return (enumerated_word_gap(built, source, copies, bound),
            enumerated_word_gap(built, source, dist, bound))


def _split_cases():
    """(source, built) pairs: the closed-form splits on both branches and
    generic splits at seeded points."""
    cases = [pc_ideal_machine(p, branch)[:2]
             for p in (0.2, 0.7) for branch in (BRANCH_PLUS, BRANCH_MINUS)]
    cases += [sns_ideal_machine(p)[:2] for p in (0.3, 0.5)]
    cases.append(sns_ideal_machine(0.7, BRANCH_MINUS)[:2])
    source = golden_mean_epsilon(0.5)
    for q in (-0.2, 0.3):
        try:
            cases.append((source, build_split_machine(
                source, golden_mean_bad_split_spec(0.5), {"q": q})))
        except errors.DegenerateFixedSpace:
            pass
    rng = np.random.default_rng(5)
    for source in (perturbed_coin_epsilon(0.3), golden_mean_epsilon(0.4)):
        for counts in ((2, 1), (2, 2)):
            spec = generic_split_spec(source, counts)
            for _ in range(3):
                try:
                    cases.append((source, build_split_machine(
                        source, spec, _random_params(spec, rng, 0.5))))
                except errors.DegenerateFixedSpace:
                    pass
    return cases


class TestVerifyMatchesReference:
    def test_residuals_bit_identical(self):
        cases = _split_cases()
        assert len(cases) >= 18
        for source, built in cases:
            report = verify_nmachine_properties(source, built)
            expected = reference_half_gap(source, built, nm.VERIFY_HORIZON)
            assert report.half_excess_gap.hex() == expected.hex()
            assert report.words <= 1e-12
            assert max(enumerated_word_residuals(source, built)) <= 1e-12

    def test_one_enumeration_per_machine_and_length(self, monkeypatch):
        source, built, _ = sns_ideal_machine(0.5)
        lengths = []
        enumerate_words = Machine.conditional_future_matrix

        def recording(machine, length, *args, **kwargs):
            lengths.append((machine is built, length))
            return enumerate_words(machine, length, *args, **kwargs)

        monkeypatch.setattr(Machine, "conditional_future_matrix", recording)
        verify_nmachine_properties(source, built)
        assert sorted(lengths) == [(False, nm.VERIFY_HORIZON), (True, nm.VERIFY_HORIZON)]

    def test_horizon_beyond_the_cap_is_refused_before_enumeration(self, monkeypatch):
        # 6^8 words of a fair die exceed the cap of 2^20
        die = make_machine([str(x) for x in range(6)], ["s"], np.full((6, 1, 1), 1 / 6))
        spec = generic_split_spec(die, (2,))
        built = build_split_machine(die, spec, dict.fromkeys(spec.param_names, 0.0))
        calls = []
        monkeypatch.setattr(Machine, "conditional_future_matrix",
                            lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(nm, "equivalence_residual",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(errors.EnumerationCapExceeded):
            verify_nmachine_properties(die, built)
        assert calls == []


class TestAssessUsesMeasures:
    def test_negativity_and_mana_bits_unchanged(self):
        cases = _split_cases()
        signs = set()
        for _, built in cases:
            pi = np.asarray(built.stationary)
            signs.add(bool(np.min(pi) < 0))
            ell1 = float(np.sum(np.abs(pi)))
            result = assess_split_machine(built, {}, 0.5, 1.0)
            assert result.negativity.hex() == ell1.hex()
            assert result.mana.hex() == (2.0 * float(np.log2(ell1))).hex()
        assert signs == {True, False}

    def test_perturbed_coin_advantage(self):
        # the ideal split saturates C_n2 = E_half, and C_mu2 = 1
        p = 0.3
        source, built, (q1, q2) = pc_ideal_machine(p)
        e_half = perturbed_coin_excess_half(p)
        c_mu2 = renyi_entropy(source.stationary, 2)
        assert c_mu2 == pytest.approx(1.0, abs=1e-12)
        result = assess_split_machine(built, {"q1": q1, "q2": q2}, e_half, c_mu2)
        assert result.advantage == pytest.approx(1.0 - e_half, abs=1e-12)
        # no advantage over a baseline equal to the split's own memory
        assert assess_split_machine(built, {}, e_half, result.c_n2).advantage == 0.0

    def test_point_refused_by_the_measures_is_still_scored(self):
        # bisect between two seeded points of a (3, 1) split for one where a
        # copy's weight vanishes and another copy's is negative
        source = perturbed_coin_epsilon(0.3)
        spec = generic_split_spec(source, (3, 1))
        rng = np.random.default_rng(0)
        points = [rng.uniform(-1, 1, len(spec.param_names)) for _ in range(16)]
        lo, hi = points[2], points[15]

        def build(t):
            vec = lo + t * (hi - lo)
            return build_split_machine(source, spec, dict(zip(spec.param_names, vec)))

        a, b = 0.0, 1.0
        assert build(a).stationary[1] < 0 < build(b).stationary[1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            a, b = (mid, b) if build(mid).stationary[1] < 0 else (a, mid)
        built = build(a)
        pi = np.asarray(built.stationary)
        assert abs(pi[1]) <= 1e-9 and pi[0] < -0.1
        with pytest.raises(errors.ZeroEntryWithQuasiOrder):
            renyi_entropy(pi, 2)
        result = assess_split_machine(built, {}, 0.5, 0.0)
        assert result.c_n2 == -float(np.log2(np.sum(pi * pi)))
        assert math.isnan(result.advantage)


class TestPerturbedCoinIdealParams:
    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("branch", [BRANCH_PLUS, BRANCH_MINUS])
    def test_saturation(self, p, branch):
        _, built, params = pc_ideal_machine(p, branch)
        e_half = perturbed_coin_excess_half(p)
        c_n2 = renyi_entropy(built.stationary, 2)
        assert abs(c_n2 - e_half) <= 1e-8

    def test_branches_swap_split_weights(self):
        _, plus, _ = pc_ideal_machine(0.3, BRANCH_PLUS)
        _, minus, _ = pc_ideal_machine(0.3, BRANCH_MINUS)
        assert plus.stationary[0] == pytest.approx(minus.stationary[1], abs=1e-12)
        assert plus.stationary[1] == pytest.approx(minus.stationary[0], abs=1e-12)

    @pytest.mark.parametrize("p", GRID)
    def test_negativity_above_one(self, p):
        _, built, _ = pc_ideal_machine(p)
        assert np.sum(np.abs(built.stationary)) > 1.0 + 1e-6

    def test_q1_is_zero(self):
        q1, _ = perturbed_coin_ideal_params(0.3)
        assert q1 == 0.0

    def test_degenerate_at_half(self):
        with pytest.raises(errors.DegenerateParameter):
            perturbed_coin_ideal_params(0.5)

    def test_generates_source_process(self):
        source, built, _ = pc_ideal_machine(0.3)
        assert same_process(source, built)


class TestSnsIdealParams:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("branch", [BRANCH_PLUS, BRANCH_MINUS])
    def test_saturation_against_series_value(self, p, branch):
        _, built, _ = sns_ideal_machine(p, branch)
        e_half, _ = sns_excess_entropy_half(p)
        c_n2 = renyi_entropy(built.stationary, 2)
        assert abs(c_n2 - e_half) <= 1e-5

    def test_coarse_graining_halves(self):
        _, built, _ = sns_ideal_machine(0.5)
        assert built.stationary[0] + built.stationary[1] == pytest.approx(0.5, abs=1e-12)
        assert built.stationary[2] == pytest.approx(0.5, abs=1e-12)

    def test_branches_agree_on_memory(self):
        _, plus, _ = sns_ideal_machine(0.5, BRANCH_PLUS)
        _, minus, _ = sns_ideal_machine(0.5, BRANCH_MINUS)
        h_plus = renyi_entropy(plus.stationary, 2)
        h_minus = renyi_entropy(minus.stationary, 2)
        assert h_plus == pytest.approx(h_minus, abs=1e-12)

    def test_gamma_is_zero(self):
        gamma, _ = sns_ideal_params(0.5)
        assert gamma == 0.0

    def test_negative_radicand_reported(self, monkeypatch):
        import quasihmm.nmachine as nm

        monkeypatch.setattr(nm, "sns_past_future_overlap", lambda data: (0.3, 0.0))
        with pytest.raises(errors.NegativeRadicand):
            sns_ideal_params(0.5)

    def test_coarse_truncation_rejected(self):
        with pytest.raises(errors.TruncationTooCoarse):
            sns_ideal_params(0.5, truncation=4)


class TestGoldenMeanBad:
    def test_stationary_independent_of_parameter(self):
        a = golden_mean_bad(0.5, -0.2)
        b = golden_mean_bad(0.5, 0.2)
        assert a.machine.stationary == pytest.approx(b.machine.stationary, abs=1e-12)

    def test_stationary_closed_form(self):
        p = 0.5
        result = golden_mean_bad(p, -0.3)
        scale = (1 - p) / (2 - p)
        expected = [scale / (2 - 2 * p), scale / (2 - 2 * p), scale]
        assert result.machine.stationary == pytest.approx(expected, abs=1e-12)

    def test_no_memory_advantage(self):
        result = golden_mean_bad(0.5, -0.2)
        assert result.c_n2 > result.c_mu2
        assert not result.saturated

    @pytest.mark.parametrize("q", [-0.4, -0.2, 0.3])
    def test_generates_source_process(self, q):
        result = golden_mean_bad(0.5, q)
        assert same_process(result.machine, golden_mean_epsilon(0.5))

    def test_negative_parameter_injects_negativity(self):
        result = golden_mean_bad(0.5, 0.2)
        # q > 0 puts -q < 0 on the cross edges
        assert not result.machine.classify().classical


class TestUnsaturationGuard:
    @pytest.mark.parametrize("p", GRID)
    def test_perturbed_coin_overshoot_flagged(self, p):
        source = perturbed_coin_epsilon(p)
        q1, q2 = perturbed_coin_ideal_params(p, BRANCH_PLUS)
        built = build_split_machine(
            source, perturbed_coin_split_spec(p), {"q1": q1, "q2": q2 + 0.1}
        )
        e_half = perturbed_coin_excess_half(p)
        result = assess_split_machine(built, {"q1": q1, "q2": q2 + 0.1}, e_half, 1.0)
        assert result.c_n2 < e_half
        assert result.bound_violated
        assert not result.saturated

    def test_sns_overshoot_flagged(self):
        p = 0.5
        gamma, eta = sns_ideal_params(p, branch=BRANCH_PLUS)
        built = build_split_machine(
            sns_g_machine(p), sns_split_spec(p), {"gamma": gamma, "eta": eta + 0.1}
        )
        e_half, _ = sns_excess_entropy_half(p)
        weights = sns_renewal_data(p).stationary_weights()
        c_mu2 = renyi_entropy(weights / weights.sum(), 2)
        result = assess_split_machine(built, {}, e_half, c_mu2)
        assert result.c_n2 < e_half
        assert result.bound_violated


class TestNegativityAdvantageComonotonicity:
    def _pc_curves(self, grid):
        negs, advs = [], []
        for p in grid:
            _, built, _ = pc_ideal_machine(p)
            e_half = perturbed_coin_excess_half(p)
            result = assess_split_machine(built, {}, e_half, 1.0)
            negs.append(result.negativity - 1.0)
            advs.append(result.advantage)
        return negs, advs

    def _sns_curves(self, grid):
        negs, advs = [], []
        for p in grid:
            _, built, _ = sns_ideal_machine(p)
            e_half, _ = sns_excess_entropy_half(p)
            weights = sns_renewal_data(p).stationary_weights()
            c_mu2 = renyi_entropy(weights / weights.sum(), 2)
            result = assess_split_machine(built, {}, e_half, c_mu2)
            negs.append(result.negativity - 1.0)
            advs.append(result.advantage)
        return negs, advs

    def test_perturbed_coin_half_grids(self):
        low = [0.05 * k for k in range(1, 10)]
        high = [0.05 * k for k in range(11, 20)]
        for grid in (low, high):
            negs, advs = self._pc_curves(grid)
            assert spearman(negs, advs) >= 0.99

    def test_sns_half_grids(self):
        low = [0.05 * k for k in range(1, 10)]
        high = [0.05 * k for k in range(11, 20)]
        for grid in (low, high):
            negs, advs = self._sns_curves(grid)
            assert spearman(negs, advs) >= 0.99

    def test_mana_tracks_advantage_the_same_way(self):
        # the logarithmic negativity measure ranks identically
        for grid in ([0.05 * k for k in range(1, 10)], [0.05 * k for k in range(11, 20)]):
            negs, advs = self._pc_curves(grid)
            manas = [2 * math.log2(1.0 + n) for n in negs]
            assert spearman(manas, advs) >= 0.99


class TestOptimizeIdeal:
    def test_perturbed_coin_two_parameter_spec(self):
        p = 0.3
        source = perturbed_coin_epsilon(p)
        e_half = perturbed_coin_excess_half(p)
        result = optimize_ideal(source, perturbed_coin_split_spec(p), e_half)
        assert abs(result.c_n2 - e_half) <= 1e-6
        assert result.saturated

    def test_trivial_spec_returns_source_memory(self):
        source = perturbed_coin_epsilon(0.3)
        result = optimize_ideal(
            source, generic_split_spec(source, (1, 1)), perturbed_coin_excess_half(0.3)
        )
        assert result.c_n2 == pytest.approx(1.0, abs=1e-12)
        assert not result.saturated

    def test_golden_mean_bad_spec_stays_above_bound(self):
        source = golden_mean_epsilon(0.5)
        e_half = excess_entropy_half(source, 12).value
        result = optimize_ideal(source, golden_mean_bad_split_spec(0.5), e_half)
        assert result.c_n2 == pytest.approx(math.log2(3), abs=1e-9)
        assert not result.saturated

    def test_generic_golden_mean_split_reaches_bound(self):
        source = golden_mean_epsilon(0.5)
        e_half = excess_entropy_half(source, 12).value
        spec = generic_split_spec(source, (2, 1))
        result = optimize_ideal(source, spec, e_half)
        assert result.saturated
        assert result.c_n2 < renyi_entropy(source.stationary, 2)

    def test_deterministic_given_seed(self):
        source = golden_mean_epsilon(0.5)
        e_half = excess_entropy_half(source, 12).value
        spec = golden_mean_bad_split_spec(0.5)
        a = optimize_ideal(source, spec, e_half, OptimizeOptions(seed=5))
        b = optimize_ideal(source, spec, e_half, OptimizeOptions(seed=5))
        assert a.parameters == b.parameters

    def test_unreachable_bound_raises(self):
        source = perturbed_coin_epsilon(0.3)
        with pytest.raises(errors.NoFeasiblePoint):
            optimize_ideal(source, perturbed_coin_split_spec(0.3), 10.0)

    def test_parameter_cap(self, monkeypatch):
        source = golden_mean_epsilon(0.5)
        spec = generic_split_spec(source, (2, 1))
        monkeypatch.setattr(nm, "MAX_PARAMS", 2)
        with pytest.raises(ValueError):
            optimize_ideal(source, spec, 0.2)


# --- reference paths for the compiled split and the memoised search -------------


def reference_shares(spec, j, l_j, symbol, k, total, params):
    """Shares of one source transition among the target's copies, one
    ``Affine.evaluate`` per head, the last share taking the remainder."""
    count = spec.copy_counts[k]
    rule = spec.rules.get((j, l_j, symbol, k))
    if rule is None:
        return [total] + [0.0] * (count - 1)
    head = [expr.evaluate(params) for expr in rule]
    return head + [total - sum(head)]


def reference_build(source, spec, params):
    """The split machine assembled share by share."""
    extended = spec.extended_states()
    index = {pair: i for i, pair in enumerate(extended)}
    matrices = []
    for x, src in zip(source.alphabet, source.stacked):
        mat = np.zeros((len(extended), len(extended)))
        for row, (j, l_j) in enumerate(extended):
            for k in range(source.n_states):
                shares = reference_shares(spec, j, l_j, x, k, float(src[j, k]), params)
                for l_k, value in enumerate(shares):
                    mat[row, index[(k, l_k)]] = value
        matrices.append(mat)
    labels = tuple(
        f"{source.states[k]}.{l}" if spec.copy_counts[k] > 1 else source.states[k]
        for k, l in extended
    )
    return make_machine(source.alphabet, labels, matrices, groups=[k for k, _ in extended])


def reference_optimize(source, spec, e_half, opts):
    """``optimize_ideal``'s search evaluating every trial point afresh.

    Returns (parameters, c_n2, trials)."""
    names = spec.param_names
    threshold = nm.SAT_TOL * max(1.0, abs(e_half))

    def entropy_at(vec):
        try:
            pi = build_split_machine(source, spec, dict(zip(names, vec))).stationary
            return -float(np.log2(np.sum(pi * pi)))
        except (errors.DegenerateFixedSpace, errors.NoUnitEigenvalue,
                errors.ZeroEntryWithQuasiOrder):
            return None

    def objective(vec):
        h2 = entropy_at(vec)
        if h2 is None or not np.isfinite(h2):
            return float("inf")
        return h2 if h2 >= e_half else e_half + 10.0 * (e_half - h2)

    dims = len(names)
    starts = [np.zeros(dims)]
    for i, scale in itertools.product(range(dims), (0.25, 0.75)):
        for sign in (1.0, -1.0):
            vec = np.zeros(dims)
            vec[i] = sign * scale
            starts.append(vec)
    rng = np.random.default_rng(opts.seed)
    for _ in range(opts.extra_starts):
        starts.append(rng.uniform(-opts.start_box, opts.start_box, dims))

    trials = 0
    results = []
    for start in starts:
        x = start.copy()
        fx = objective(x)
        trials += 1
        step = nm.INITIAL_STEP
        while step >= opts.min_step and trials < nm.MAX_EVALS:
            improved = False
            for i in range(dims):
                for sign in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sign * step
                    ft = objective(trial)
                    trials += 1
                    if ft < fx - 1e-15:
                        x, fx = trial, ft
                        improved = True
            if not improved:
                step *= 0.5
        results.append((fx, x))
    _, best_x = min(results, key=lambda r: (r[0], tuple(r[1])))
    best_h2 = entropy_at(best_x)
    if best_h2 is None or best_h2 < e_half - threshold:
        raise errors.NoFeasiblePoint("reference search found no feasible point")
    return dict(zip(names, best_x)), best_h2, trials


def assert_same_machine(built, reference):
    """Equal bit for bit, signed zeros included."""
    assert built.states == reference.states and built.groups == reference.groups
    assert np.array_equal(built.stacked, reference.stacked)
    assert built.stacked.tobytes() == reference.stacked.tobytes()
    assert built.stationary.tobytes() == reference.stationary.tobytes()
    assert built.stationary_residual == reference.stationary_residual


def _random_params(spec, rng, scale=1.0):
    return dict(zip(spec.param_names, rng.uniform(-scale, scale, len(spec.param_names))))


def _points_and_signed_zeros(spec, rng, scale, count):
    """``count`` random points, then the first with every other parameter -0.0."""
    points = [_random_params(spec, rng, scale) for _ in range(count)]
    signed_zeros = dict(points[0])
    for name in spec.param_names[::2]:
        signed_zeros[name] = -0.0
    return points + [signed_zeros]


class TestCompiledSplitMatchesReference:
    def test_perturbed_coin_spec(self):
        rng = np.random.default_rng(0)
        for p in GRID:
            source, spec = perturbed_coin_epsilon(p), perturbed_coin_split_spec(p)
            points = [dict(zip(("q1", "q2"), perturbed_coin_ideal_params(p, branch)))
                      for branch in (BRANCH_PLUS, BRANCH_MINUS)]
            points += [_random_params(spec, rng) for _ in range(3)]
            for params in points:
                assert_same_machine(build_split_machine(source, spec, params),
                                    reference_build(source, spec, params))

    def test_sns_spec(self):
        rng = np.random.default_rng(1)
        for p in (0.2, 0.5, 0.8):
            source, spec = sns_g_machine(p), sns_split_spec(p)
            points = [dict(zip(("gamma", "eta"), sns_ideal_params(p)))]
            points += [_random_params(spec, rng, 0.3) for _ in range(3)]
            for params in points:
                assert_same_machine(build_split_machine(source, spec, params),
                                    reference_build(source, spec, params))

    def test_golden_mean_bad_spec(self):
        source, spec = golden_mean_epsilon(0.5), golden_mean_bad_split_spec(0.5)
        for q in (-0.4, -0.2, 0.0, 0.3):
            assert_same_machine(build_split_machine(source, spec, {"q": q}),
                                reference_build(source, spec, {"q": q}))

    @pytest.mark.parametrize("make_source", [
        lambda: perturbed_coin_epsilon(0.3), lambda: golden_mean_epsilon(0.4),
        lambda: sns_g_machine(0.6),
    ])
    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_generic_splits(self, make_source, counts):
        source = make_source()
        spec = generic_split_spec(source, counts)
        rng = np.random.default_rng(sum(counts))
        for params in _points_and_signed_zeros(spec, rng, 1.5, 4):
            try:
                reference = reference_build(source, spec, params)
            except errors.DegenerateFixedSpace:
                with pytest.raises(errors.DegenerateFixedSpace):
                    build_split_machine(source, spec, params)
                continue
            assert_same_machine(build_split_machine(source, spec, params), reference)

    def test_multi_coefficient_rules(self):
        # several coefficients per share, constant-only shares and three copies
        source = perturbed_coin_epsilon(0.3)
        spec = SplitSpec(
            copy_counts=(3, 2),
            param_names=("a", "b", "c"),
            rules={
                (0, 0, "0", 0): (Affine(0.7, {"a": 1.0, "b": -0.3, "c": 0.1}),
                                 Affine(-0.2, {"c": 2.0})),
                (0, 2, "0", 0): (Affine(0.0, {"b": 1.0, "a": 1.0 / 3.0}), Affine(0.1)),
                (1, 1, "1", 1): (Affine(0.05, {"a": -1.0, "c": 0.7, "b": 0.2}),),
                (0, 2, "1", 1): (Affine(0.3, {"a": 1e-17, "b": 1.0}),),
            },
        )
        rng = np.random.default_rng(2)
        for _ in range(10):
            params = _random_params(spec, rng)
            assert_same_machine(build_split_machine(source, spec, params),
                                reference_build(source, spec, params))

    def test_summation_order(self):
        # sums that change in the last bit when reordered: the heads of the
        # first rule leave 0.7 in share order (0.6999999999999998 reversed),
        # and the head of the second is 0.0 in coefficient order (1.1e-16
        # reversed)
        source = perturbed_coin_epsilon(0.3)
        spec = SplitSpec(
            copy_counts=(4, 1),
            param_names=("a", "b", "c"),
            rules={
                (0, 0, "0", 0): (Affine(1.0), Affine(1e-16), Affine(-1.0)),
                (1, 0, "0", 0): (Affine(0.0, {"a": 1.0, "b": 1.0, "c": 1.0}),
                                 Affine(0.0), Affine(0.0)),
            },
        )
        params = {"a": 1.0, "b": 1e-16, "c": -1.0}
        built = build_split_machine(source, spec, params)
        assert_same_machine(built, reference_build(source, spec, params))
        assert built.stacked[0][0, 3] == 0.7
        assert built.stacked[0][4, 0] == 0.0

    def test_large_sparse_source_without_rules(self):
        # 296 states, one of them doubled: every other entry takes the
        # rule-free default of copy 0 and the trailing zero
        source = sns_epsilon_truncated(0.9)
        assert source.n_states == 296
        spec = generic_split_spec(source, (2,) + (1,) * (source.n_states - 1))
        rng = np.random.default_rng(3)
        for params in _points_and_signed_zeros(spec, rng, 0.05, 3):
            assert_same_machine(build_split_machine(source, spec, params),
                                reference_build(source, spec, params))

    @pytest.mark.parametrize("key", [
        (0, 0, "2", 0),  # unknown symbol
        (0, 5, "0", 0),  # unknown copy
        (7, 0, "0", 0),  # unknown source state
        (0, 0, "0", 9),  # unknown target
    ])
    def test_rule_naming_no_entry_rejected(self, key):
        spec = SplitSpec(copy_counts=(2, 1), param_names=("q",),
                         rules={key: (Affine(0.0, {"q": 1.0}),)})
        with pytest.raises(errors.SpecMismatch, match=re.escape(str(key))):
            build_split_machine(perturbed_coin_epsilon(0.3), spec, {"q": 0.1})

    def test_rule_with_wrong_share_count_rejected(self):
        spec = SplitSpec(copy_counts=(2, 1), rules={(0, 0, "0", 0): (Affine(), Affine())})
        with pytest.raises(errors.SpecMismatch):
            build_split_machine(perturbed_coin_epsilon(0.3), spec, {})

    def test_rule_with_undeclared_parameter_rejected(self):
        spec = SplitSpec(copy_counts=(2, 1), rules={(0, 0, "0", 0): (Affine(0.0, {"q": 1.0}),)})
        with pytest.raises(errors.SpecMismatch, match="unknown parameter 'q'"):
            build_split_machine(perturbed_coin_epsilon(0.3), spec, {})

    @pytest.mark.parametrize("key, rule", [
        ((0, 0, "0"), (Affine(0.0, {"q": 1.0}),)),  # key of three fields
        ((0, 0, "0", 0, 0), (Affine(0.0, {"q": 1.0}),)),  # key of five fields
        ((0, 0, "0", 0), Affine(0.0, {"q": 1.0})),  # one share, not a tuple of them
    ])
    def test_malformed_rule_rejected(self, key, rule):
        spec = SplitSpec(copy_counts=(2, 1), param_names=("q",), rules={key: rule})
        with pytest.raises(errors.SpecMismatch, match=re.escape(str(key))):
            build_split_machine(perturbed_coin_epsilon(0.3), spec, {"q": 0.1})

    def test_parameter_the_spec_does_not_have_rejected(self):
        spec = perturbed_coin_split_spec(0.3)
        with pytest.raises(errors.SpecMismatch, match=r"\['zz'\]"):
            build_split_machine(perturbed_coin_epsilon(0.3), spec,
                                {"q1": 0.0, "q2": 0.1, "zz": 3.0})


def _optimizer_case(name):
    if name.startswith("perturbed-coin"):
        p = float(name.rsplit("-", 1)[1])
        source = perturbed_coin_epsilon(p)
        return source, perturbed_coin_split_spec(p), perturbed_coin_excess_half(p)
    source = golden_mean_epsilon(0.5)
    e_half = excess_entropy_half(source, 12).value
    if name == "golden-mean-bad":
        return source, golden_mean_bad_split_spec(0.5), e_half
    return source, generic_split_spec(source, (2, 1)), e_half


class TestMemoisedSearchMatchesReference:
    # at 500 and 3000 trials the cap stops the search part-way
    @pytest.mark.parametrize("max_evals", [500, 3000, 20000])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("case", [
        "perturbed-coin-0.2", "perturbed-coin-0.3", "perturbed-coin-0.7",
        "golden-mean-bad", "golden-mean-generic-2-1",
    ])
    def test_bit_identical_result(self, monkeypatch, case, seed, max_evals):
        source, spec, e_half = _optimizer_case(case)
        monkeypatch.setattr(nm, "MAX_EVALS", max_evals)
        opts = OptimizeOptions(seed=seed)
        params, c_n2, _ = reference_optimize(source, spec, e_half, opts)
        result = optimize_ideal(source, spec, e_half, opts)
        assert list(result.parameters) == list(params)
        got = np.array(list(result.parameters.values()))
        assert got.tobytes() == np.array(list(params.values())).tobytes()
        assert result.c_n2 == c_n2

    def test_repeats_are_not_rebuilt(self, monkeypatch):
        source, spec, e_half = _optimizer_case("perturbed-coin-0.3")
        opts = OptimizeOptions(seed=7)
        _, _, trials = reference_optimize(source, spec, e_half, opts)
        builds = 0
        build = nm.build_split_machine

        def counting_build(*args, **kwargs):
            nonlocal builds
            builds += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(nm, "build_split_machine", counting_build)
        optimize_ideal(source, spec, e_half, opts)
        # after the search, the best point is built once to check it and
        # once for the result
        assert 0 < builds - 2 < trials

    def test_point_of_an_earlier_start_is_not_rebuilt(self, monkeypatch):
        source, spec, e_half = _optimizer_case("perturbed-coin-0.3")
        built = []
        build = nm.build_split_machine

        def recording_build(source, spec, params):
            built.append(np.array(list(params.values())).tobytes())
            return build(source, spec, params)

        monkeypatch.setattr(nm, "build_split_machine", recording_build)
        optimize_ideal(source, spec, e_half, OptimizeOptions(seed=7))
        search = built[:-2]
        # the first start, at the origin, tries (0.25, 0) with its first
        # step; the second start begins there and is answered from the memo
        assert search[:2] == [np.zeros(2).tobytes(), np.array([0.25, 0.0]).tobytes()]
        assert search.count(np.array([0.25, 0.0]).tobytes()) == 1
        assert len(set(search)) == len(search)
