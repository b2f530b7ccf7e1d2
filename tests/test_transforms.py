import numpy as np
import pytest

from quasihmm import errors
from quasihmm.machine import same_process
from quasihmm.measures import renyi_entropy
from quasihmm.processes import (
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    perturbed_coin_rjmc,
    sns_g_machine,
)
from quasihmm.transforms import (
    DimensionMismatch,
    apply_map,
    positive_stationary_family,
    rjmc_domain_check,
    rjmc_parameters,
    similarity_map,
    two_state_map,
)


def machines_match_up_to_state_order(a, b) -> float:
    """Smallest max-abs entry difference over simultaneous state relabelings."""
    import itertools

    n = a.n_states
    best = float("inf")
    for perm in itertools.permutations(range(n)):
        perm = list(perm)
        worst = float(np.max(np.abs(a.stacked[:, perm][:, :, perm] - b.stacked)))
        worst = max(worst, float(np.max(np.abs(np.asarray(a.stationary)[perm] - b.stationary))))
        best = min(best, worst)
    return best


class TestSimilarityMap:
    def test_identity(self):
        zmap = similarity_map(np.eye(2))
        assert np.allclose(zmap.z_inverse, np.eye(2))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            similarity_map([[0.5, 0.4], [0.0, 1.0]])

    def test_singular_rejected(self):
        with pytest.raises(errors.SingularMatrix):
            two_state_map(0.3, 0.3)

    def test_inverse_is_exact(self):
        zmap = two_state_map(2.0, -0.5)
        assert np.allclose(zmap.z @ zmap.z_inverse, np.eye(2), atol=1e-12)


class TestApplyMap:
    def test_identity_map_preserves_machine(self):
        m = perturbed_coin_epsilon(0.3)
        mapped = apply_map(m, similarity_map(np.eye(2)))
        assert np.allclose(mapped.stacked, m.stacked, atol=1e-14)
        assert mapped.stationary == pytest.approx(m.stationary, abs=1e-14)

    def test_recovers_generative_model_below_half(self):
        p = 0.25
        a, b = rjmc_parameters(p)
        assert (a, b) == (-0.5, 1.0)
        mapped = apply_map(perturbed_coin_epsilon(p), two_state_map(a, b))
        target = perturbed_coin_rjmc(p)
        assert np.max(np.abs(mapped.stacked - target.stacked)) <= 1e-12
        assert np.max(np.abs(mapped.stationary - target.stationary)) <= 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4])
    def test_recovery_grid_below_half(self, p):
        a, b = rjmc_parameters(p)
        mapped = apply_map(perturbed_coin_epsilon(p), two_state_map(a, b))
        target = perturbed_coin_rjmc(p)
        worst = float(np.max(np.abs(mapped.stacked - target.stacked)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("p", [0.6, 0.75, 0.9])
    def test_recovery_grid_above_half(self, p):
        # above 1/2 the printed parameters land on the swapped state order
        a, b = rjmc_parameters(p)
        mapped = apply_map(perturbed_coin_epsilon(p), two_state_map(a, b))
        target = perturbed_coin_rjmc(p)
        assert machines_match_up_to_state_order(mapped, target) <= 1e-12

    def test_signed_family_closed_forms(self):
        # a = 2, b = 0 at p = 0.3: conjugation worked out by hand
        mapped = apply_map(perturbed_coin_epsilon(0.3), two_state_map(2.0, 0.0))
        assert np.allclose(mapped.stacked[0], [[0.55, 0.55], [0.15, 0.15]], atol=1e-12)
        assert np.allclose(mapped.stacked[1], [[0.0, -0.1], [0.0, 0.7]], atol=1e-12)
        assert mapped.stationary == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_word_distributions_preserved_under_random_maps(self, rng):
        machines = [perturbed_coin_epsilon(0.3), golden_mean_epsilon(0.5), sns_g_machine(0.4)]
        count = 0
        while count < 20:
            a, b = rng.uniform(-2.0, 2.0, 2)
            if abs(a - b) < 0.05:
                continue
            count += 1
            for m in machines:
                mapped = apply_map(m, two_state_map(a, b))
                assert same_process(m, mapped)

    def test_composition(self, rng):
        m = perturbed_coin_epsilon(0.3)
        for _ in range(10):
            a1, b1, a2, b2 = rng.uniform(-1.5, 1.5, 4)
            if abs(a1 - b1) < 0.1 or abs(a2 - b2) < 0.1:
                continue
            z1 = two_state_map(a1, b1)
            z2 = two_state_map(a2, b2)
            two_steps = apply_map(apply_map(m, z1), z2)
            combined = apply_map(m, similarity_map(z2.z @ z1.z))
            assert same_process(two_steps, combined)

    def test_dimension_mismatch(self):
        machine = apply_map(perturbed_coin_epsilon(0.3), two_state_map(2.0, 0.0))
        three = similarity_map(np.eye(3))
        with pytest.raises(DimensionMismatch):
            apply_map(machine, three)


class TestDomainCheck:
    def test_boundary_point_below_half(self):
        assert rjmc_domain_check(0.25, -0.5, 1.0) is True

    def test_interior_invalid_point(self):
        assert rjmc_domain_check(0.25, 0.4, 0.6) is False

    def test_swapped_branch_above_half(self):
        # second branch at p = 0.75: 1 <= a <= 1.5 and -0.5 <= b <= 0
        assert rjmc_domain_check(0.75, 1.0, 0.0) is True
        assert rjmc_domain_check(0.75, 1.6, 0.0) is False

    def test_equal_parameters_rejected(self):
        assert rjmc_domain_check(0.3, 0.0, 0.0) is False

    def test_agrees_with_classicality_of_mapped_machine(self, rng):
        for p in (0.25, 0.7):
            m = perturbed_coin_epsilon(p)
            checked = 0
            while checked < 40:
                a, b = rng.uniform(-1.5, 1.8, 2)
                if abs(a - b) < 0.05:
                    continue
                checked += 1
                mapped = apply_map(m, two_state_map(a, b))
                entries = mapped.stacked.ravel()
                if rjmc_domain_check(p, a, b):
                    assert entries.min() >= -1e-10
                else:
                    assert entries.min() < -1e-10


class TestPositiveStationaryFamily:
    def test_uniform_at_one(self):
        machine = positive_stationary_family(0.3, 1.0)
        assert machine.stationary == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_stationary_closed_form(self):
        machine = positive_stationary_family(0.3, 2.0)
        assert machine.stationary == pytest.approx([0.25, 0.75], abs=1e-12)

    @pytest.mark.parametrize("a", [0.6, 1.0, 2.0, 5.0, 10.0])
    def test_stationary_strictly_positive_with_signed_transitions(self, a):
        machine = positive_stationary_family(0.3, a)
        assert machine.stationary.min() > 0
        if a != 1.0:
            entries = machine.stacked.ravel()
            assert entries.min() < 0

    def test_collision_entropy_drains_beyond_uniform_point(self):
        values = [
            renyi_entropy(positive_stationary_family(0.3, a).stationary, 2)
            for a in (1.0, 2.0, 5.0, 10.0, 100.0)
        ]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.02

    def test_shannon_entropy_drains_too(self):
        low = renyi_entropy(positive_stationary_family(0.3, 10.0).stationary, 1)
        high = renyi_entropy(positive_stationary_family(0.3, 1.0).stationary, 1)
        assert low < high

    @pytest.mark.parametrize("a", [0.6, 1.0, 3.0])
    def test_generates_the_source_process(self, a):
        machine = positive_stationary_family(0.3, a)
        assert same_process(machine, perturbed_coin_epsilon(0.3))

    def test_domain_restriction(self):
        with pytest.raises(ValueError):
            positive_stationary_family(0.3, 0.5)
