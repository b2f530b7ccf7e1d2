import math

import numpy as np
import pytest

from conftest import oracle_state_overlap
from quasihmm import errors
from quasihmm.machine import Machine, make_machine, same_process
from quasihmm.measures import renyi_entropy, sns_excess_entropy_half
from quasihmm.processes import (
    even_process_epsilon,
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    sns_epsilon_truncated,
    sns_g_machine,
    sns_renewal_data,
    unbiased_coin,
)
from quasihmm.quantum import (
    GramEnsemble,
    PHASE_POINTS,
    RENYI2,
    TOPOLOGICAL,
    VON_NEUMANN,
    gram_from_machine,
    phase_point_operators,
    quantum_complexity,
    sns_gram_ensemble,
    validate_unitary_relation,
    wigner_as_machine,
    wigner_closed_forms,
    wigner_qubit_representation,
)

ZOO = [
    unbiased_coin(),
    perturbed_coin_epsilon(0.3),
    golden_mean_epsilon(0.5),
    even_process_epsilon(),
    sns_g_machine(0.5),
    sns_epsilon_truncated(0.5),
]


class TestGramFromMachine:
    def test_perturbed_coin_overlap_closed_form(self):
        # explicit encoded states give overlap 2 sqrt(p(1-p))
        for p in (0.1, 0.3, 0.45, 0.7):
            gram = gram_from_machine(perturbed_coin_epsilon(p), 12)
            assert gram.overlaps[0, 1] == pytest.approx(2 * math.sqrt(p * (1 - p)), abs=1e-12)
            assert gram.residual == pytest.approx(0.0, abs=1e-12)

    def test_identical_rows_give_all_ones(self):
        t0 = [[0.6, 0.0], [0.6, 0.0]]
        t1 = [[0.0, 0.4], [0.0, 0.4]]
        m = make_machine(("0", "1"), ("a", "b"), {"0": t0, "1": t1})
        gram = gram_from_machine(m, 8)
        assert np.allclose(gram.overlaps, 1.0, atol=1e-12)

    def test_distinct_deterministic_outputs_give_identity(self):
        t0 = [[1.0, 0.0], [0.0, 0.0]]
        t1 = [[0.0, 0.0], [0.0, 1.0]]
        m = make_machine(("0", "1"), ("a", "b"), {"0": t0, "1": t1}, stationary=[0.5, 0.5])
        gram = gram_from_machine(m, 6)
        assert np.allclose(gram.overlaps, np.eye(2), atol=1e-12)

    def test_matches_enumeration_oracle_nonunifilar(self):
        machine = sns_g_machine(0.4)
        gram = gram_from_machine(machine, 5)
        for j in range(2):
            for k in range(2):
                assert gram.overlaps[j, k] == pytest.approx(
                    oracle_state_overlap(machine, j, k, 5), abs=1e-12
                )

    def test_quasi_machine_rejected(self):
        t0 = [[1.2, -0.2], [0.0, 0.0]]
        t1 = [[0.0, 0.0], [0.5, 0.5]]
        quasi = make_machine(("0", "1"), ("a", "b"), {"0": t0, "1": t1})
        with pytest.raises(errors.QuasiMachineUnsupported):
            gram_from_machine(quasi, 4)

    def test_not_converged(self):
        # the even process overlap decays like 2^(-L/2): far from settled at L=2
        with pytest.raises(errors.NotConverged):
            gram_from_machine(even_process_epsilon(), 2, convergence_tol=1e-12)

    def test_gram_psd_across_zoo(self):
        for machine in ZOO:
            gram = gram_from_machine(machine, 14)
            spectrum = np.linalg.eigvalsh(gram.density_spectrum_matrix())
            assert spectrum.min() >= -1e-10


class TestQuantumComplexity:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.3, 0.45, 0.6, 0.85])
    def test_perturbed_coin_formula(self, p):
        gram = gram_from_machine(perturbed_coin_epsilon(p), 12)
        expected = -math.log2(0.5 + 2 * p * (1 - p))
        assert quantum_complexity(gram, RENYI2) == pytest.approx(expected, abs=1e-8)

    def test_identity_gram_reduces_to_classical(self):
        gram = GramEnsemble(
            weights=np.full(4, 0.25), overlaps=np.eye(4), horizon=1, residual=0.0
        )
        assert quantum_complexity(gram, RENYI2) == pytest.approx(2.0, abs=1e-12)
        assert quantum_complexity(gram, VON_NEUMANN) == pytest.approx(2.0, abs=1e-12)
        assert quantum_complexity(gram, TOPOLOGICAL) == pytest.approx(2.0, abs=1e-12)

    def test_all_ones_gram_is_pure(self):
        gram = GramEnsemble(
            weights=np.array([0.5, 0.5]), overlaps=np.ones((2, 2)), horizon=1, residual=0.0
        )
        assert quantum_complexity(gram, RENYI2) == pytest.approx(0.0, abs=1e-12)
        assert quantum_complexity(gram, TOPOLOGICAL) == pytest.approx(0.0, abs=1e-12)

    def test_von_neumann_dominates_renyi2(self):
        for machine in ZOO:
            gram = gram_from_machine(machine, 12)
            assert quantum_complexity(gram, VON_NEUMANN) >= quantum_complexity(gram, RENYI2) - 1e-10

    def test_non_psd_rejected(self):
        gram = GramEnsemble(
            weights=np.array([0.5, 0.5]),
            overlaps=np.array([[1.0, 1.5], [1.5, 1.0]]),
            horizon=1,
            residual=0.0,
        )
        with pytest.raises(errors.NonPSD):
            quantum_complexity(gram)

    def test_unknown_kind_rejected(self):
        gram = gram_from_machine(unbiased_coin(), 2)
        with pytest.raises(ValueError):
            quantum_complexity(gram, "renyi3")

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45, 0.7, 0.9])
    def test_classical_dominates_quantum_perturbed_coin(self, p):
        machine = perturbed_coin_epsilon(p)
        gram = gram_from_machine(machine, 12)
        assert renyi_entropy(machine.stationary, 2) >= quantum_complexity(gram) - 1e-10


class TestSnsGram:
    def test_unit_diagonal(self):
        gram = sns_gram_ensemble(0.5)
        assert np.allclose(np.diag(gram.overlaps), 1.0, atol=1e-9)

    def test_close_to_machine_route(self):
        # the predictive machine's future fidelities approximate the renewal
        # closed form at matching truncation
        gram_closed = sns_gram_ensemble(0.5)
        machine = sns_epsilon_truncated(0.5)
        gram_machine = gram_from_machine(machine, 40)
        k = 12  # early states are well converged at this truncation
        assert np.allclose(
            gram_closed.overlaps[:k, :k], gram_machine.overlaps[:k, :k], atol=1e-6
        )

    def test_underflowing_survival_is_refused(self):
        # Phi(400) underflows to 0 at p = 0.01; Phi(157) does not
        with pytest.raises(errors.TruncationTooLarge):
            sns_gram_ensemble(0.01, 400)
        assert np.all(np.isfinite(sns_gram_ensemble(0.01, 157).overlaps))

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.5, 0.6, 0.8])
    def test_complexity_sits_between_bounds(self, p):
        weights = sns_renewal_data(p).stationary_weights()
        c_mu2 = renyi_entropy(weights / weights.sum(), 2)
        c_q2 = quantum_complexity(sns_gram_ensemble(p))
        e_half, _ = sns_excess_entropy_half(p)
        assert e_half - 1e-6 <= c_q2 <= c_mu2 + 1e-12


class TestUnitaryRelation:
    def test_perturbed_coin_passes(self):
        report = validate_unitary_relation(perturbed_coin_epsilon(0.3))
        assert report.max_residual < 1e-8

    def test_single_state_exact(self):
        report = validate_unitary_relation(unbiased_coin())
        assert report.max_residual == pytest.approx(0.0, abs=1e-14)

    def test_corrupted_rows_violate_isometry(self):
        broken = Machine(
            alphabet=("0", "1"),
            states=("s0", "s1"),
            matrices={
                "0": np.array([[0.6, 0.0], [0.3, 0.0]]),
                "1": np.array([[0.0, 0.3], [0.0, 0.7]]),
            },
            stationary=np.array([0.5, 0.5]),
        )
        with pytest.raises(errors.IsometryViolated):
            validate_unitary_relation(broken)

    def test_nonunifilar_rejected(self):
        with pytest.raises(ValueError):
            validate_unitary_relation(sns_g_machine(0.5))


class TestPhasePointOperators:
    def test_orthogonality(self):
        ops = phase_point_operators()
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                value = complex(np.trace(a @ b))
                assert value.imag == pytest.approx(0.0, abs=1e-14)
                assert value.real == pytest.approx(2.0 if i == j else 0.0, abs=1e-14)

    def test_frame_resolves_identity(self):
        total = sum(phase_point_operators()) / 2.0
        assert np.allclose(total, np.eye(2), atol=1e-14)

    def test_unit_trace(self):
        for a in phase_point_operators():
            assert complex(np.trace(a)).real == pytest.approx(1.0, abs=1e-14)


class TestWigner:
    def test_state_at_half(self):
        rep = wigner_qubit_representation(0.5)
        assert rep.state_quasi == pytest.approx([0.5, 0.0, 0.5, 0.0], abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_first_principles_match_closed_forms(self, p):
        rep = wigner_qubit_representation(p)
        state, channels = wigner_closed_forms(p)
        assert np.max(np.abs(rep.state_quasi - state)) <= 1e-12
        for x in ("0", "1"):
            assert np.max(np.abs(rep.channel_matrices[x] - channels[x])) <= 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.3, 0.6])
    def test_channel_rows_sum_to_one(self, p):
        rep = wigner_qubit_representation(p)
        total = rep.channel_matrices["0"] + rep.channel_matrices["1"]
        assert np.allclose(total.sum(axis=1), 1.0, atol=1e-12)

    def test_state_blocks_coarse_grain_to_halves(self):
        rep = wigner_qubit_representation(0.3)
        state = rep.state_quasi
        assert state[0] + state[1] == pytest.approx(0.5, abs=1e-12)
        assert state[2] + state[3] == pytest.approx(0.5, abs=1e-12)

    def test_phase_point_order(self):
        assert PHASE_POINTS == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestWignerMachine:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
    def test_reproduces_perturbed_coin_process(self, p):
        machine = wigner_as_machine(wigner_qubit_representation(p))
        assert same_process(machine, perturbed_coin_epsilon(p), horizon=8, tol=1e-9)

    def test_classification_is_quasi_nonunifilar(self):
        for p in (0.2, 0.8):
            cls = wigner_as_machine(wigner_qubit_representation(p)).classify()
            assert not cls.classical
            assert not cls.unifilar

    def test_groups_mark_the_two_blocks(self):
        machine = wigner_as_machine(wigner_qubit_representation(0.3))
        assert machine.groups == (0, 0, 1, 1)

    def test_validates(self):
        machine = wigner_as_machine(wigner_qubit_representation(0.4))
        assert machine.validate() == []

    def test_collision_entropy_of_state_recorded_against_quantum_value(self):
        # comparison only: the state vector's collision entropy exceeds the
        # spectral value by exactly one bit for this family
        p = 0.3
        rep = wigner_qubit_representation(p)
        h2 = renyi_entropy(rep.state_quasi, 2)
        c_q2 = quantum_complexity(gram_from_machine(perturbed_coin_epsilon(p), 12))
        assert h2 == pytest.approx(c_q2 + 1.0, abs=1e-10)

    def test_stationary_mismatch_rejected(self):
        rep = wigner_qubit_representation(0.3)
        bad = WignerLike(rep)
        with pytest.raises(errors.StationaryMismatch):
            wigner_as_machine(bad)


class WignerLike:
    """Wigner representation with a corrupted state vector."""

    def __init__(self, rep):
        self.p = rep.p
        self.phase_points = rep.phase_points
        self.state_quasi = np.array([0.7, -0.2, 0.3, 0.2])
        self.channel_matrices = rep.channel_matrices
