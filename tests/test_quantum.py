import math

import numpy as np
import pytest

from conftest import assert_stationary, oracle_state_overlap
from quasihmm import cli, errors
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
    PSD_TOL,
    RENYI2,
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
        m = make_machine(("0", "1"), ("a", "b"), [t0, t1])
        gram = gram_from_machine(m, 8)
        assert np.allclose(gram.overlaps, 1.0, atol=1e-12)

    def test_distinct_deterministic_outputs_give_identity(self):
        t0 = [[1.0, 0.0], [0.0, 0.0]]
        t1 = [[0.0, 0.0], [0.0, 1.0]]
        m = make_machine(("0", "1"), ("a", "b"), [t0, t1], stationary=[0.5, 0.5])
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
        quasi = make_machine(("0", "1"), ("a", "b"), [t0, t1])
        with pytest.raises(errors.QuasiMachineUnsupported):
            gram_from_machine(quasi, 4)

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

    def test_all_ones_gram_is_pure(self):
        gram = GramEnsemble(
            weights=np.array([0.5, 0.5]), overlaps=np.ones((2, 2)), horizon=1, residual=0.0
        )
        assert quantum_complexity(gram, RENYI2) == pytest.approx(0.0, abs=1e-12)

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


def reference_renyi2(g: GramEnsemble) -> float:
    """C_q2 from the full spectrum, as it was computed before the purity
    route: the eigenvalues of the symmetrised D^(1/2) G D^(1/2), the same
    NonPSD check and message, negative rounding clipped to 0."""
    mat = g.density_spectrum_matrix()
    spectrum = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if spectrum.min() < -PSD_TOL:
        raise errors.NonPSD(f"Gram spectrum has eigenvalue {spectrum.min():.3e}")
    spectrum = np.clip(spectrum, 0.0, None)
    return -float(np.log2(np.sum(spectrum**2)))


def assert_matches_reference(g: GramEnsemble) -> None:
    got, want = quantum_complexity(g, RENYI2), reference_renyi2(g)
    assert abs(got - want) <= 1e-13 + 1e-12 * abs(want)


def two_state_gram(lambda_min: float) -> GramEnsemble:
    """Equal weights and overlap c = 1 - 2 lambda_min: the symmetrised
    density matrix has eigenvalues lambda_min and 1 - lambda_min."""
    c = 1.0 - 2.0 * lambda_min
    return GramEnsemble(weights=np.array([0.5, 0.5]),
                        overlaps=np.array([[1.0, c], [c, 1.0]]), horizon=1, residual=0.0)


class TestRenyi2WithoutSpectrum:
    """C_q2 is -log2 of the Frobenius purity, certified PSD by a Cholesky
    factorisation; it must agree with the spectral value and make the same
    NonPSD decisions."""

    @pytest.mark.parametrize("horizon", [2, 12, 14])
    def test_zoo(self, horizon):
        for machine in ZOO:
            assert_matches_reference(gram_from_machine(machine, horizon))

    def test_fig5_grid(self):
        for p in cli.default_grid("perturbed-coin"):
            assert_matches_reference(gram_from_machine(perturbed_coin_epsilon(p), 12))

    def test_fig9_grid(self):
        for p in cli.default_grid("sns"):
            assert_matches_reference(sns_gram_ensemble(sns_renewal_data(p)))

    def test_sns_sweep_at_truncation_120(self):
        compared = 0
        for p in cli.default_grid("sns"):
            try:
                gram = sns_gram_ensemble(sns_renewal_data(p, 120))
            except errors.TruncationTooCoarse:
                continue
            assert_matches_reference(gram)
            row_value = cli._SnsRow(p, 12, 120).values(["C_q2"])[0]
            assert row_value == quantum_complexity(gram)
            compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("p, n_states", [(0.5, 46), (0.9, 296), (0.95, 607)])
    def test_sns_epsilon(self, p, n_states):
        machine = sns_epsilon_truncated(p)
        assert machine.n_states == n_states
        assert_matches_reference(gram_from_machine(machine, 12))

    def test_near_pure_ensembles(self):
        for eps in (1e-3, 1e-6, 1e-9):
            gram = GramEnsemble(weights=np.array([0.3, 0.7]),
                                overlaps=np.array([[1.0, 1 - eps], [1 - eps, 1.0]]),
                                horizon=1, residual=0.0)
            assert_matches_reference(gram)

    @pytest.mark.parametrize("scale", [-2.0, -1.01, -0.99, -0.5, 0.0])
    def test_non_psd_decision_is_the_spectral_one(self, scale):
        gram = two_state_gram(scale * PSD_TOL)
        try:
            want = reference_renyi2(gram)
        except errors.NonPSD as exc:
            with pytest.raises(errors.NonPSD) as raised:
                quantum_complexity(gram, RENYI2)
            assert str(raised.value) == str(exc)
        else:
            got = quantum_complexity(gram, RENYI2)
            assert abs(got - want) <= 1e-13 + 1e-12 * abs(want)

    @pytest.mark.parametrize("scale, spectral", [(-0.99, True), (-0.75, True),
                                                 (-0.25, False), (0.0, False)])
    def test_certificate_keeps_half_the_tolerance_as_margin(self, eigensolves, scale,
                                                            spectral):
        # between -PSD_TOL and -PSD_TOL / 2 the spectrum decides, so no
        # rounding in the factorisation can accept what the check refuses
        quantum_complexity(two_state_gram(scale * PSD_TOL), RENYI2)
        assert len(eigensolves) == (1 if spectral else 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_overlaps_give_the_spectral_result(self, bad, where):
        overlaps = np.array([[1.0, 0.3], [0.3, 1.0]])
        overlaps[where] = bad
        gram = GramEnsemble(weights=np.array([0.5, 0.5]), overlaps=overlaps,
                            horizon=1, residual=0.0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            try:
                want = reference_renyi2(gram)
            except errors.NonPSD as exc:
                with pytest.raises(errors.NonPSD) as raised:
                    quantum_complexity(gram, RENYI2)
                assert str(raised.value) == str(exc)
            else:
                got = quantum_complexity(gram, RENYI2)
                assert got == want or (math.isnan(got) and math.isnan(want))


class TestSnsGram:
    def test_unit_diagonal(self):
        gram = sns_gram_ensemble(sns_renewal_data(0.5))
        assert np.allclose(np.diag(gram.overlaps), 1.0, atol=1e-9)

    def test_close_to_machine_route(self):
        # the predictive machine's future fidelities approximate the renewal
        # closed form at matching truncation
        gram_closed = sns_gram_ensemble(sns_renewal_data(0.5))
        machine = sns_epsilon_truncated(0.5)
        gram_machine = gram_from_machine(machine, 40)
        k = 12  # early states are well converged at this truncation
        assert np.allclose(
            gram_closed.overlaps[:k, :k], gram_machine.overlaps[:k, :k], atol=1e-6
        )

    def test_underflowing_survival_is_refused(self):
        # Phi(400) underflows to 0 at p = 0.01; Phi(157) does not
        with pytest.raises(errors.TruncationTooLarge):
            sns_gram_ensemble(sns_renewal_data(0.01, 400))
        assert np.all(np.isfinite(sns_gram_ensemble(sns_renewal_data(0.01, 157)).overlaps))

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.5, 0.6, 0.8])
    def test_complexity_sits_between_bounds(self, p):
        data = sns_renewal_data(p)
        weights = data.stationary_weights()
        c_mu2 = renyi_entropy(weights / weights.sum(), 2)
        c_q2 = quantum_complexity(sns_gram_ensemble(data))
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
            stacked=np.array([
                [[0.6, 0.0], [0.3, 0.0]],
                [[0.0, 0.3], [0.0, 0.7]],
            ]),
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
        assert same_process(machine, perturbed_coin_epsilon(p))

    def test_classification_is_quasi_nonunifilar(self):
        for p in (0.2, 0.8):
            cls = wigner_as_machine(wigner_qubit_representation(p)).classify()
            assert not cls.classical
            assert not cls.unifilar

    def test_groups_mark_the_two_blocks(self):
        machine = wigner_as_machine(wigner_qubit_representation(0.3))
        assert machine.groups == (0, 0, 1, 1)

    def test_validates(self):
        assert_stationary(wigner_as_machine(wigner_qubit_representation(0.4)))

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
