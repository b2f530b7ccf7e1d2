"""The one-pass machine build pinned against the build it replaced.

``reference_left_fixed_vector`` and ``reference_make_machine`` are the two
functions as they were when the summed matrix was checked for finite
entries and row sums twice, each symbol's matrix was copied on its own, and
the stationary vector's fixed-point residual was computed eagerly.  The
library must give the same matrices, stationary vector and residual byte
for byte, and raise the same error class at each check's boundary.
"""

import math

import numpy as np
import pytest

from quasihmm import errors, linalg
from quasihmm.machine import Machine, machine_from_json_dict, make_machine
from quasihmm.nmachine import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    build_split_machine,
    generic_split_spec,
    golden_mean_bad_split_spec,
    perturbed_coin_ideal_params,
    perturbed_coin_split_spec,
    sns_ideal_params,
    sns_split_spec,
)
from quasihmm.processes import (
    even_process_epsilon,
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    perturbed_coin_rjmc,
    sns_epsilon_truncated,
    sns_g_machine,
    unbiased_coin,
)
from quasihmm.quantum import wigner_as_machine, wigner_qubit_representation


def _reference_as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise errors.NonFiniteEntries("matrix has NaN or infinite entries")
    return a


def _reference_row_sum_residual(m):
    return float(np.abs(_reference_as_matrix(m).sum(axis=1) - 1.0).max())


def reference_left_fixed_vector(m):
    a = _reference_as_matrix(m)
    res = float(np.abs(a.sum(axis=1) - 1.0).max())
    if res > linalg.STRUCT_TOL:
        raise ValueError(f"matrix is not quasi-stochastic: row-sum residual {res:.3e}")
    n = a.shape[0]
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - a.T
    bordered[n, n] = 0.0
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError as exc:
        raise errors.DegenerateFixedSpace(f"eigenvalue 1 is not simple: {exc}") from exc
    cond = float(np.abs(bordered).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not cond <= linalg.DEGENERACY_COND / linalg.EIGEN_TOL:
        raise errors.DegenerateFixedSpace(
            f"eigenvalue 1 is not numerically simple: bordered condition number {cond:.3e}"
        )
    v = inv[:n, n]
    residual = float(np.max(np.abs(v @ a - v)))
    if residual > 10 * linalg.EIGEN_TOL:
        raise errors.NoUnitEigenvalue(f"fixed-vector residual {residual:.3e} exceeds tolerance")
    return v / v.sum()


def reference_make_machine(alphabet, states, stacked, stationary=None):
    """Returns (matrices in alphabet order, stationary, stationary residual)."""
    n = len(states)
    mats = []
    for i, x in enumerate(alphabet):
        a = np.asarray(stacked[i], dtype=float)
        if a.shape != (n, n):
            raise errors.MachineFormatError(
                f"matrix for symbol {x!r} has shape {a.shape}, expected {(n, n)}"
            )
        mats.append(np.array(a, dtype=float))
    total = sum(mats)
    res = _reference_row_sum_residual(total)
    if res > linalg.STRUCT_TOL:
        raise errors.MachineFormatError(f"summed transition matrix row-sum residual {res:.3e}")
    if stationary is None:
        pi = reference_left_fixed_vector(total)
        residual = float(np.abs(pi @ total - pi).max())
    else:
        pi = np.asarray(stationary, dtype=float)
        if not np.all(np.isfinite(pi)):
            raise errors.StationaryMismatch("stationary vector has NaN or infinite entries")
        if abs(pi.sum() - 1.0) > linalg.STRUCT_TOL:
            raise errors.StationaryMismatch(f"stationary sums to {pi.sum():.12g}, expected 1")
        residual = float(np.max(np.abs(pi @ total - pi)))
        if residual > 10 * linalg.EIGEN_TOL:
            raise errors.StationaryMismatch(f"stationary fixed-point residual {residual:.3e}")
    return mats, np.array(pi, dtype=float), residual


def assert_matches_reference(machine, stationary=None):
    """``machine`` equals the reference build of its own matrices, byte for
    byte, and its ``stacked`` is read-only; with ``stationary`` given, the
    reference verifies that vector."""
    mats, pi, residual = reference_make_machine(
        machine.alphabet, machine.states, np.array(machine.stacked), stationary
    )
    assert machine.stacked.shape == (len(machine.alphabet), machine.n_states, machine.n_states)
    assert not machine.stacked.flags.writeable
    for i in range(len(machine.alphabet)):
        assert machine.stacked[i].tobytes() == mats[i].tobytes()
        assert not machine.stacked[i].flags.writeable
    assert machine.stationary.tobytes() == pi.tobytes()
    assert not machine.stationary.flags.writeable
    assert np.float64(machine.stationary_residual).tobytes() == np.float64(residual).tobytes()


def _signed_three_symbol_inputs():
    # three symbols (the summation order of the stack matters), signed
    # entries and signed zeros
    t = [
        [[0.2, -0.0, 0.1], [0.0, 0.3, -0.05], [0.4, -0.0, 0.1]],
        [[0.3, -0.0, 0.05], [0.25, 0.15, 0.1], [-0.1, -0.0, 0.2]],
        [[0.1, -0.0, 0.25], [0.05, 0.3, -0.1], [0.1, -0.0, 0.3]],
    ]
    return ("a", "b", "c"), ("s0", "s1", "s2"), t


def _zoo():
    return [
        perturbed_coin_epsilon(0.3), perturbed_coin_rjmc(0.3), perturbed_coin_rjmc(0.7),
        golden_mean_epsilon(0.4), even_process_epsilon(), unbiased_coin(), sns_g_machine(0.6),
        sns_epsilon_truncated(0.5), wigner_as_machine(wigner_qubit_representation(0.3)),
        make_machine(*_signed_three_symbol_inputs()),
    ]


class TestBuildMatchesReference:
    @pytest.mark.parametrize("machine", _zoo(), ids=lambda m: "-".join(m.states[:2]))
    def test_zoo(self, machine):
        assert_matches_reference(machine, machine.stationary)
        inputs = [np.array(matrix) for matrix in machine.stacked]
        assert_matches_reference(make_machine(machine.alphabet, machine.states, inputs))
        loaded = machine_from_json_dict(machine.to_json_dict())
        assert_matches_reference(loaded, machine.to_json_dict()["stationary"])

    @pytest.mark.parametrize("p,states", [(0.5, 46), (0.9, 296), (0.95, 607)])
    def test_sns_epsilon(self, p, states):
        machine = sns_epsilon_truncated(p)
        assert machine.n_states == states
        assert_matches_reference(machine)
        loaded = machine_from_json_dict(machine.to_json_dict())
        assert_matches_reference(loaded, machine.to_json_dict()["stationary"])

    def test_shipped_split_specs(self):
        rng = np.random.default_rng(6)
        cases = []
        for p in (0.2, 0.3, 0.7):
            source, spec = perturbed_coin_epsilon(p), perturbed_coin_split_spec(p)
            cases += [(source, spec, perturbed_coin_ideal_params(p, b))
                      for b in (BRANCH_PLUS, BRANCH_MINUS)]
        for p in (0.2, 0.5, 0.8):
            source, spec = sns_g_machine(p), sns_split_spec(p)
            cases += [(source, spec, sns_ideal_params(p, branch=b))
                      for b in (BRANCH_PLUS, BRANCH_MINUS)]
        cases += [(golden_mean_epsilon(0.5), golden_mean_bad_split_spec(0.5), (q,))
                  for q in (-0.4, 0.0, 0.3)]
        # random points of each named spec as well as its ideal ones
        cases += [(source, spec, rng.uniform(-0.3, 0.3, len(spec.param_names)))
                  for source, spec, _ in list(cases)]
        for source in (perturbed_coin_epsilon(0.3), golden_mean_epsilon(0.4), sns_g_machine(0.6)):
            cases.append((source, generic_split_spec(source, (1,) * source.n_states), ()))
            for counts in ((2, 1), (2, 2), (3, 1)):
                spec = generic_split_spec(source, counts)
                cases += [(source, spec, rng.uniform(-1.0, 1.0, len(spec.param_names)))
                          for _ in range(3)]
        built = 0
        for source, spec, values in cases:
            params = dict(zip(spec.param_names, values))
            try:
                machine = build_split_machine(source, spec, params)
            except errors.DegenerateFixedSpace:
                compiled = spec.compiled(source)
                stacked = compiled.matrices(source, np.asarray(values, dtype=float))
                with pytest.raises(errors.DegenerateFixedSpace):
                    reference_make_machine(source.alphabet, compiled.labels, stacked)
                continue
            assert_matches_reference(machine)
            built += 1
        assert built >= len(cases) - 3


def test_directly_constructed_machine_measures_itself():
    coin = perturbed_coin_epsilon(0.3)
    stale = Machine(alphabet=coin.alphabet, states=coin.states,
                    stacked=np.array(coin.stacked), stationary=np.array([0.8, 0.2]))
    total = coin.stacked[0] + coin.stacked[1]
    expected = float(np.max(np.abs(np.array([0.8, 0.2]) @ total - [0.8, 0.2])))
    assert stale.stationary_residual == expected > 0.1


def _flip(p):
    return np.array([[1 - p, p], [p, 1 - p]])


class TestChecksAtTheirBoundaries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("given", [False, True])
    def test_non_finite_entry(self, bad, given):
        t = [[[0.5, 0.0], [0.25, 0.25]], [[0.0, 0.5], [bad, 0.5]]]
        stationary = [0.5, 0.5] if given else None
        with pytest.raises(errors.NonFiniteEntries):
            make_machine(("0", "1"), ("a", "b"), t, stationary)
        with pytest.raises(errors.NonFiniteEntries):
            reference_make_machine(("0", "1"), ("a", "b"), t, stationary)
        total = np.array(t[0]) + np.array(t[1])
        with pytest.raises(errors.NonFiniteEntries):
            linalg.left_fixed_vector(total)

    @pytest.mark.parametrize("given", [False, True])
    def test_rows_off_by_1e_9(self, given):
        t = [[[0.5, 0.5 + 1e-9], [0.5, 0.5]]]
        stationary = [0.5, 0.5] if given else None
        with pytest.raises(errors.MachineFormatError) as got:
            make_machine(("0",), ("a", "b"), t, stationary)
        with pytest.raises(errors.MachineFormatError) as want:
            reference_make_machine(("0",), ("a", "b"), t, stationary)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError) as got:
            linalg.left_fixed_vector(t[0])
        with pytest.raises(ValueError) as want:
            reference_left_fixed_vector(t[0])
        assert str(got.value) == str(want.value)

    def test_rows_within_tolerance_accepted(self):
        t = [[[0.5, 0.5 + 1e-11], [0.5, 0.5]]]
        assert_matches_reference(make_machine(("0",), ("a", "b"), t))

    def test_finite_entries_whose_row_sum_overflows(self):
        # the row-sum deviation is infinite though every entry is finite:
        # a row-sum failure, not a non-finite one
        big = np.array([[1e308, 1e308], [0.5, 0.5]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="row-sum") as got:
                linalg.left_fixed_vector(big)
            assert not isinstance(got.value, errors.QuasiHmmError)
            with pytest.raises(errors.MachineFormatError):
                make_machine(("0",), ("a", "b"), [big])

    def test_flip_chain_degeneracy_boundary(self):
        for fn in (linalg.left_fixed_vector, reference_left_fixed_vector):
            with pytest.raises(errors.DegenerateFixedSpace):
                fn(_flip(3e-9))
        with pytest.raises(errors.DegenerateFixedSpace):
            make_machine(("0",), ("a", "b"), [_flip(3e-9)])
        got = linalg.left_fixed_vector(_flip(1e-8))
        assert got.tobytes() == reference_left_fixed_vector(_flip(1e-8)).tobytes()
        assert_matches_reference(make_machine(("0",), ("a", "b"), [_flip(1e-8)]))

    def test_stale_given_stationary(self):
        coin = perturbed_coin_epsilon(0.3)
        inputs = np.array(coin.stacked)
        with pytest.raises(errors.StationaryMismatch) as got:
            make_machine(coin.alphabet, coin.states, inputs, [0.8, 0.2])
        with pytest.raises(errors.StationaryMismatch) as want:
            reference_make_machine(coin.alphabet, coin.states, inputs, [0.8, 0.2])
        assert str(got.value) == str(want.value)
