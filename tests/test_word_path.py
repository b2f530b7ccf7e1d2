"""The word enumeration, the Shannon estimate and the machine writer pinned
against the code they replaced.

``reference_futures`` builds the conditional futures by the dense product
``np.hstack([T[x] @ futures ...])`` at every step,
``reference_excess_entropy_shannon`` enumerates the length-h and the
length-(h-1) words separately, and ``reference_to_json_text`` formats every
entry with ``float.__repr__``.  The library must give the same futures byte
for byte, the same Shannon value and residual to the last bit, and the same
machine file.
"""

import json

import numpy as np
import pytest

import quasihmm.machine
from quasihmm import cli, errors, quantum
from quasihmm.machine import Machine, make_machine
from quasihmm.measures import excess_entropy_shannon
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

MAX_LENGTH = 12


def reference_futures(m, max_length=MAX_LENGTH):
    """The conditional futures of lengths 0..``max_length`` by dense products."""
    futures = np.ones((m.n_states, 1))
    out = [futures]
    for _ in range(max_length):
        futures = np.hstack([matrix @ futures for matrix in m.stacked])
        out.append(futures)
    return out


def one_nonzero_per_row(m):
    """Whether every symbol's matrix has at most one exact nonzero per row,
    the condition under which ``future_step`` gathers."""
    return all(np.count_nonzero(matrix, axis=1).max(initial=0) <= 1 for matrix in m.stacked)


def reference_excess_entropy_shannon(m, horizon):
    """(value, residual) from two separate dense enumerations."""

    def estimate(length):
        fut = reference_futures(m, length)[-1]
        fut = np.clip(fut, 0.0, None)
        pi = np.clip(np.asarray(m.stationary), 0.0, None)
        marginal = pi @ fut
        joint = pi[:, None] * fut
        rows, cols = np.nonzero(joint > 0)
        return float(np.sum(joint[rows, cols] * np.log2(fut[rows, cols] / marginal[cols])))

    value = estimate(horizon)
    prev = estimate(horizon - 1)
    return value, abs(value - prev)


def reference_to_json_text(m):
    """The machine file with ``float.__repr__`` on every entry."""

    def array(items, pad):
        if not items:
            return ["[]"]
        inner = "\n" + pad + "  "
        return ["[" + inner, ("," + inner).join(items), "\n" + pad + "]"]

    def numbers(values, pad):
        return array(list(map(float.__repr__, values.tolist())), pad)

    def obj(fields, pad):
        if not fields:
            return ["{}"]
        inner = "\n" + pad + "  "
        pieces = ["{"]
        for i, (key, value) in enumerate(fields):
            pieces.append(("," if i else "") + inner + json.dumps(key) + ": ")
            pieces.extend(value)
        pieces.append("\n" + pad + "}")
        return pieces

    matrices = [
        (x, array(["".join(numbers(row, "      ")) for row in matrix], "    "))
        for x, matrix in zip(m.alphabet, m.stacked)
    ]
    fields = [
        ("alphabet", array(list(map(json.dumps, m.alphabet)), "  ")),
        ("states", array(list(map(json.dumps, m.states)), "  ")),
        ("matrices", obj(matrices, "  ")),
        ("stationary", numbers(np.asarray(m.stationary), "  ")),
    ]
    if m.groups is not None:
        fields.append(("groups", array(list(map(str, m.groups)), "  ")))
    return "".join(obj(fields, "") + ["\n"])


def _signed_unifilar():
    # one nonzero per row and symbol, negative entries, a signed zero, and
    # rows of "1" with no nonzero at all: products of a negative entry and a
    # zero future are -0.0, which the matrix product sums to +0.0
    t0 = [[0.0, 1.5, 0.0], [0.0, 0.0, 1.0], [-0.0, 1.0, 0.0]]
    t1 = [[-0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    return make_machine(("0", "1"), ("a", "b", "c"), [t0, t1])


def _zero_row():
    # the golden mean's "1" row of state B is all zero; signed zeros too
    t0 = [[0.6, -0.0], [-0.0, 1.0]]
    t1 = [[0.0, 0.4], [-0.0, 0.0]]
    return make_machine(("0", "1"), ("A", "B"), [t0, t1])


def _signed_three_symbol():
    t = [
        [[0.2, -0.0, 0.1], [0.0, 0.3, -0.05], [0.4, -0.0, 0.1]],
        [[0.3, -0.0, 0.05], [0.25, 0.15, 0.1], [-0.1, -0.0, 0.2]],
        [[0.1, -0.0, 0.25], [0.05, 0.3, -0.1], [0.1, -0.0, 0.3]],
    ]
    return make_machine(("a", "b", "c"), ("s0", "s1", "s2"), t)


def _zoo():
    return [
        perturbed_coin_epsilon(0.3), perturbed_coin_rjmc(0.3), perturbed_coin_rjmc(0.7),
        golden_mean_epsilon(0.4), even_process_epsilon(), unbiased_coin(), sns_g_machine(0.6),
        sns_epsilon_truncated(0.5), wigner_as_machine(wigner_qubit_representation(0.3)),
        _signed_three_symbol(), _signed_unifilar(), _zero_row(),
    ]


def _split_machines():
    rng = np.random.default_rng(11)
    out = []
    for p in (0.2, 0.7):
        for b in (BRANCH_PLUS, BRANCH_MINUS):
            q = perturbed_coin_ideal_params(p, b)
            out.append(build_split_machine(perturbed_coin_epsilon(p),
                                           perturbed_coin_split_spec(p),
                                           dict(zip(("q1", "q2"), q))))
            g = sns_ideal_params(p, branch=b)
            out.append(build_split_machine(sns_g_machine(p), sns_split_spec(p),
                                           dict(zip(("gamma", "eta"), g))))
    out.append(build_split_machine(golden_mean_epsilon(0.5), golden_mean_bad_split_spec(0.5),
                                   {"q": -0.4}))
    source = golden_mean_epsilon(0.4)
    spec = generic_split_spec(source, (2, 1))
    values = rng.uniform(-1, 1, len(spec.param_names))
    out.append(build_split_machine(source, spec, dict(zip(spec.param_names, values))))
    return out


def _ids(m):
    return f"{m.n_states}-" + "-".join(m.states[:2])


def assert_futures_match(m):
    reference = reference_futures(m)
    for length, expected in enumerate(reference):
        futures = m.conditional_future_matrix(length)
        assert futures.shape == expected.shape == (m.n_states, len(m.alphabet) ** length)
        assert futures.tobytes() == expected.tobytes(), length


class TestFuturesMatchReference:
    @pytest.mark.parametrize("machine", _zoo(), ids=_ids)
    def test_zoo(self, machine):
        assert_futures_match(machine)

    @pytest.mark.parametrize("p,states", [(0.5, 46), (0.9, 296), (0.95, 607)])
    def test_sns_epsilon(self, p, states):
        machine = sns_epsilon_truncated(p)
        assert machine.n_states == states
        assert one_nonzero_per_row(machine)
        assert_futures_match(machine)

    @pytest.mark.parametrize("machine", _split_machines(), ids=_ids)
    def test_split_machines(self, machine):
        assert_futures_match(machine)

    def test_split_machines_are_signed(self):
        signed = [m for m in _split_machines() if np.min(m.stacked) < 0]
        assert len(signed) == 9

    def test_signed_unifilar_machine_takes_the_gather(self):
        machine = _signed_unifilar()
        assert one_nonzero_per_row(machine)
        assert np.min(machine.stacked) < 0
        futures = machine.conditional_future_matrix(6)
        # without the sign fix the gather would leave -0.0 here
        zeros = futures == 0.0
        assert zeros.any() and not np.signbit(futures[zeros]).any()

    def test_all_zero_row_gives_positive_zeros(self):
        machine = _zero_row()
        assert one_nonzero_per_row(machine)
        futures = machine.conditional_future_matrix(4)
        zeros = futures == 0.0
        assert zeros.any() and not np.signbit(futures[zeros]).any()

    def test_two_nonzero_rows_take_the_product(self):
        # sns-g has two nonzeros in a row of "0"; its futures still match
        machine = sns_g_machine(0.5)
        assert not one_nonzero_per_row(machine)
        assert_futures_match(machine)

    def test_future_step_extends_by_one_symbol(self):
        machine = sns_epsilon_truncated(0.5)
        short = machine.conditional_future_matrix(5)
        long = machine.conditional_future_matrix(6)
        assert machine.future_step(short).tobytes() == long.tobytes()


class TestShannonMatchesReference:
    @pytest.mark.parametrize(
        "machine", [m for m in _zoo() if m.classify().classical], ids=_ids
    )
    @pytest.mark.parametrize("horizon", [1, 2, 7])
    def test_zoo(self, machine, horizon):
        report = excess_entropy_shannon(machine, horizon)
        value, residual = reference_excess_entropy_shannon(machine, horizon)
        assert report.value.hex() == value.hex()
        assert report.residual.hex() == residual.hex()

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.95])
    def test_sns_epsilon(self, p):
        machine = sns_epsilon_truncated(p)
        report = excess_entropy_shannon(machine, 12)
        value, residual = reference_excess_entropy_shannon(machine, 12)
        assert report.value.hex() == value.hex()
        assert report.residual.hex() == residual.hex()

    def test_cap_applies_to_the_full_horizon(self, monkeypatch):
        # 2^4 words fit the cap, 2^5 do not: refused before any enumeration
        monkeypatch.setattr(quasihmm.machine, "ENUMERATION_CAP", 16)
        machine = golden_mean_epsilon(0.4)
        with pytest.raises(errors.EnumerationCapExceeded):
            excess_entropy_shannon(machine, 5)
        assert excess_entropy_shannon(machine, 4).value > 0


def _writer_machines():
    tiny = 5e-324
    odd = make_machine(
        ("0", "1"), ("a", "b"),
        [[[0.5, tiny], [-0.0, 0.25]], [[0.5, 0.0], [0.75, -0.0]]],
    )
    one_state = make_machine(("0", "1"), ("s",), [[[0.3]], [[0.7]]])
    dense = make_machine(
        ("a", "b"), ("x", "y", "z"),
        [[[0.1, 0.2, 0.3], [0.3, 0.1, 0.2], [0.2, 0.2, 0.2]],
         [[0.1, 0.2, 0.1], [0.1, 0.2, 0.1], [0.1, 0.1, 0.2]]],
        groups=(0, 0, 1),
    )
    return [odd, one_state, dense, _signed_three_symbol(), _zero_row(), _signed_unifilar(),
            sns_epsilon_truncated(0.9)] + _split_machines()[:2]


class TestWriterMatchesReference:
    @pytest.mark.parametrize("machine", _writer_machines(), ids=_ids)
    def test_bytes(self, machine):
        text = machine.to_json_text()
        assert text == reference_to_json_text(machine)
        assert text == json.dumps(machine.to_json_dict(), indent=2) + "\n"

    def test_signed_zero_and_subnormal_are_written(self):
        text = _writer_machines()[0].to_json_text()
        assert "-0.0" in text and "5e-324" in text

    def test_directly_constructed_machine(self):
        coin = perturbed_coin_epsilon(0.3)
        machine = Machine(alphabet=coin.alphabet, states=coin.states,
                          stacked=np.array(coin.stacked), stationary=np.array([0.7, 0.3]))
        assert machine.to_json_text() == reference_to_json_text(machine)


class TestOneGramSpectrum:
    def test_measures_share_one_eigensolve(self, monkeypatch):
        # each measure on an ensemble of its own machine
        expected = [quantum.quantum_complexity(
                        quantum.gram_from_machine(sns_epsilon_truncated(0.5), 12), kind)
                    for kind in (quantum.RENYI2, quantum.VON_NEUMANN)]
        machine = sns_epsilon_truncated(0.5)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        got = [quantum.quantum_complexity(quantum.gram_from_machine(machine, 12), kind)
               for kind in (quantum.RENYI2, quantum.VON_NEUMANN)]
        assert len(calls) == 1
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert quantum.gram_from_machine(machine, 12) is quantum.gram_from_machine(machine, 12)

    def test_renyi2_alone_makes_no_eigensolve(self, eigensolves):
        gram = quantum.gram_from_machine(sns_epsilon_truncated(0.5), 12)
        quantum.quantum_complexity(gram, quantum.RENYI2)
        assert eigensolves == []

    @pytest.mark.parametrize("figure", ["fig5", "fig9"])
    def test_figures_make_no_eigensolve(self, capsys, eigensolves, figure):
        assert cli.main(["reproduce", figure]) == 0
        assert "C_q2" in capsys.readouterr().out
        assert eigensolves == []

    def test_non_psd_is_refused_on_every_call(self):
        gram = quantum.GramEnsemble(weights=np.array([0.5, 0.5]),
                                    overlaps=np.array([[1.0, 2.0], [2.0, 1.0]]),
                                    horizon=1, residual=0.0)
        for kind in (quantum.RENYI2, quantum.VON_NEUMANN):
            with pytest.raises(errors.NonPSD):
                quantum.quantum_complexity(gram, kind)
