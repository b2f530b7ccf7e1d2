"""The word enumeration, the Shannon estimate and the machine writer and
reader pinned against the code they replaced.

``reference_futures`` builds the conditional futures by the dense product
``np.hstack([T[x] @ futures ...])`` at every step,
``reference_excess_entropy_shannon`` enumerates the length-h and the
length-(h-1) words separately, ``reference_to_json_text`` formats every
entry with ``float.__repr__``, and ``general_read`` reads a machine file by
``json.loads`` of its whole text.  The library must give the same futures
byte for byte, the same Shannon value and residual to the last bit, the
same machine file, and the same machine or error from every file.
"""

import json
import os
import re

import numpy as np
import pytest

import quasihmm.machine
from quasihmm import cli, errors, quantum
from quasihmm.machine import Machine, load_machine, machine_from_json_dict, make_machine
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


def _sparse_signed():
    # few enough nonzeros that the reader takes the file's nonzero lines:
    # a signed zero, a subnormal and a 1.0 among them
    n = 24
    t = np.zeros((2, n, n))
    t[0, np.arange(n), (np.arange(n) + 1) % n] = 0.75
    t[1, :, 0] = 0.25
    t[:, 2] = 0.0
    t[0, 2, 3] = 1.0
    t[0, 0, 5] = -0.0
    t[1, 3, 7] = 5e-324
    return make_machine(("0", "1"), [f"q{j}" for j in range(n)], t)


def _funnel():
    # every state leads to the last, which is absorbing: one nonzero in the
    # stationary vector and no nonzero in the matrix of "1"
    n = 24
    t = np.zeros((2, n, n))
    t[0, np.arange(n - 1), np.arange(1, n)] = 1.0
    t[0, n - 1, n - 1] = 1.0
    return make_machine(("0", "1"), [f"f{j}" for j in range(n)], t)


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
            _sparse_signed(), _funnel(), sns_epsilon_truncated(0.9)] + _split_machines()[:2]


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


def general_read(path):
    """The machine of a file as ``json.loads`` of its whole text gives it,
    with the error wrapping of ``load_machine``."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise errors.MachineFormatError(f"cannot read machine file {path}: {exc}") from exc
    return machine_from_json_dict(doc)


def outcome(read, path):
    """The fields of the machine ``read(path)`` gives, its arrays as bits,
    or the class and message of the error it raises."""
    try:
        m = read(path)
    except errors.QuasiHmmError as exc:
        return type(exc), str(exc)
    return (m.alphabet, m.states, m.groups, m.stacked.shape,
            m.stacked.view(np.uint64).tobytes(), m.stationary.view(np.uint64).tobytes())


def _minified(text):
    return json.dumps(json.loads(text))


def _extra_key(text):
    return json.dumps({**json.loads(text), "note": "hand-edited"}, indent=2) + "\n"


def _reordered(text):
    doc = json.loads(text)
    return json.dumps({key: doc[key] for key in reversed(doc)}, indent=2) + "\n"


def _symbols_reordered(text):
    # the lines keep the writer's layout, with the matrices in reverse
    # alphabet order: read by position they would be swapped
    doc = json.loads(text)
    doc["matrices"] = {x: doc["matrices"][x] for x in reversed(doc["matrices"])}
    return json.dumps(doc, indent=2) + "\n"


def _long_one(text):
    changed = re.sub(r"^( +)1\.0(,?)$", r"\g<1>1.00\2", text, count=1, flags=re.M)
    assert changed != text
    return changed


def _bool_entry(text):
    changed = re.sub(r"^( +)0\.0,$", r"\g<1>true,", text, count=1, flags=re.M)
    assert changed != text
    return changed


_VARIANTS = {
    "minified": _minified,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "extra-key": _extra_key,
    "reordered": _reordered,
    "symbols-reordered": _symbols_reordered,
    "long-one": _long_one,
    "bool-entry": _bool_entry,
    "truncated": lambda text: text[:len(text) // 2],
}


class TestReadPathsAgree:
    # the writer's cases include the 296-state sns-epsilon model
    @pytest.mark.parametrize("machine", _writer_machines(), ids=_ids)
    def test_written_file(self, tmp_path, machine):
        path = tmp_path / "m.json"
        machine.save(path)
        assert outcome(load_machine, path) == outcome(general_read, path)

    def test_607_state_sns_epsilon_file(self, tmp_path):
        path = tmp_path / "m.json"
        sns_epsilon_truncated(0.95).save(path)
        assert outcome(load_machine, path) == outcome(general_read, path)

    @pytest.mark.parametrize("variant", list(_VARIANTS), ids=str)
    @pytest.mark.parametrize("base", ["sns-296", "sparse-signed"])
    def test_other_layouts(self, tmp_path, base, variant):
        source = sns_epsilon_truncated(0.9) if base == "sns-296" else _sparse_signed()
        path = tmp_path / "m.json"
        path.write_bytes(_VARIANTS[variant](source.to_json_text()).encode())
        assert outcome(load_machine, path) == outcome(general_read, path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("variant", ["written", "minified"])
    def test_stream_is_read_once(self, tmp_path, variant):
        # a pipe gives its bytes to one read only: the written file and the
        # minified one, which the sparse read turns down, both load from it
        text = _sparse_signed().to_json_text()
        if variant == "minified":
            text = _minified(text)
        path = tmp_path / "m.json"
        path.write_text(text)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())  # fits in the pipe's buffer
            os.close(write_end)
            streamed = outcome(load_machine, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert streamed == outcome(load_machine, path)
        assert streamed[0] == ("0", "1")

    def test_sparse_path_is_chosen_by_the_share_of_nonzeros(self, tmp_path, monkeypatch):
        # a sparse written file is read from its nonzero lines; a dense one
        # is refused before any machine is built, so one build runs for each
        read, build = quasihmm.machine._read_written_layout, machine_from_json_dict
        taken, builds = [], []

        def spy(data):
            machine = read(data)
            taken.append(machine is not None)
            return machine

        monkeypatch.setattr(quasihmm.machine, "_read_written_layout", spy)
        monkeypatch.setattr(quasihmm.machine, "machine_from_json_dict",
                            lambda doc: builds.append(doc) or build(doc))
        for machine in (sns_epsilon_truncated(0.9), _sparse_signed(), _funnel(),
                        _writer_machines()[2]):
            machine.save(tmp_path / "m.json")
            load_machine(tmp_path / "m.json")
        assert taken == [True, True, True, False]
        assert len(builds) == 4


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

    def test_measures_share_the_remembered_overlaps(self):
        machine = sns_epsilon_truncated(0.5)
        first, second = (quantum.gram_from_machine(machine, 12) for _ in range(2))
        assert first.overlaps is second.overlaps is machine.future_fidelity_matrix(12)
        assert first.residual == second.residual

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
