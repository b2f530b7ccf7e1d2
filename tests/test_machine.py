import json

import numpy as np
import pytest

import quasihmm.linalg
import quasihmm.machine
from conftest import (
    all_words,
    assert_stationary,
    enumerated_word_gap,
    oracle_conditional_word_probability,
    oracle_state_overlap,
    oracle_word_probability,
    renewal_machine,
    word_distribution_gap,
    word_probability,
)
from quasihmm import errors
from quasihmm.machine import (
    PROCESS_EQUALITY_TOL,
    Machine,
    equivalence_residual,
    load_machine,
    machine_from_json_dict,
    make_machine,
    same_process,
)
from quasihmm.nmachine import (
    build_split_machine,
    generic_split_spec,
    perturbed_coin_ideal_params,
    perturbed_coin_split_spec,
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
from quasihmm.transforms import apply_map, two_state_map

_UNIFILAR = [
    perturbed_coin_epsilon(0.3), golden_mean_epsilon(0.4), even_process_epsilon(),
    unbiased_coin(), sns_epsilon_truncated(0.9),
]


@pytest.fixture
def coin():
    return perturbed_coin_epsilon(0.3)


def _three_symbol_machine():
    t = [
        [[0.2, 0.1], [0.0, 0.3]],
        [[0.3, 0.0], [0.25, 0.15]],
        [[0.1, 0.3], [0.05, 0.25]],
    ]
    return make_machine(("a", "b", "c"), ("s0", "s1"), t)


class TestWordProbability:
    """Word probabilities as the columns of ``pi @ conditional_future_matrix``."""

    def test_empty_word_is_one(self, coin):
        assert word_probability(coin, "") == 1.0

    def test_single_symbol_is_half_by_symmetry(self, coin):
        assert word_probability(coin, "0") == pytest.approx(0.5, abs=1e-15)
        assert word_probability(coin, "1") == pytest.approx(0.5, abs=1e-15)

    def test_double_zero(self, coin):
        # pi T0 T0 1 = (1-p)/2 = 0.35 at p = 0.3
        assert word_probability(coin, "00") == pytest.approx(0.35, abs=1e-15)

    @pytest.mark.parametrize("length", range(6))
    def test_against_path_sum_oracle(self, length):
        for machine in (perturbed_coin_epsilon(0.3), sns_g_machine(0.4), _three_symbol_machine()):
            probs = np.asarray(machine.stationary) @ machine.conditional_future_matrix(length)
            words = all_words(machine.alphabet, length)
            assert probs.shape == (len(words),)
            for word, value in zip(words, probs):
                assert value == pytest.approx(oracle_word_probability(machine, word), abs=1e-12)

    def test_equality_refuses_differing_alphabets(self, coin):
        with pytest.raises(errors.UnknownSymbol):
            same_process(coin, _three_symbol_machine())


class TestWordDistribution:
    def test_length_zero(self, coin):
        assert coin.word_distribution(0) == {"": 1.0}

    def test_length_one_uniform(self, coin):
        dist = coin.word_distribution(1)
        assert dist["0"] == pytest.approx(0.5, abs=1e-15)
        assert dist["1"] == pytest.approx(0.5, abs=1e-15)

    def test_golden_mean_length_two(self):
        # enumerate paths at p = 0.5: "11" impossible, rest 1/3 each
        dist = golden_mean_epsilon(0.5).word_distribution(2)
        assert dist["00"] == pytest.approx(1 / 3, abs=1e-12)
        assert dist["01"] == pytest.approx(1 / 3, abs=1e-12)
        assert dist["10"] == pytest.approx(1 / 3, abs=1e-12)
        assert dist["11"] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("length", range(9))
    def test_normalization(self, coin, length):
        dist = coin.word_distribution(length)
        assert sum(dist.values()) == pytest.approx(1.0, abs=(length + 1) * 1e-12)

    def test_marginal_consistency(self, coin):
        # Kolmogorov extension along the future
        for length in range(6):
            dist = coin.word_distribution(length)
            longer = coin.word_distribution(length + 1)
            for w, value in dist.items():
                extended = sum(longer[w + x] for x in coin.alphabet)
                assert extended == pytest.approx(value, abs=1e-12)

    def test_classical_machines_have_nonnegative_words(self):
        for machine in (perturbed_coin_epsilon(0.2), golden_mean_epsilon(0.7), sns_g_machine(0.6)):
            for length in range(7):
                assert min(machine.word_distribution(length).values()) >= -1e-12

    def test_decomposes_over_states(self, coin):
        dist = coin.word_distribution(4)
        futures = coin.conditional_future_matrix(4)
        pi = coin.stationary
        assert list(dist) == all_words(coin.alphabet, 4)
        for i, value in enumerate(dist.values()):
            parts = sum(pi[k] * futures[k, i] for k in range(coin.n_states))
            assert parts == pytest.approx(value, abs=1e-12)


class TestConditionalFuture:
    """Per-state conditionals as the rows of ``conditional_future_matrix``."""

    def test_length_zero(self, coin):
        futures = coin.conditional_future_matrix(0)
        assert futures.tolist() == [[1.0], [1.0]]

    def test_reads_off_edges(self, coin):
        row = coin.conditional_future_matrix(1)[0]
        assert row[0] == pytest.approx(0.7, abs=1e-15)
        assert row[1] == pytest.approx(0.3, abs=1e-15)

    def test_sns_g_machine_state_b(self):
        row = sns_g_machine(0.5).conditional_future_matrix(1)[1]
        assert row[0] == pytest.approx(0.5, abs=1e-15)
        assert row[1] == pytest.approx(0.5, abs=1e-15)

    def test_against_path_sum_oracle(self):
        for machine in (sns_g_machine(0.35), _three_symbol_machine()):
            futures = machine.conditional_future_matrix(3)
            words = all_words(machine.alphabet, 3)
            assert futures.shape == (machine.n_states, len(words))
            for state in range(machine.n_states):
                for word, value in zip(words, futures[state]):
                    expected = oracle_conditional_word_probability(machine, state, word)
                    assert value == pytest.approx(expected, abs=1e-12)

    def test_rows_normalize(self):
        machine = sns_g_machine(0.6)
        sums = machine.conditional_future_matrix(5).sum(axis=1)
        assert sums == pytest.approx(np.ones(machine.n_states), abs=1e-11)


def _prepend_built_words(alphabet, length):
    """The word list as first written: each length prepends every symbol."""
    words = [""]
    for _ in range(length):
        words = [x + w for x in alphabet for w in words]
    return words


def _product_along(machine, word):
    """Per-state conditional probability of ``word`` as a chain of matrix
    products from the identity, applied to the all-ones vector."""
    value = np.eye(machine.n_states)
    for symbol in word:
        value = value @ machine.stacked[machine.alphabet.index(symbol)]
    return value.sum(axis=1)


class TestWordOrder:
    @pytest.mark.parametrize("alphabet", [("0", "1"), ("a", "b", "c")])
    @pytest.mark.parametrize("length", range(9))
    def test_matches_prepend_built_list(self, alphabet, length):
        machine = sns_g_machine(0.35) if alphabet == ("0", "1") else _three_symbol_machine()
        assert machine.alphabet == alphabet
        reference = _prepend_built_words(alphabet, length)
        futures = machine.conditional_future_matrix(length)
        assert futures.shape == (machine.n_states, len(reference))
        assert list(machine.word_distribution(length)) == reference
        step = max(1, len(reference) // 40)
        for i in range(0, len(reference), step):
            for j in (i, -1 - i):
                expected = _product_along(machine, reference[j])
                assert futures[:, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("length", range(9))
    def test_distributions_keep_words_and_order(self, length):
        for machine in (sns_g_machine(0.35), _three_symbol_machine()):
            reference = _prepend_built_words(machine.alphabet, length)
            futures = machine.conditional_future_matrix(length)
            assert futures.shape == (machine.n_states, len(reference))
            dist = machine.word_distribution(length)
            probs = np.asarray(machine.stationary) @ futures
            assert list(dist) == reference
            assert dist == dict(zip(reference, probs.tolist()))

    def test_columns_follow_words(self):
        machine = _three_symbol_machine()
        words = _prepend_built_words(machine.alphabet, 4)
        futures = machine.conditional_future_matrix(4)
        for i in (0, 7, 40, -1):
            expected = oracle_conditional_word_probability(machine, 1, words[i])
            assert futures[1, i] == pytest.approx(expected, abs=1e-15)


class TestEnumerationCap:
    """At a cap of 16 words, length 4 of a binary alphabet is enumerated and
    length 5 is refused before any work."""

    @pytest.fixture(autouse=True)
    def cap_16(self, monkeypatch):
        monkeypatch.setattr(quasihmm.machine, "ENUMERATION_CAP", 16)

    def test_conditional_future_matrix(self, coin):
        assert coin.conditional_future_matrix(4).shape == (2, 16)
        with pytest.raises(errors.EnumerationCapExceeded, match=r"2\^5 words exceed the cap 16"):
            coin.conditional_future_matrix(5)
        with pytest.raises(ValueError, match="length must be nonnegative"):
            coin.conditional_future_matrix(-1)

    def test_word_distribution(self, coin):
        assert len(coin.word_distribution(4)) == 16
        with pytest.raises(errors.EnumerationCapExceeded):
            coin.word_distribution(5)

    def test_nonunifilar_future_fidelity_matrix(self):
        machine = sns_g_machine(0.45)
        assert machine.future_fidelity_matrix(4).shape == (2, 2)
        with pytest.raises(errors.EnumerationCapExceeded):
            machine.future_fidelity_matrix(5)

    def test_unifilar_recursion_enumerates_nothing(self, coin):
        assert coin.future_fidelity_matrix(9).shape == (2, 2)


class TestClassify:
    def test_perturbed_coin_is_classical_unifilar(self, coin):
        cls = coin.classify()
        assert cls.classical and cls.unifilar

    def test_sns_g_machine_is_classical_nonunifilar(self):
        cls = sns_g_machine(0.5).classify()
        assert cls.classical and not cls.unifilar

    def test_signed_machine_is_quasi(self):
        t0 = [[0.8, 0.2, -0.1], [0.2, 0.8, -0.1], [0.3, 0.3, 0.0]]
        t1 = [[0.0, 0.0, 0.1], [0.0, 0.0, 0.1], [0.1, 0.1, 0.2]]
        m = make_machine(("0", "1"), ("a", "b", "c"), [t0, t1])
        cls = m.classify()
        assert not cls.classical and not cls.unifilar


    def test_classification_is_remembered(self, monkeypatch):
        # the 0.05 entry is a second branch at the structural tolerance only
        t0 = [[0.6, 0.05], [0.0, 0.0]]
        t1 = [[0.0, 0.35], [1.0, 0.0]]
        m = make_machine(("0", "1"), ("a", "b"), [t0, t1])
        assert m.classify() is m.classify()
        assert not m.classify().unifilar
        monkeypatch.setattr(quasihmm.linalg, "STRUCT_TOL", 0.1)
        assert not m.classify().unifilar
        assert make_machine(("0", "1"), ("a", "b"), [t0, t1]).classify().unifilar


class TestMakeMachineChecks:
    def test_well_formed_machine(self, coin):
        assert_stationary(coin)

    def test_make_machine_rejects_bad_row_sum(self):
        with pytest.raises(errors.MachineFormatError, match="row-sum"):
            make_machine(("0", "1"), ("a", "b"),
                         [[[0.6, 0.0], [0.3, 0.0]], [[0.0, 0.3], [0.0, 0.7]]])

    def test_stale_stationary_has_large_residual(self, coin):
        stale = Machine(
            alphabet=coin.alphabet,
            states=coin.states,
            stacked=coin.stacked,
            stationary=np.array([0.8, 0.2]),
        )
        assert stale.stationary_residual > 0.1

    def test_make_machine_rejects_bad_rows(self):
        with pytest.raises(errors.MachineFormatError):
            make_machine(("0",), ("a",), [[[0.9]]])

    @pytest.mark.parametrize("index, shape", [
        ((slice(1),), (1, 2, 2)), ((0,), (2, 2)), ((slice(None), slice(1)), (2, 1, 2)),
    ])
    def test_make_machine_rejects_a_stack_of_the_wrong_shape(self, coin, index, shape):
        message = f"transition stack has shape {shape}, expected (2, 2, 2)"
        with pytest.raises(errors.MachineFormatError) as got:
            make_machine(coin.alphabet, coin.states, coin.stacked[index])
        assert str(got.value) == message

    def test_make_machine_rejects_non_finite_stationary(self, coin):
        with pytest.raises(errors.StationaryMismatch):
            make_machine(
                coin.alphabet, coin.states, coin.stacked,
                stationary=[float("nan"), 0.5],
            )

    def test_make_machine_rejects_bad_stationary(self, coin):
        with pytest.raises(errors.StationaryMismatch):
            make_machine(
                coin.alphabet, coin.states, coin.stacked,
                stationary=[0.9, 0.1],
            )

    @pytest.mark.parametrize("groups, message", [
        ([0], "groups has 1 entries, expected 2"),
        ([0, 1, 2], "groups has 3 entries, expected 2"),
        ([5, -3], "groups has a negative entry -3"),
        ([0.5, 1.7], "groups entry 0.5 is not an integer"),
        (["a", "b"], "groups entry 'a' is not an integer"),
        ([True, False], "groups entry True is not an integer"),
    ])
    def test_make_machine_rejects_bad_groups(self, coin, groups, message):
        with pytest.raises(errors.MachineFormatError, match=message):
            make_machine(coin.alphabet, coin.states, coin.stacked, groups=groups)

    def test_make_machine_takes_numpy_integer_groups(self, coin):
        m = make_machine(coin.alphabet, coin.states, coin.stacked,
                         groups=np.array([1, 0], dtype=np.int32))
        assert m.groups == (1, 0) and all(type(g) is int for g in m.groups)


class TestFutureFidelity:
    def test_matches_enumeration_for_unifilar(self):
        machine = golden_mean_epsilon(0.4)
        fid = machine.future_fidelity_matrix(5)
        for j in range(2):
            for k in range(2):
                expected = oracle_state_overlap(machine, j, k, 5)
                assert fid[j, k] == pytest.approx(expected, abs=1e-12)

    def test_enumeration_path_for_nonunifilar(self):
        machine = sns_g_machine(0.45)
        fid = machine.future_fidelity_matrix(4)
        for j in range(2):
            for k in range(2):
                expected = oracle_state_overlap(machine, j, k, 4)
                assert fid[j, k] == pytest.approx(expected, abs=1e-12)

    def test_diagonal_is_one(self, coin):
        fid = coin.future_fidelity_matrix(9)
        assert np.allclose(np.diag(fid), 1.0, atol=1e-12)

    @pytest.mark.parametrize("machine", _UNIFILAR, ids=lambda m: f"{m.n_states}-states")
    def test_slot_recursion_is_bit_identical_to_dense_products(self, machine):
        assert machine.classify().unifilar
        for horizon in (0, 1, 7, 12):
            assert np.array_equal(
                machine.future_fidelity_matrix(horizon), _dense_fidelity(machine, horizon)
            )

    def test_rows_with_several_nonzeros_get_several_slots(self):
        # unifilar at the default tolerance, yet with a second exact nonzero
        t0 = [[0.6 - 1e-12, 1e-12], [0.0, 0.0]]
        t1 = [[0.0, 0.4], [1.0, 0.0]]
        m = make_machine(("0", "1"), ("a", "b"), [t0, t1])
        assert m.classify().unifilar
        got = m.future_fidelity_matrix(9)
        assert np.max(np.abs(got - _dense_fidelity(m, 9))) <= 1e-15

    def test_horizon_pair_equals_separate_calls(self):
        for make in (lambda: sns_epsilon_truncated(0.5), lambda: sns_g_machine(0.45)):
            paired = make()
            upper = paired.future_fidelity_matrix(8)
            lower = paired.future_fidelity_matrix(7)
            assert np.array_equal(upper, make().future_fidelity_matrix(8))
            assert np.array_equal(lower, make().future_fidelity_matrix(7))

    def test_remembered_matrices_are_read_only(self, coin):
        fid = coin.future_fidelity_matrix(4)
        assert fid is coin.future_fidelity_matrix(4)
        with pytest.raises(ValueError):
            fid[0, 0] = 0.0

    def test_quasi_machine_rejected(self):
        t0 = [[1.2, -0.2], [0.0, 0.0]]
        t1 = [[0.0, 0.0], [0.5, 0.5]]
        m = make_machine(("0", "1"), ("a", "b"), [t0, t1])
        with pytest.raises(errors.QuasiMachineUnsupported):
            m.future_fidelity_matrix(3)


def reference_fidelity_step(m, fid):
    """``Machine.fidelity_step`` gathering each term with ``np.ix_``."""
    out = None
    for targets, amps in m._root_slots():
        for t_q, a_q in zip(targets, amps):
            inner = None
            for t_p, a_p in zip(targets, amps):
                term = fid[np.ix_(t_p, t_q)]
                term *= a_p[:, None]
                if inner is None:
                    inner = term
                else:
                    inner += term
            inner *= a_q[None, :]
            if out is None:
                out = inner
            else:
                out += inner
    return out


def _two_slot_machine():
    # every row of "0" has two exact nonzeros and one row of "1" none
    t0 = [[0.3, 0.2, 0.0], [0.0, 0.5, 0.5], [0.1, 0.0, 0.4]]
    t1 = [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]]
    return make_machine(("0", "1"), ("a", "b", "c"), [t0, t1])


class TestFidelityStepMatchesReference:
    @pytest.mark.parametrize("machine", [
        *_UNIFILAR[:-1], perturbed_coin_rjmc(0.7), sns_g_machine(0.6), _two_slot_machine(),
        sns_epsilon_truncated(0.5), sns_epsilon_truncated(0.9), sns_epsilon_truncated(0.95),
    ], ids=lambda m: f"{m.n_states}-" + "-".join(m.states[:2]))
    def test_twelve_steps_bit_identical(self, machine):
        got = expected = np.ones((machine.n_states, machine.n_states))
        for step in range(12):
            got = machine.fidelity_step(got)
            expected = reference_fidelity_step(machine, expected)
            assert got.tobytes() == expected.tobytes(), step

    def test_cases_cover_the_sizes_and_two_slots(self):
        assert [sns_epsilon_truncated(p).n_states for p in (0.5, 0.9, 0.95)] == [46, 296, 607]
        assert _two_slot_machine()._root_slots()[0][0].shape[0] == 2


class TestProcessEquality:
    def test_machine_equals_itself(self, coin):
        assert same_process(coin, coin)

    def test_different_parameters_differ(self):
        assert not same_process(perturbed_coin_epsilon(0.3), perturbed_coin_epsilon(0.31))

    def test_residual_is_positive_for_different_processes(self):
        a, b = golden_mean_epsilon(0.5), perturbed_coin_epsilon(0.3)
        assert equivalence_residual(a, b, np.concatenate([a.stationary, -b.stationary])) > 1e-3

    def test_decided_past_any_fixed_length(self):
        # two renewal processes whose waiting-time pmfs differ by eps, -2 eps
        # and eps at 10, 11 and 12 (same sum, same mean) first differ at
        # length 12
        pmf = 0.8 ** np.arange(15)
        eps = 2e-3 * pmf.sum()
        moved = pmf + np.isin(np.arange(15), [10, 12]) * eps - (np.arange(15) == 11) * 2 * eps
        a, b = renewal_machine(pmf), renewal_machine(moved)
        assert word_distribution_gap(a, b, 11) < 1e-12 < word_distribution_gap(a, b, 12)
        assert not same_process(a, b)
        coin = perturbed_coin_epsilon(0.3)
        assert same_process(coin, apply_map(coin, two_state_map(2.0, -0.5)))
        source = golden_mean_epsilon(0.4)
        spec = generic_split_spec(source, (2, 1))
        split = build_split_machine(source, spec, dict.fromkeys(spec.param_names, 0.0))
        assert same_process(source, split)

    def test_agrees_with_enumeration_to_the_length_bound(self):
        """Equality of ``starts[i] @ T_w @ 1`` over all words is decided by the
        words up to length n_a + n_b - 1 (Paz 1971, Tzeng 1992), so the
        residual and that enumeration give the same verdict.  Draws (seed
        11): 30 random classical pairs with 2-4 states each and three
        renewal pairs that differ, each first machine also against itself
        with one state doubled; and two pairs of cycles whose per-state
        futures first differ at the bound."""
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(30):
            a, b = (_random_classical(rng, int(rng.integers(2, 5))) for _ in range(2))
            cases.append((a, b, False))
            cases.append((a, _double_first_state(a, float(rng.uniform())), True))
        for size in (5, 6, 8):
            pmf = rng.uniform(0.2, 1.0, size)
            moved = pmf.copy()
            moved[size - 3:] += np.array([1.0, -2.0, 1.0]) * 0.01 * pmf.sum()
            a = renewal_machine(pmf)
            cases.append((a, renewal_machine(moved), False))
            cases.append((a, _double_first_state(a, float(rng.uniform())), True))
        for a, b in ((_cycle("01"), _cycle("010")), (_cycle("001"), _cycle("0010"))):
            bound = a.n_states + b.n_states - 1
            start = np.zeros(bound + 1)
            start[0], start[a.n_states] = 1.0, -1.0
            assert enumerated_word_gap(a, b, start, bound - 1) == 0.0
            assert enumerated_word_gap(a, b, start, bound) == 1.0
            assert equivalence_residual(a, b, start) > PROCESS_EQUALITY_TOL
        verdicts = set()
        for a, b, equal in cases:
            starts = [np.concatenate([a.stationary, -b.stationary])]
            if equal:
                # each state of the doubled machine against the state it copies
                copied = [0, 0, *range(1, a.n_states)]
                starts += np.hstack([np.eye(a.n_states)[copied], -np.eye(b.n_states)]).tolist()
            for start in starts:
                bound = a.n_states + b.n_states - 1
                differ = enumerated_word_gap(a, b, start, bound) > PROCESS_EQUALITY_TOL
                assert (equivalence_residual(a, b, start) > PROCESS_EQUALITY_TOL) == differ
                assert differ != equal
                verdicts.add(differ)
        assert verdicts == {False, True}


def _random_classical(rng, n):
    """A random two-symbol classical machine with n states, about a third of
    its entries zero."""
    stacked = rng.uniform(size=(2, n, n)) * (rng.uniform(size=(2, n, n)) > 0.3)
    stacked[0, :, 0] += 0.1  # no zero row
    stacked /= stacked.sum(axis=(0, 2))[:, None]
    return make_machine("01", [f"s{k}" for k in range(n)], stacked)


def _double_first_state(m, share):
    """``m`` with state 0 doubled: both copies keep its outgoing row, and its
    inflow goes to the first copy with weight ``share``."""
    rows = np.concatenate([m.stacked[:, :1], m.stacked], axis=1)
    inflow = rows[:, :, :1]
    stacked = np.concatenate([inflow * share, inflow * (1.0 - share), rows[:, :, 1:]], axis=2)
    return make_machine(m.alphabet, ["s0a", "s0b", *m.states[1:]], stacked)


def _cycle(pattern):
    """The deterministic cycle that emits ``pattern`` over and over."""
    n = len(pattern)
    stacked = np.zeros((2, n, n))
    for k, x in enumerate(pattern):
        stacked[int(x), k, (k + 1) % n] = 1.0
    return make_machine("01", [f"c{k}" for k in range(n)], stacked)


def _dense_fidelity(machine, horizon):
    """Reference overlap recursion with dense square-root matrices."""
    roots = [np.sqrt(np.clip(matrix, 0.0, None)) for matrix in machine.stacked]
    fid = np.ones((machine.n_states, machine.n_states))
    for _ in range(horizon):
        fid = sum(s @ fid @ s.T for s in roots)
    return fid


def _json_text_machines():
    zoo = [
        perturbed_coin_epsilon(0.3), perturbed_coin_rjmc(0.7), golden_mean_epsilon(0.4),
        sns_g_machine(0.5), sns_epsilon_truncated(0.5), sns_epsilon_truncated(0.9),
        even_process_epsilon(), unbiased_coin(),
    ]
    coin = perturbed_coin_epsilon(0.3)
    split = build_split_machine(
        coin, perturbed_coin_split_spec(0.3),
        dict(zip(("q1", "q2"), perturbed_coin_ideal_params(0.3))),
    )
    signed = make_machine(
        ("0", "1"), ("a", "b", "c"),
        [[[0.8, 0.2, -0.1], [0.2, 0.8, -0.1], [0.3, 0.3, 0.0]],
         [[0.0, 0.0, 0.1], [0.0, 0.0, 0.1], [0.1, 0.1, 0.2]]],
    )
    return zoo + [split, signed]


class TestMachineIO:
    @pytest.mark.parametrize("machine", _json_text_machines(), ids=lambda m: str(m.states[:2]))
    def test_json_text_matches_indented_json_dumps(self, machine):
        assert machine.to_json_text() == json.dumps(machine.to_json_dict(), indent=2) + "\n"

    def test_json_text_of_empty_fields(self):
        m = Machine(alphabet=(), states=(), stacked=np.zeros((0, 0, 0)), stationary=np.zeros(0),
                    groups=())
        assert m.to_json_text() == json.dumps(m.to_json_dict(), indent=2) + "\n"

    def test_round_trip_bit_exact(self, tmp_path, coin):
        path = tmp_path / "coin.json"
        coin.save(path)
        loaded = load_machine(path)
        assert loaded.states == coin.states
        assert loaded.alphabet == coin.alphabet
        assert np.array_equal(loaded.stacked, coin.stacked)
        assert np.array_equal(loaded.stationary, coin.stationary)

    def test_round_trip_irrational_entries(self, tmp_path):
        machine = golden_mean_epsilon(np.exp(-1))
        path = tmp_path / "gm.json"
        machine.save(path)
        loaded = load_machine(path)
        assert np.array_equal(loaded.stacked, machine.stacked)
        assert np.array_equal(loaded.stationary, machine.stationary)

    def test_groups_survive_round_trip(self, tmp_path):
        m = unbiased_coin()
        grouped = Machine(
            alphabet=m.alphabet, states=m.states, stacked=m.stacked,
            stationary=m.stationary, groups=(0,),
        )
        path = tmp_path / "coin.json"
        grouped.save(path)
        assert load_machine(path).groups == (0,)

    def test_missing_stationary_is_recomputed(self, tmp_path, coin):
        doc = coin.to_json_dict()
        del doc["stationary"]
        path = tmp_path / "nopi.json"
        path.write_text(json.dumps(doc))
        loaded = load_machine(path)
        assert loaded.stationary == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(errors.MachineFormatError):
            load_machine(path)

    def test_wrong_stationary_in_file_rejected(self, tmp_path, coin):
        doc = coin.to_json_dict()
        doc["stationary"] = [0.9, 0.1]
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(errors.StationaryMismatch):
            load_machine(path)

    @pytest.mark.parametrize("field, value", [
        ("0", [[0.7, np.False_], [0.3, 0.0]]),
        ("0", [np.array([0.7, 0.0]), np.array([True, False])]),
        ("stationary", (0.5, np.True_)),
    ])
    def test_numpy_bool_among_numbers_is_refused(self, coin, field, value):
        doc = coin.to_json_dict()
        if field == "stationary":
            doc["stationary"] = value
        else:
            doc["matrices"][field] = value
        with pytest.raises(errors.MachineFormatError, match="is not a numeric array"):
            machine_from_json_dict(doc)

    def test_numeric_ndarrays_are_read_as_they_are(self, coin):
        doc = coin.to_json_dict()
        doc["matrices"] = {x: np.array(m) for x, m in zip(coin.alphabet, coin.stacked)}
        doc["stationary"] = np.array(coin.stationary)
        loaded = machine_from_json_dict(doc)
        assert loaded.stacked.tobytes() == coin.stacked.tobytes()
        assert loaded.stationary.tobytes() == coin.stationary.tobytes()
