import json
import math
import time
import warnings

import pytest

from conftest import assert_stationary, spearman
from quasihmm import cli, errors
from quasihmm.machine import Machine, load_machine, machine_from_json_dict, same_process
from quasihmm.measures import MEASURES, perturbed_coin_excess_half
from quasihmm.nmachine import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    build_split_machine,
    perturbed_coin_ideal_params,
    perturbed_coin_split_spec,
    sns_ideal_params,
)
from quasihmm.processes import perturbed_coin_epsilon, sns_g_machine


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMakeMachine:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--process", "perturbed-coin", "--p", "0.3"),
            ("--process", "perturbed-coin-rjmc", "--p", "0.7"),
            ("--process", "golden-mean", "--p", "0.5"),
            ("--process", "sns-g", "--p", "0.5"),
            ("--process", "sns-epsilon", "--p", "0.5"),
            ("--process", "even",),
            ("--process", "unbiased-coin",),
        ],
    )
    def test_emits_valid_machines(self, capsys, argv):
        code, out, _ = run(capsys, "make-machine", *argv)
        assert code == 0
        assert_stationary(machine_from_json_dict(json.loads(out)))

    def test_missing_p_is_validation_error(self, capsys):
        code, _, err = run(capsys, "make-machine", "--process", "perturbed-coin")
        assert code == 2
        assert json.loads(err)["error"] == "ValueError"

    def test_degenerate_p_is_validation_error(self, capsys):
        code, _, err = run(capsys, "make-machine", "--process", "perturbed-coin", "--p", "0.5")
        assert code == 2
        assert json.loads(err)["error"] == "DegenerateParameter"

    def test_writes_to_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "make-machine", "--process", "golden-mean", "--p", "0.4", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert load_machine(path).n_states == 2


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: the exit code of each error class: input validation, unsupported
#: measure, numerical failure
EXIT_CODES = {
    **dict.fromkeys((
        "ValidationError", "MachineFormatError", "NonFiniteEntries", "DegenerateParameter",
        "SpecMismatch", "UnknownSymbol", "UnsupportedProcess", "TruncationTooCoarse",
        "TruncationTooLarge", "StationaryMismatch", "DimensionMismatch",
    ), 2),
    **dict.fromkeys((
        "UnsupportedError", "QuasiMachineUnsupported", "NegativeEntriesUnsupportedOrder",
        "ZeroEntryWithQuasiOrder", "NegativeConditional", "InvalidAlpha",
    ), 3),
    **dict.fromkeys((
        "NumericalError", "NoUnitEigenvalue", "DegenerateFixedSpace", "SingularMatrix",
        "NonPSD", "IsometryViolated", "NegativeRadicand", "NoFeasiblePoint",
        "PropertyViolated", "EnumerationCapExceeded",
    ), 4),
}


@pytest.mark.parametrize("error", sorted(set(_subclasses(errors.QuasiHmmError)),
                                         key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_has_one_exit_code(error, capsys, monkeypatch):
    bases = (errors.ValidationError, errors.UnsupportedError, errors.NumericalError)
    assert sum(issubclass(error, base) for base in bases) == 1
    assert error.exit_code == EXIT_CODES[error.__name__]

    def fail(args):
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "cmd_wigner", fail)
    code, out, err = run(capsys, "wigner", "--p", "0.3")
    assert code == error.exit_code
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error.__name__, "message": "synthetic failure"}


#: arguments each subcommand needs besides its options; a usage error is
#: refused before a file is opened or a value computed
SUBCOMMANDS = {
    "make-machine": ("--process", "perturbed-coin", "--p", "0.3"),
    "measures": ("m.json", "--all"),
    "sweep": ("--p-grid", "0.3"),
    "reproduce": ("fig5",),
    "construct-nmachine": ("--process", "perturbed-coin", "--p", "0.3"),
    "transform": ("--machine", "m.json", "--a", "0.5", "--b", "0.0"),
    "wigner": ("--p", "0.3"),
}
WITH_HORIZON = {"measures", "sweep", "reproduce", "construct-nmachine"}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_takes_only_the_options_it_reads(command, capsys):
    argv = [command, *SUBCOMMANDS[command]]
    parsed = vars(cli.build_parser().parse_args(argv))
    assert ("horizon" in parsed) == (command in WITH_HORIZON)
    assert ("seed" in parsed) == (command == "construct-nmachine")
    assert "tol" not in parsed and "out" in parsed
    refused = [("--tol", "1e-3")]
    if command != "construct-nmachine":
        refused.append(("--seed", "1"))
    if command not in WITH_HORIZON:
        refused.append(("--horizon", "3"))
    for option in refused:
        code, out, err = run(capsys, *argv, *option)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        message = f"quasihmm: unrecognized arguments: {' '.join(option)}"
        assert json.loads(lines[0]) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("argv", [
    ("wigner", "--p", "abc"),
    ("measures",),
    (),
    ("make-machine", "--process", "nope"),
    ("sweep", "--horizon"),
])
def test_usage_error_exits_2_with_one_json_line(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValueError" and error["message"].startswith("quasihmm")


@pytest.mark.parametrize("argv, error, message", [
    (("construct-nmachine", "--process", "perturbed-coin", "--p", "0.3", "--params", "q1=0,q2"),
     "ValueError", "parameter 'q2' is not of the form name=value"),
    (("sweep", "--process", "sns", "--p-grid", "0.3,1.2"),
     "ValueError", "p grid values must lie strictly between 0 and 1"),
    (("sweep", "--process", "golden-mean", "--p-grid", "0,0.5"),
     "ValueError", "p grid values must lie strictly between 0 and 1"),
    (("construct-nmachine", "--process", "perturbed-coin", "--p", "0.3", "--split", "2"),
     "SpecMismatch", "copy counts (2,) do not fit 2 states"),
])
def test_value_the_request_cannot_use_exits_2(argv, error, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": error, "message": message}


@pytest.mark.parametrize("field, value, error", [
    # an infinite split parameter
    (None, None, "NonFiniteEntries"),
    # a row that sums past the largest float across symbols
    ("matrices", {"0": [[1e308, 0.0], [0.3, 0.0]], "1": [[1e308, -1e308], [0.0, 0.7]]},
     "NonFiniteEntries"),
    # a stationary vector that sums past it
    ("stationary", [1e308, 1e308], "StationaryMismatch"),
])
def test_overflow_is_refused_without_numpy_warnings(field, value, error, capsys, tmp_path):
    argv = ["construct-nmachine", "--process", "perturbed-coin", "--p", "0.3",
            "--params", "q1=inf,q2=0.1"]
    if field is not None:
        doc = perturbed_coin_epsilon(0.3).to_json_dict()
        doc[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        argv = ["measures", str(path), "--all"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        cli.main(["wigner", "--help"])
    assert raised.value.code == 0
    assert "--p" in capsys.readouterr().out


class TestOversizedSns:
    """A truncation beyond the state cap, or one whose survival probability
    underflows to 0, is refused before any allocation: exit 2, one JSON
    line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("make-machine", "--process", "sns-epsilon", "--p", "0.99999"),
            ("reproduce", "fig9", "--truncation", "200000"),
            ("make-machine", "--process", "sns-epsilon", "--p", "0.01", "--truncation", "400"),
            ("reproduce", "fig9", "--truncation", "400"),
        ],
    )
    def test_refused_quickly_with_one_json_line(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "TruncationTooLarge"
        assert elapsed < 2.0

    def test_imprecise_subnormal_truncation_is_refused(self, capsys):
        # Phi(160) at p = 0.01 is subnormal and the rows no longer sum to 1
        code, out, err = run(capsys, "make-machine", "--process", "sns-epsilon", "--p", "0.01",
                             "--truncation", "160")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "TruncationTooLarge"
        assert "truncation 160" in doc["message"]

    def test_truncation_below_the_underflow_builds(self, capsys, tmp_path):
        # at p = 0.01, Phi(163) is the first survival value that underflows
        # to 0; the deepest truncation whose rows still sum to 1 is 157
        path = tmp_path / "sns.json"
        code, out, err = run(capsys, "make-machine", "--process", "sns-epsilon", "--p", "0.01",
                             "--truncation", "157", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert load_machine(path).n_states == 158


class TestCoarseSns:
    """An explicit truncation that leaves too much tail mass: exit 2, one JSON
    line naming the truncation and a remedy the CLI has."""

    @pytest.mark.parametrize(
        "argv, truncation",
        [
            (("reproduce", "fig10", "--truncation", "400"), 400),
            (("construct-nmachine", "--process", "sns", "--p", "0.9", "--truncation", "20"), 20),
        ],
    )
    def test_message_names_a_cli_remedy(self, capsys, argv, truncation):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "TruncationTooCoarse"
        assert f"truncation {truncation} " in doc["message"]
        assert "larger truncation or none" in doc["message"]
        assert "allow_coarse" not in doc["message"]


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "pc.json"
    perturbed_coin_epsilon(0.3).save(path)
    return str(path)


@pytest.fixture
def quasi_file(tmp_path, capsys):
    path = tmp_path / "wigner.json"
    assert cli.main(["wigner", "--p", "0.3", "--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


#: the machine files of the ``--all`` selection test, each written by one
#: command: every zoo process, the signed Wigner machine, a similarity map of
#: the Perturbed Coin ("{coin}" is its file) with nonnegative stationary
#: vector but signed transitions, and the Perturbed Coin's ideal split,
#: whose stationary vector is signed
def _make_machine_argv(process):
    """``make-machine`` for ``process``, with ``--p 0.3`` where it reads one."""
    reads = cli._reads(process)
    return ["make-machine", "--process", process, *(["--p", "0.3"] if "p" in reads else [])]


_SELECTION_MACHINES = [
    *map(_make_machine_argv, cli._ZOO),
    ["wigner", "--p", "0.3"],
    ["transform", "--machine", "{coin}", "--a", "2", "--b", "0"],
    ["construct-nmachine", "--process", "perturbed-coin", "--p", "0.3"],
]

#: the two refusals that leave a measure out of ``--all``
_REFUSALS = ("QuasiMachineUnsupported", "NegativeEntriesUnsupportedOrder")


class TestMeasures:
    def test_non_finite_entry_is_validation_error(self, capsys, tmp_path):
        doc = perturbed_coin_epsilon(0.3).to_json_dict()
        doc["matrices"]["0"][0][0] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measures", str(path), "--all")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteEntries"

    def test_all_on_classical_machine(self, capsys, coin_file):
        code, out, _ = run(capsys, "measures", coin_file, "--all")
        assert code == 0
        doc = json.loads(out)
        by_name = {r["name"]: r["value"] for r in doc["reports"]}
        assert by_name["C_mu2"] == 1.0
        assert by_name["C_q2"] == pytest.approx(-math.log2(0.5 + 2 * 0.3 * 0.7), abs=1e-8)
        assert by_name["E_half"] == pytest.approx(perturbed_coin_excess_half(0.3), abs=1e-6)
        assert by_name["negativity"] == 1.0

    @pytest.mark.parametrize(
        "field, value",
        [("alphabet", 5), ("states", 5), ("groups", 5), ("alphabet", "01"),
         ("states", None), ("matrices", 5)],
    )
    def test_field_of_the_wrong_type_exits_2(self, capsys, tmp_path, field, value):
        doc = perturbed_coin_epsilon(0.3).to_json_dict()
        doc[field] = value
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measures", str(path), "--all")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "MachineFormatError"
        assert repr(field) in error["message"]

    @pytest.mark.parametrize("groups", [[0], [0, 1, 2], [5, -3], [0.5, 1.7], ["a", "b"],
                                        [True, False]])
    def test_bad_groups_exit_2(self, capsys, tmp_path, groups):
        doc = perturbed_coin_epsilon(0.3).to_json_dict()
        doc["groups"] = groups
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measures", str(path), "--all")
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "MachineFormatError"
        assert "groups" in error["message"]

    def test_horizon_beyond_the_cap_exits_4(self, capsys, tmp_path):
        path = tmp_path / "sns-g.json"
        sns_g_machine(0.5).save(path)
        code, out, err = run(capsys, "measures", str(path), "--measure", "excess-shannon",
                             "--horizon", "21")
        assert code == 4
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "EnumerationCapExceeded"
        assert error["message"] == "2^21 words exceed the cap 1048576"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "measures", str(path), "--all")
        assert code == 2
        assert json.loads(err)["error"] == "MachineFormatError"

    def test_unsupported_measure_on_quasi_machine_exits_3(self, capsys, quasi_file):
        code, _, err = run(capsys, "measures", quasi_file, "--measure", "excess-shannon")
        assert code == 3
        assert json.loads(err)["error"] == "QuasiMachineUnsupported"

    def test_all_adapts_to_quasi_machines(self, capsys, quasi_file):
        code, out, _ = run(capsys, "measures", quasi_file, "--all")
        assert code == 0
        names = {r["name"] for r in json.loads(out)["reports"]}
        assert "C_mu2" in names and "negativity" in names
        assert "E_half" not in names and "C_q2" not in names

    @pytest.mark.parametrize("argv", _SELECTION_MACHINES, ids=" ".join)
    def test_all_runs_exactly_the_measures_that_do_not_refuse(self, capsys, tmp_path,
                                                              coin_file, argv):
        path = str(tmp_path / "machine.json")
        argv = [coin_file if arg == "{coin}" else arg for arg in argv]
        assert run(capsys, *argv, "--out", path)[0] == 0
        code, out, err = run(capsys, "measures", path, "--all")
        assert (code, err) == (0, "")
        reported = [r["name"] for r in json.loads(out)["reports"]]
        defined, refused = [], []
        for name in MEASURES:
            code, out, err = run(capsys, "measures", path, "--measure", name)
            if code == 0:
                defined += [r["name"] for r in json.loads(out)["reports"]]
            else:
                refused.append((code, json.loads(err)["error"]))
        assert reported == defined
        assert all(code == 3 and error in _REFUSALS for code, error in refused), refused

    def test_all_on_signed_stationary_vector(self, capsys, tmp_path):
        # the ideal split's stationary vector is about [0.790, -0.290, 0.5];
        # Renyi orders 0 and 1 are undefined on it, so --all leaves them out
        source = perturbed_coin_epsilon(0.3)
        q1, q2 = perturbed_coin_ideal_params(0.3)
        built = build_split_machine(source, perturbed_coin_split_spec(0.3), {"q1": q1, "q2": q2})
        assert min(built.stationary) < -0.2
        path = tmp_path / "split.json"
        built.save(path)
        code, out, err = run(capsys, "measures", str(path), "--all")
        assert code == 0, err
        names = [r["name"] for r in json.loads(out)["reports"]]
        assert names == ["C_mu2", "negativity", "mana"]

    def test_all_fails_on_a_signed_stationary_vector_with_a_zero_entry(self, capsys,
                                                                        tmp_path):
        # stationary vector [1.25, -0.25, 0]: C_mu2's refusal is not one that
        # leaves a measure out, so --all fails as --measure c-mu2 does
        path = tmp_path / "zero.json"
        t = [[0.96, -0.16, 0.2], [-0.2, 0.2, 1.0], [0.3, 0.3, 0.4]]
        path.write_text(json.dumps({"alphabet": ["0"], "states": ["a", "b", "c"],
                                    "matrices": {"0": t}}))
        for asked in (("--all",), ("--measure", "c-mu2")):
            code, out, err = run(capsys, "measures", str(path), *asked)
            assert (code, out) == (3, "")
            assert json.loads(err)["error"] == "ZeroEntryWithQuasiOrder"

    @pytest.mark.parametrize("matrices, message", [
        ({"0": [[0.7, 0.0], [0.3, 0.0]]}, "missing transition matrix for symbol '1'"),
        ({"0": [[0.7, 0.0], [0.3, 0.0]], "1": [[0.0, 0.3], [0.0, 0.7]], "2": [[1.0]]},
         "matrices for symbols outside the alphabet: ['2']"),
        ({"0": [[0.7, 0.0]], "1": [[0.0, 0.3], [0.0, 0.7]]},
         "matrix for symbol '0' has shape (1, 2), expected (2, 2)"),
        ({"0": [[0.7, 0.0], [0.3, 0.0]], "1": [[0.0, 0.3], [0.7]]},
         "matrix for symbol '1' is not a numeric array"),
        ({"0": [[0.7, "a"], [0.3, 0.0]], "1": [[0.0, 0.3], [0.0, 0.7]]},
         "matrix for symbol '0' is not a numeric array"),
        # numpy would parse a numeric string or a bool as a number
        ({"0": [[0.7, 0.0], [0.3, 0.0]], "1": [["0.0", 0.3], [0.0, 0.7]]},
         "matrix for symbol '1' is not a numeric array"),
        ({"0": [[True, False], [False, False]], "1": [[0.0, 0.3], [0.0, 0.7]]},
         "matrix for symbol '0' is not a numeric array"),
        ({"0": [[0.7, None], [0.3, 0.0]], "1": [[0.0, 0.3], [0.0, 0.7]]},
         "matrix for symbol '0' is not a numeric array"),
        # a bool among numbers, which numpy would read as 0 or 1
        ({"0": [[0, True], [1, 0]], "1": [[0, 0], [0, 0]]},
         "matrix for symbol '0' is not a numeric array"),
        ({"0": [[0.7, 0.0], [0.3, 0.0]], "1": [[0.0, 0.3], [False, 0.7]]},
         "matrix for symbol '1' is not a numeric array"),
    ], ids=["missing", "outside", "shape", "ragged", "string", "numeric-string", "bool",
            "null", "bool-among-ints", "bool-among-floats"])
    def test_malformed_matrices_are_refused(self, capsys, tmp_path, matrices, message):
        doc = perturbed_coin_epsilon(0.3).to_json_dict()
        doc["matrices"] = matrices
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measures", str(path), "--all")
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MachineFormatError", "message": message}

    @pytest.mark.parametrize("change, message", [
        (lambda doc: [doc], "machine document must be a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "alphabet"},
         "machine document missing 'alphabet'"),
        (lambda doc: {**doc, "alphabet": ["0", "0"], "matrices": {"0": doc["matrices"]["0"]}},
         "alphabet has repeated symbols"),
        (lambda doc: {**doc, "stationary": [0.5, 0.25, 0.25]},
         "stationary vector has shape (3,), expected (2,)"),
        (lambda doc: {**doc, "stationary": ["a", 0.5]},
         "machine document field 'stationary' is not a numeric array"),
        (lambda doc: {**doc, "stationary": ["0.5", "0.5"]},
         "machine document field 'stationary' is not a numeric array"),
        (lambda doc: {**doc, "stationary": [0.5, True]},
         "machine document field 'stationary' is not a numeric array"),
    ], ids=["not-object", "no-alphabet", "repeated-symbol", "stationary-length",
            "stationary-string", "stationary-numeric-string", "stationary-bool"])
    def test_malformed_document_is_refused(self, capsys, tmp_path, change, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(perturbed_coin_epsilon(0.3).to_json_dict())))
        code, out, err = run(capsys, "measures", str(path), "--measure", "c-mu2")
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "MachineFormatError", "message": message}

    def test_integer_entries_are_numbers(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"alphabet": ["0"], "states": ["A"],
                                    "matrices": {"0": [[1]]}, "stationary": [1]}))
        code, out, err = run(capsys, "measures", str(path), "--measure", "c-mu2")
        assert (code, err) == (0, "")
        value = json.loads(out)["reports"][0]["value"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_no_measure_requested_is_validation_error(self, capsys, coin_file):
        code, _, err = run(capsys, "measures", coin_file)
        assert code == 2

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize("asked", [("--all",), ("--measure", "c-mu2")])
    @pytest.mark.parametrize("machine", ["coin", "quasi", "missing"])
    def test_horizon_below_1_is_refused_before_the_file_is_read(
        self, capsys, coin_file, quasi_file, horizon, asked, machine
    ):
        path = {"coin": coin_file, "quasi": quasi_file, "missing": "no-such-file.json"}[machine]
        code, out, err = run(capsys, "measures", path, *asked, "--horizon", horizon)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": f"--horizon must be at least 1, got {horizon}"}

    def test_horizon_flag_recorded(self, capsys, coin_file):
        code, out, _ = run(
            capsys, "measures", coin_file, "--measure", "excess-half", "--horizon", "5"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["parameters"]["horizon"] == 5


class TestSweep:
    def test_header_and_row_values_match_library(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--process", "perturbed-coin", "--p-grid", "0.3"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "p,C_mu2,C_g2,C_q2,C_n2,E_half,negativity,mana,advantage"
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["C_mu2"] == 1.0
        assert values["E_half"] == pytest.approx(perturbed_coin_excess_half(0.3), abs=1e-10)
        assert values["C_n2"] == pytest.approx(values["E_half"], abs=1e-8)
        assert values["advantage"] == pytest.approx(1 - values["E_half"], abs=1e-9)

    def test_byte_identical_outputs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert cli.main(
                ["sweep", "--process", "sns", "--p-grid", "0.2,0.5,0.8", "--out", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_empty_grid_gives_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "--process", "perturbed-coin", "--p-grid", "")
        assert code == 0
        assert out.strip() == "p,C_mu2,C_g2,C_q2,C_n2,E_half,negativity,mana,advantage"

    def test_golden_mean_columns_subset(self, capsys):
        code, out, _ = run(capsys, "sweep", "--process", "golden-mean", "--p-grid", "0.5")
        assert code == 0
        assert out.splitlines()[0] == "p,C_mu2,C_q2,E_half"

    def test_grid_with_half_rejected_for_perturbed_coin(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--process", "perturbed-coin", "--p-grid", "0.4,0.5,0.6"
        )
        assert code == 2

    def test_non_increasing_grid_rejected(self, capsys):
        code, _, _ = run(capsys, "sweep", "--process", "sns", "--p-grid", "0.5,0.4")
        assert code == 2

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        out_path = tmp_path / "sweep.csv"
        config.write_text(
            json.dumps(
                {
                    "process": "perturbed-coin",
                    "p_grid": [0.2, 0.4],
                    "horizon": 10,
                    "outputs": ["p", "C_mu2", "E_half"],
                    "seed": 3,
                    "output_path": str(out_path),
                }
            )
        )
        code, _, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "p,C_mu2,E_half"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([{"p_grid": [0.2]}], "object"),
            ({"process": "sns"}, "'p_grid'"),
            ({"p_grid": 0.2}, "'p_grid'"),
            ({"process": "sns", "p_grid": [0.2], "outputs": "p,E_half"}, "'outputs'"),
            ({"p_grid": [None]}, "'p_grid'"),
            ({"p_grid": ["0.2"]}, "'p_grid'"),
            ({"p_grid": [0.2], "horizon": [1]}, "'horizon'"),
            ({"process": "sns", "p_grid": [0.2], "truncation": "abc"}, "'truncation'"),
            ({"p_grid": [0.2], "output_path": 5}, "'output_path'"),
            ({"process": 5, "p_grid": [0.2]}, "'process'"),
            # a bool is not a number, although Python's bool is an int
            ({"p_grid": [0.3], "horizon": True}, "'horizon'"),
            ({"process": "sns", "p_grid": [0.3], "truncation": False}, "'truncation'"),
            ({"p_grid": [True]}, "'p_grid'"),
            ({"p_grid": [0.3, False]}, "'p_grid'"),
            # no horizon estimate is defined below 1
            ({"p_grid": [0.3], "horizon": 0}, "field 'horizon' must be at least 1, got 0"),
            ({"p_grid": [0.3], "horizon": -1}, "field 'horizon' must be at least 1, got -1"),
        ],
    )
    def test_malformed_config_is_validation_error(self, capsys, tmp_path, doc, field):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ValueError"
        assert field in error["message"]

    def test_unknown_config_process_is_unsupported(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"process": "nope", "p_grid": [0.3]}))
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "UnsupportedProcess",
                                   "message": "unknown sweep process 'nope'"}

    def test_null_config_fields_are_unset(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"process": "golden-mean", "p_grid": [0.5],
                                      "horizon": None, "outputs": None, "truncation": None}))
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert (code, err) == (0, "")
        assert run(capsys, "sweep", "--process", "golden-mean", "--p-grid", "0.5") == (0, out, "")

    def test_partial_failure_writes_nan_row_and_sidecar(self, capsys, tmp_path, monkeypatch):
        from quasihmm.errors import NoUnitEigenvalue

        columns = cli._SWEEP_ROWS["golden-mean"].columns
        real_column = columns["C_mu2"]

        def flaky(row):
            if row.p == 0.4:
                raise NoUnitEigenvalue("synthetic failure")
            return real_column(row)

        monkeypatch.setitem(columns, "C_mu2", flaky)
        out = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "sweep", "--process", "golden-mean",
            "--p-grid", "0.3,0.4,0.5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[2] == "0.4,NaN,NaN,NaN"
        sidecar = tmp_path / "out.csv.errors.log"
        assert "NoUnitEigenvalue" in sidecar.read_text()

    def test_sns_row_values_match_library(self, capsys):
        from quasihmm.measures import sns_excess_entropy_half

        code, out, _ = run(capsys, "sweep", "--process", "sns", "--p-grid", "0.5")
        assert code == 0
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        assert values["C_g2"] == 1.0
        assert values["E_half"] == pytest.approx(sns_excess_entropy_half(0.5)[0], abs=1e-10)
        assert values["C_n2"] == pytest.approx(values["E_half"], abs=1e-6)

    def test_default_grid_excludes_half(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--process", "perturbed-coin",
            "--p-min", "0.4", "--p-max", "0.6", "--p-step", "0.1",
        )
        assert code == 0
        ps = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert ps == ["0.4", "0.6"]

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_step_that_is_not_positive_is_refused(self, capsys, step):
        code, out, err = run(capsys, "sweep", "--p-step", step)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ValueError"
        assert "--p-step" in error["message"]

    @staticmethod
    def _refused_before_any_row(capsys, monkeypatch, *argv):
        def no_row(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "_SWEEP_ROWS", dict.fromkeys(cli._SWEEP_ROWS, no_row))
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ValueError"
        return error["message"]

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize("process", ["perturbed-coin", "sns", "golden-mean"])
    def test_horizon_below_1_is_refused_before_any_row(self, capsys, monkeypatch, horizon,
                                                       process):
        message = self._refused_before_any_row(capsys, monkeypatch, "--process", process,
                                               "--p-grid", "0.3", "--horizon", horizon)
        assert message == f"--horizon must be at least 1, got {horizon}"

    def test_p_min_above_p_max_is_refused(self, capsys, monkeypatch):
        message = self._refused_before_any_row(capsys, monkeypatch,
                                               "--p-min", "0.9", "--p-max", "0.1")
        assert message == "--p-min 0.9 exceeds --p-max 0.1"

    @pytest.mark.parametrize("bounds, message", [
        (("--p-min", "nan"), "--p-min must be finite, got nan"),
        (("--p-min=-inf",), "--p-min must be finite, got -inf"),
        (("--p-max", "inf"), "--p-max must be finite, got inf"),
        (("--p-max", "nan"), "--p-max must be finite, got nan"),
    ])
    def test_bound_that_is_not_finite_is_refused(self, capsys, monkeypatch, bounds, message):
        assert self._refused_before_any_row(capsys, monkeypatch, *bounds) == message

    @pytest.mark.parametrize("step", ["1e-18", "1e-9", "5e-324"])
    def test_grid_beyond_the_cap_is_refused_before_allocation(self, capsys, monkeypatch, step):
        def no_arange(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(cli.np, "arange", no_arange)
        message = self._refused_before_any_row(capsys, monkeypatch, "--p-step", step)
        assert message == (f"--p-step {float(step)} gives more than {cli.MAX_GRID_POINTS} "
                           "points from --p-min 0.1 to --p-max 0.9")

    def test_grid_cap_counts_the_points_arange_makes(self, capsys, monkeypatch):
        # 0.1 to 0.9 in steps of 0.1 is nine points, 0.5 left out for the coin
        argv = ("sweep", "--p-min", "0.1", "--p-max", "0.9", "--p-step", "0.1",
                "--horizon", "2")
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 9)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 8
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 8)
        assert _refused(capsys, *argv) == (
            "--p-step 0.1 gives more than 8 points from --p-min 0.1 to --p-max 0.9")

    def test_equal_p_bounds_give_one_row(self, capsys):
        code, out, err = run(capsys, "sweep", "--process", "golden-mean",
                             "--p-min", "0.4", "--p-max", "0.4")
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()] == ["p", "0.4"]

    def test_horizon_default_is_the_measures_default(self, monkeypatch):
        monkeypatch.setattr(cli.ms, "DEFAULT_HORIZON", 7)
        for command in (["measures", "m.json"], ["sweep"], ["reproduce", "fig5"],
                        ["construct-nmachine", "--process", "sns", "--p", "0.5"]):
            assert cli.build_parser().parse_args(command).horizon == 7


class TestReproduce:
    def test_fig5_columns_and_ordering(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fig5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,C_mu2,C_g2,C_q2,E_half"
        assert len(lines) == 19  # 0.05 .. 0.95 without 0.5
        for line in lines[1:]:
            p, c_mu2, c_g2, c_q2, e_half = (float(v) for v in line.split(","))
            assert c_mu2 >= c_q2 - 1e-9
            assert c_q2 >= e_half - 1e-6

    def test_fig7_negativity_and_advantage_comonotone(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fig7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,negativity_minus_1,advantage"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        low = [(r[1], r[2]) for r in rows if r[0] < 0.5]
        high = [(r[1], r[2]) for r in rows if r[0] > 0.5]
        for half in (low, high):
            assert spearman([r[0] for r in half], [r[1] for r in half]) > 0

    def test_fig9_and_fig10_run(self, capsys):
        for figure, header in (
            ("fig9", "p,C_mu2,C_g2,C_q2,E_half"),
            ("fig10", "p,negativity_minus_1,advantage"),
        ):
            code, out, _ = run(capsys, "reproduce", figure)
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0] == header
            assert len(lines) == 20  # SNS keeps 0.5

    def test_fig9_g_machine_memory_constant(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fig9")
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 1.0

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize("figure", ["fig5", "fig7", "fig9", "fig10"])
    def test_horizon_below_1_is_refused_before_any_row(self, capsys, monkeypatch, figure,
                                                       horizon):
        def no_row(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "_SWEEP_ROWS", dict.fromkeys(cli._SWEEP_ROWS, no_row))
        code, out, err = run(capsys, "reproduce", figure, "--horizon", horizon)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": f"--horizon must be at least 1, got {horizon}"}

    def test_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert cli.main(["reproduce", "fig7", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestConstructNMachine:
    def test_default_params_saturate(self, capsys, tmp_path):
        out_path = tmp_path / "nmachine.json"
        code, out, _ = run(
            capsys, "construct-nmachine", "--process", "perturbed-coin",
            "--p", "0.3", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["saturated"] is True
        assert abs(doc["c_n2"] - doc["e_half"]) <= 1e-8
        assert doc["checks"]["passed"] is True
        built = load_machine(out_path)
        assert built.n_states == 3
        assert same_process(built, perturbed_coin_epsilon(0.3))

    def test_explicit_params(self, capsys):
        code, out, _ = run(
            capsys, "construct-nmachine", "--process", "perturbed-coin",
            "--p", "0.3", "--params", "q1=0,q2=0.2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["saturated"] is False
        assert doc["machine"]["states"] == ["s0.0", "s0.1", "s1"]

    def test_sns_defaults(self, capsys):
        code, out, _ = run(
            capsys, "construct-nmachine", "--process", "sns", "--p", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["saturated"] is True
        assert doc["negativity"] > 1.0

    @pytest.mark.parametrize("process, p, ideal", [
        ("perturbed-coin", 0.3, lambda branch: dict(zip(
            ("q1", "q2"), perturbed_coin_ideal_params(0.3, branch)))),
        ("sns", 0.5, lambda branch: dict(zip(
            ("gamma", "eta"), sns_ideal_params(0.5, None, branch)))),
    ])
    def test_branch_picks_the_closed_form_root(self, capsys, process, p, ideal):
        for branch in (BRANCH_PLUS, BRANCH_MINUS):
            code, out, _ = run(capsys, "construct-nmachine", "--process", process,
                               "--p", str(p), "--branch", branch)
            assert code == 0
            doc = json.loads(out)
            assert doc["parameters"] == ideal(branch)
            assert doc["saturated"] is True

    def test_golden_mean_bad_never_saturates(self, capsys):
        code, out, _ = run(
            capsys, "construct-nmachine", "--process", "golden-mean-bad", "--p", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["saturated"] is False
        assert doc["c_n2"] > doc["c_mu2"]

    def test_golden_mean_bad_generic_split_optimizes(self, capsys):
        code, out, _ = run(
            capsys, "construct-nmachine", "--process", "golden-mean-bad", "--p", "0.4",
            "--split", "2,1", "--optimize", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["checks"]["passed"] is True

    def test_optimize_flag(self, capsys):
        code, out, _ = run(
            capsys, "construct-nmachine", "--process", "perturbed-coin",
            "--p", "0.3", "--optimize",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["saturated"] is True

    @pytest.mark.parametrize("argv, ideal_calls", [
        (("--optimize",), 0),
        (("--params", "gamma=0,eta=0.1"), 0),
        ((), 1),
    ])
    def test_sns_closed_forms_computed_only_when_used(self, capsys, monkeypatch, argv,
                                                      ideal_calls):
        from quasihmm import nmachine, processes

        calls = {"ideal": 0, "overlap": 0}
        ideal, overlap = nmachine.sns_ideal_params, processes.sns_past_future_overlap

        def counting_ideal(*args, **kwargs):
            calls["ideal"] += 1
            return ideal(*args, **kwargs)

        def counting_overlap(*args, **kwargs):
            calls["overlap"] += 1
            return overlap(*args, **kwargs)

        monkeypatch.setattr(nmachine, "sns_ideal_params", counting_ideal)
        monkeypatch.setattr(processes, "sns_past_future_overlap", counting_overlap)
        code, out, err = run(capsys, "construct-nmachine", "--process", "sns", "--p", "0.5",
                             *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"]["passed"] is True
        # E_half and the closed-form parameters share one overlap
        assert calls == {"ideal": ideal_calls, "overlap": 1}

    @pytest.mark.parametrize("process", ["perturbed-coin", "sns", "golden-mean-bad"])
    def test_negative_horizon_is_refused_before_any_work(self, capsys, monkeypatch, process):
        def no_row(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(cli, "_NMACHINE_ROWS", dict.fromkeys(cli._NMACHINE_ROWS, no_row))
        code, out, err = run(capsys, "construct-nmachine", "--process", process, "--p", "0.3",
                             "--horizon", "-1")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": "--horizon must be nonnegative, got -1"}

    @pytest.mark.parametrize("process", ["perturbed-coin", "sns"])
    def test_zero_horizon_is_accepted(self, capsys, process):
        code, out, err = run(capsys, "construct-nmachine", "--process", process, "--p", "0.3",
                             "--horizon", "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"]["passed"]

    def test_zero_horizon_is_refused_where_e_half_is_measured(self, capsys):
        # the golden-mean row has no closed-form E_half, and no horizon
        # estimate is defined below 1
        code, out, err = run(capsys, "construct-nmachine", "--process", "golden-mean-bad",
                             "--p", "0.3", "--horizon", "0")
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "message": "--horizon must be at least 1, got 0"}

    def test_verify_enumerates_at_its_own_horizon_and_decides_once(self, capsys,
                                                                  monkeypatch):
        lengths, decisions = [], []
        enumerate_words, decide = Machine.conditional_future_matrix, cli.nm.equivalence_residual

        def recording_enumeration(machine, length):
            lengths.append(length)
            return enumerate_words(machine, length)

        def recording_decision(*args):
            decisions.append(args)
            return decide(*args)

        monkeypatch.setattr(Machine, "conditional_future_matrix", recording_enumeration)
        monkeypatch.setattr(cli.nm, "equivalence_residual", recording_decision)
        code, out, err = run(capsys, "construct-nmachine", "--process", "sns", "--p", "0.3",
                             "--horizon", "3")
        assert (code, err) == (0, "")
        assert json.loads(out)["checks"]["passed"] is True
        assert lengths and set(lengths) == {cli.nm.VERIFY_HORIZON}
        assert len(decisions) == 1

    def test_negative_seed_is_refused_before_the_search(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli.nm, "optimize_ideal", no_search)
        message = _refused(capsys, "construct-nmachine", "--process", "perturbed-coin",
                           "--p", "0.3", "--optimize", "--seed", "-1")
        assert message == "--seed must be nonnegative, got -1"

    def test_degenerate_split_point_exits_4(self, capsys):
        code, _, err = run(
            capsys, "construct-nmachine", "--process", "perturbed-coin",
            "--p", "0.3", "--params", "q1=0.15,q2=0.1",
        )
        assert code == 4
        assert json.loads(err)["error"] == "DegenerateFixedSpace"

    def test_split_without_params_starts_from_zero_shares(self, capsys):
        code, out, err = run(capsys, "construct-nmachine", "--process", "perturbed-coin",
                             "--p", "0.3", "--split", "3,1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert len(doc["parameters"]) == 16
        assert set(doc["parameters"].values()) == {0.0}
        assert doc["machine"]["states"] == ["s0.0", "s0.1", "s0.2", "s1"]
        # each zero share leaves its mass on the last copy, so the split
        # keeps the source's memory and has no negativity
        assert doc["c_n2"] == pytest.approx(doc["c_mu2"], abs=1e-12)
        assert doc["negativity"] == pytest.approx(1.0, abs=1e-12)
        assert doc["checks"]["passed"] is True

    def test_parameter_the_spec_does_not_have_is_refused(self, capsys):
        code, out, err = run(
            capsys, "construct-nmachine", "--process", "perturbed-coin",
            "--p", "0.3", "--params", "q1=0,q2=0.1,zz=3",
        )
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "SpecMismatch"
        assert "zz" in error["message"]


def _refused(capsys, *argv):
    """The message of a request refused with exit 2 and one JSON line."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValueError"
    return error["message"]


class TestUnreadOptionsAreRefused:
    """An option that the request's path or process does not read exits 2
    with one JSON line naming it, instead of being dropped."""

    COIN = ("construct-nmachine", "--process", "perturbed-coin", "--p", "0.3")

    @pytest.mark.parametrize("extra, option, path", [
        (("--optimize", "--params", "q1=0.1,q2=0.2"), "--params", "--optimize"),
        (("--optimize", "--branch", "plus"), "--branch", "--optimize"),
        (("--params", "q1=0.1,q2=0.2", "--branch", "minus"), "--branch", "--params"),
        (("--split", "2,1", "--branch", "plus"), "--branch", "--split"),
        (("--seed", "3"), "--seed", "--optimize"),
        (("--split", "2,1", "--seed", "0"), "--seed", "--optimize"),
    ])
    def test_construct_nmachine_option_its_path_does_not_read(self, capsys, extra, option,
                                                              path):
        message = _refused(capsys, *self.COIN, *extra)
        assert option in message and path in message

    def test_branch_and_seed_defaults_apply_where_read(self, capsys):
        assert run(capsys, *self.COIN) == run(capsys, *self.COIN, "--branch", BRANCH_PLUS)
        optimize = (*self.COIN, "--optimize")
        assert run(capsys, *optimize) == run(capsys, *optimize, "--seed", "0")

    @pytest.mark.parametrize("split, token", [("a,1", "a"), ("2,", ""), ("", ""), ("2,1.5", "1.5")])
    def test_split_that_does_not_parse_is_named(self, capsys, split, token):
        message = _refused(capsys, *self.COIN, "--split", split)
        assert message == f"--split entry {token!r} is not an integer"

    @pytest.mark.parametrize("process", [p for p in cli._ZOO if p != "sns-epsilon"])
    def test_make_machine_truncation(self, capsys, process):
        message = _refused(capsys, *_make_machine_argv(process), "--truncation", "50")
        assert message == f"process {process!r} takes no --truncation"

    @pytest.mark.parametrize("process", ["even", "unbiased-coin"])
    def test_make_machine_p(self, capsys, process):
        message = _refused(capsys, "make-machine", "--process", process, "--p", "0.3")
        assert message == f"process {process!r} takes no --p"

    @pytest.mark.parametrize("figure", ["fig5", "fig7"])
    def test_reproduce_truncation(self, capsys, figure):
        message = _refused(capsys, "reproduce", figure, "--truncation", "3")
        assert message == f"{figure} (process 'perturbed-coin') takes no --truncation"

    @pytest.mark.parametrize("process", ["perturbed-coin", "golden-mean"])
    def test_sweep_truncation(self, capsys, tmp_path, process):
        message = _refused(capsys, "sweep", "--process", process, "--p-grid", "0.3",
                           "--truncation", "5")
        assert message == f"process {process!r} takes no --truncation"
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"process": process, "p_grid": [0.3], "truncation": 5}))
        message = _refused(capsys, "sweep", "--config", str(config))
        assert message == f"process {process!r} takes no sweep config field 'truncation'"

    @pytest.mark.parametrize("process", ["perturbed-coin", "golden-mean-bad"])
    def test_construct_nmachine_truncation(self, capsys, process):
        message = _refused(capsys, "construct-nmachine", "--process", process, "--p", "0.3",
                           "--truncation", "5")
        assert message == f"process {process!r} takes no --truncation"

    @pytest.mark.parametrize("flag", [
        ("--process", "sns"), ("--p-grid", "0.1,0.2"), ("--p-min", "0.2"), ("--p-max", "0.5"),
        ("--p-step", "0.2"), ("--truncation", "5"),
    ], ids=lambda flag: flag[0])
    def test_sweep_flag_a_config_replaces(self, capsys, tmp_path, flag):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"p_grid": [0.3]}))
        message = _refused(capsys, "sweep", "--config", str(config), *flag)
        assert message == f"a request with --config takes no {flag[0]}"

    def test_sweep_flag_defaults_apply_without_config(self, capsys):
        argv = ("sweep", "--horizon", "3")
        assert run(capsys, *argv) == run(
            capsys, *argv, "--process", "perturbed-coin", "--p-min", "0.1", "--p-max", "0.9",
            "--p-step", "0.1",
        )

    def test_sns_sweep_still_reads_truncation(self, capsys):
        argv = ("sweep", "--process", "sns", "--p-grid", "0.3", "--horizon", "3")
        code, out, err = run(capsys, *argv, "--truncation", "60")
        assert (code, err) == (0, "")
        assert out != run(capsys, *argv, "--truncation", "20")[1]


class TestTransform:
    def test_signed_family(self, capsys, coin_file):
        code, out, _ = run(capsys, "transform", "--machine", coin_file, "--a", "2", "--b", "0")
        assert code == 0
        machine = machine_from_json_dict(json.loads(out))
        assert machine.stationary == pytest.approx([0.25, 0.75], abs=1e-12)
        assert same_process(machine, perturbed_coin_epsilon(0.3))

    def test_singular_map_exits_4(self, capsys, coin_file):
        code, _, err = run(capsys, "transform", "--machine", coin_file, "--a", "1", "--b", "1")
        assert code == 4
        assert json.loads(err)["error"] == "SingularMatrix"


class TestWigner:
    def test_emits_four_state_quasi_machine(self, capsys):
        code, out, _ = run(capsys, "wigner", "--p", "0.3")
        assert code == 0
        machine = machine_from_json_dict(json.loads(out))
        assert machine.n_states == 4
        assert machine.groups == (0, 0, 1, 1)
        assert not machine.classify().classical
        assert same_process(machine, perturbed_coin_epsilon(0.3))

    def test_out_of_range_p_exits_2(self, capsys):
        code, _, _ = run(capsys, "wigner", "--p", "1.5")
        assert code == 2
