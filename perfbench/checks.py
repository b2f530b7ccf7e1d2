"""Output checks.  A request counts as failed when it exits nonzero or when
any check here reports a problem.

Two kinds of check:

* seed-independent checks, run on every request: closed forms of E_half,
  the order C_mu2 >= C_q2 >= E_half and its relatives, saturation and
  construction checks of every n-machine, and the shape and stationary
  vector of every machine file;
* reference checks, run on the reference pass (inputs of the default seed):
  every CSV cell and JSON value must agree with the outputs recorded in
  ``reference_seed0.json`` within ``REL_TOL`` relative, with an absolute
  floor ``ABS_FLOOR`` for values near zero (residuals, tail weights).
  Values that depend on the optimizer's non-unique optimum are left out.
"""

from __future__ import annotations

import json
import math

import numpy as np

from quasihmm.nmachine import SAT_TOL

REL_TOL = 1e-9
ABS_FLOOR = 1e-12
#: slack on inequalities between printed values
ORDER_TOL = 1e-9

FIGURE_COLUMNS = {
    "fig5": ["p", "C_mu2", "C_g2", "C_q2", "E_half"],
    "fig9": ["p", "C_mu2", "C_g2", "C_q2", "E_half"],
    "fig7": ["p", "negativity_minus_1", "advantage"],
    "fig10": ["p", "negativity_minus_1", "advantage"],
}
MEASURE_NAMES = ["C_mu2", "C_mu1", "C_mu0", "C_q2", "C_q_vN", "E_half", "E",
                 "negativity", "mana"]

#: keys left out of reference comparison: they depend on the optimizer's
#: optimum (not unique) or on where the run keeps its files
EXCLUDED = {
    "measures": {"machine"},
    "nmachine": {"parameters", "machine", "negativity", "mana", "c_n2", "advantage",
                 "checks.worst_residual"},
}


def close(a: float, b: float, rel: float = REL_TOL, floor: float = ABS_FLOOR) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * abs(b) + floor


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV")
    return header, rows


# --- seed-independent checks ---------------------------------------------------


def _check_figure(expect: dict, text: str) -> list[str]:
    fig = expect["figure"]
    header, rows = parse_csv(text)
    if header != FIGURE_COLUMNS[fig]:
        return [f"{fig}: header {header}"]
    problems = []
    if [row[0] for row in rows] != expect["grid"]:
        problems.append(f"{fig}: p column differs from the fixed grid")
    col = {name: i for i, name in enumerate(header)}
    for row, closed in zip(rows, expect["e_half"]):
        if not all(math.isfinite(v) for v in row):
            problems.append(f"{fig} p={row[0]}: non-finite cell")
        elif "E_half" in col:
            c_mu2, c_q2, e_half = row[col["C_mu2"]], row[col["C_q2"]], row[col["E_half"]]
            if not close(e_half, closed):
                problems.append(f"{fig} p={row[0]}: E_half {e_half} != closed form {closed}")
            if not c_mu2 >= c_q2 - ORDER_TOL >= e_half - 2 * ORDER_TOL:
                problems.append(f"{fig} p={row[0]}: not C_mu2 >= C_q2 >= E_half")
        elif row[col["negativity_minus_1"]] < -ORDER_TOL or row[col["advantage"]] < -ORDER_TOL:
            problems.append(f"{fig} p={row[0]}: negative negativity-1 or advantage")
    return problems


def _matrices(doc: dict) -> dict[str, np.ndarray]:
    return {x: np.asarray(doc["matrices"][x], dtype=float) for x in doc["alphabet"]}


def _check_machine_doc(doc: dict, n_states: int) -> list[str]:
    problems = []
    if doc["alphabet"] != ["0", "1"] or len(doc["states"]) != n_states:
        return [f"machine has alphabet {doc['alphabet']} and {len(doc['states'])} states"]
    mats = _matrices(doc)
    total = sum(mats.values())
    if total.shape != (n_states, n_states):
        return [f"transition matrix shape {total.shape}"]
    if np.max(np.abs(total.sum(axis=1) - 1.0)) > 1e-10:
        problems.append("rows of the transition matrix do not sum to 1")
    pi = np.asarray(doc["stationary"], dtype=float)
    if abs(pi.sum() - 1.0) > 1e-10 or np.max(np.abs(pi @ total - pi)) > 1e-8:
        problems.append("stationary vector is not a unit-sum fixed point")
    return problems


def _check_sns_g_file(expect: dict, text: str) -> list[str]:
    doc = json.loads(text)
    problems = _check_machine_doc(doc, 2)
    p = expect["p"]
    mats = _matrices(doc)
    want = {"0": [[p, 1 - p], [0.0, p]], "1": [[0.0, 0.0], [1 - p, 0.0]]}
    if any(np.max(np.abs(mats[x] - np.asarray(want[x]))) > 1e-15 for x in want):
        problems.append("sns-g matrices differ from their definition")
    return problems


def _check_sns_eps_file(expect: dict, text: str) -> list[str]:
    doc = json.loads(text)
    n = expect["n_states"]
    problems = _check_machine_doc(doc, n)
    if problems:
        return problems
    mats = _matrices(doc)
    # state k advances to k+1 on 0 (the last closes on itself) and resets on 1
    allowed0 = np.zeros((n, n), dtype=bool)
    allowed0[np.arange(n - 1), np.arange(1, n)] = True
    allowed0[n - 1, n - 1] = True
    if np.any(mats["0"][~allowed0] != 0.0) or np.any(mats["1"][:, 1:] != 0.0):
        problems.append("sns-epsilon transitions outside the renewal structure")
    pi = np.asarray(doc["stationary"], dtype=float)
    if np.max(np.abs(pi - np.asarray(expect["stationary"]))) > 1e-9:
        problems.append("stationary vector differs from the renewal weights")
    return problems


def _check_measures_all(expect: dict, text: str) -> list[str]:
    doc = json.loads(text)
    names = [r["name"] for r in doc["reports"]]
    if names != MEASURE_NAMES:
        return [f"reports {names}"]
    v = {r["name"]: r["value"] for r in doc["reports"]}
    if not all(math.isfinite(x) for x in v.values()):
        return ["non-finite measure"]
    problems = []
    for r in doc["reports"]:
        if "horizon" in r["parameters"] and r["parameters"]["horizon"] != expect["horizon"]:
            problems.append(f"{r['name']}: horizon {r['parameters']['horizon']}")
    # order 0 counts the states whose weight is above the distribution tolerance
    if v["C_mu0"] > math.log2(expect["n_states"]) + ORDER_TOL:
        problems.append(f"C_mu0 {v['C_mu0']} > log2({expect['n_states']})")
    chains = [("C_mu0", "C_mu1"), ("C_mu1", "C_mu2"), ("C_mu2", "C_q2"), ("C_q2", "E_half"),
              ("C_q_vN", "C_q2"), ("C_mu1", "C_q_vN"), ("E", "E_half")]
    for hi, lo in chains:
        if v[hi] < v[lo] - ORDER_TOL:
            problems.append(f"{hi} {v[hi]} < {lo} {v[lo]}")
    if not close(v["negativity"], 1.0) or not close(v["mana"], 0.0):
        problems.append("classical machine reports negativity or mana")
    return problems


def _check_excess_half_long(expect: dict, text: str) -> list[str]:
    reports = {r["name"]: r for r in json.loads(text)["reports"]}
    r = reports.get("E_half")
    if r is None or len(reports) != 1 or r["parameters"].get("horizon") != expect["horizon"]:
        return [f"reports {list(reports)}"]
    if not abs(r["value"] - expect["closed"]) <= expect["tol"]:
        return [f"E_half {r['value']} not within {expect['tol']} of {expect['closed']}"]
    return []


def _check_nmachine(expect: dict, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if doc["checks"]["passed"] is not True:
        problems.append(f"construction checks failed: {doc['checks']}")
    if doc["saturated"] is not True or doc["bound_violated"] is not False:
        problems.append("result not saturated or violates the bound")
    e_half, c_n2, c_mu2 = doc["e_half"], doc["c_n2"], doc["c_mu2"]
    if not close(e_half, expect["e_half"]):
        problems.append(f"e_half {e_half} != closed form {expect['e_half']}")
    if not close(c_mu2, expect["c_mu2"]):
        problems.append(f"c_mu2 {c_mu2} != {expect['c_mu2']}")
    if abs(c_n2 - e_half) > SAT_TOL * max(1.0, abs(e_half)):
        problems.append(f"c_n2 {c_n2} not saturated at e_half {e_half}")
    neg = doc["negativity"]
    if neg < 1.0 - ABS_FLOOR or not close(doc["mana"], 2.0 * math.log2(neg)):
        problems.append(f"negativity {neg} and mana {doc['mana']} inconsistent")
    if not close(doc["advantage"], abs(c_n2 - c_mu2) / c_mu2):
        problems.append(f"advantage {doc['advantage']} inconsistent")
    machine = doc["machine"]
    pi = np.asarray(machine["stationary"], dtype=float)
    if abs(pi.sum() - 1.0) > 1e-10 or not close(-math.log2(float(pi @ pi)), c_n2, 1e-9, 1e-9):
        problems.append("stationary quasiprobability inconsistent with c_n2")
    return problems


_CHECKS = {
    "figure": _check_figure,
    "sns-g-file": _check_sns_g_file,
    "sns-epsilon-file": _check_sns_eps_file,
    "measures-all": _check_measures_all,
    "excess-half-long": _check_excess_half_long,
    "nmachine": _check_nmachine,
}


def check_output(expect: dict, text: str) -> list[str]:
    """Seed-independent problems of one output; empty when it is correct."""
    try:
        return _CHECKS[expect["kind"]](expect, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


# --- reference comparison --------------------------------------------------------


def _reference_kind(expect: dict) -> str:
    kind = expect["kind"]
    if kind == "figure":
        return "csv"
    if kind.endswith("-file"):
        return "machine"
    if kind == "nmachine":
        return "nmachine"
    return "measures"


def _drop(doc, excluded: set[str], prefix: str = ""):
    if isinstance(doc, dict):
        return {k: _drop(v, excluded, f"{prefix}{k}.") for k, v in doc.items()
                if f"{prefix}{k}" not in excluded}
    return doc


def normalize(expect: dict, text: str):
    """The comparable form of one output: CSV cells, the JSON document less
    its excluded keys, or a machine file with its matrices as nonzero
    (row, column, value) triples."""
    kind = _reference_kind(expect)
    if kind == "csv":
        header, rows = parse_csv(text)
        return {"header": header, "rows": rows}
    doc = json.loads(text)
    if kind == "machine":
        nonzeros = {}
        for x, mat in _matrices(doc).items():
            rows, cols = np.nonzero(np.abs(mat) > ABS_FLOOR)
            nonzeros[x] = [[int(i), int(j), float(mat[i, j])] for i, j in zip(rows, cols)]
        return {"alphabet": doc["alphabet"], "states": doc["states"],
                "stationary": doc["stationary"], "nonzeros": nonzeros}
    return _drop(doc, EXCLUDED[kind])


def compare(actual, reference, path: str = "") -> list[str]:
    """Every difference between two normalized outputs."""
    if isinstance(reference, dict):
        if not isinstance(actual, dict) or set(actual) != set(reference):
            return [f"{path or '/'}: keys differ"]
        return [p for k in reference for p in compare(actual[k], reference[k], f"{path}/{k}")]
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{path}: length differs"]
        return [p for i, (a, r) in enumerate(zip(actual, reference))
                for p in compare(a, r, f"{path}[{i}]")]
    if isinstance(reference, bool) or not isinstance(reference, (int, float)):
        return [] if actual == reference else [f"{path}: {actual!r} != {reference!r}"]
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return [f"{path}: {actual!r} is not a number"]
    if close(float(actual), float(reference)):
        return []
    return [f"{path}: {actual!r} != {reference!r}"]


def check_reference(expect: dict, text: str, reference) -> list[str]:
    try:
        problems = compare(normalize(expect, text), reference)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"reference: {p}" for p in problems[:5]]
