"""Workload definitions: the CLI requests of one pass, built from a seed.

The seed picks only the free inputs: the p values, each drawn from a narrow
band, and the optimizer ``--seed``.  The ``reproduce`` grids are fixed.  The
sns-epsilon bands are chosen so that the default truncation, and with it the
machine size, is the same for every p in the band; the work of a pass then
does not depend on the seed.

Each request also carries the seed-independent facts its output is checked
against (closed forms, expected sizes).  They are computed here, before any
request runs and before tracing is installed, so the checks neither add to
the timed work nor to the traced call counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from quasihmm import measures as ms
from quasihmm import processes as procs

#: the seed whose outputs are recorded in reference_seed0.json
DEFAULT_SEED = 0

# p bands (lo, hi).  Inside each sns-epsilon band the default truncation is
# constant: 295 (296 states) near 0.9 and 606 (607 states) near 0.95.
SNS_G_BAND = (0.48, 0.52)
SNS_EPS_296_BAND = (0.899800, 0.900100)
SNS_EPS_607_BAND = (0.949940, 0.950010)
COIN_BAND = (0.29, 0.31)
SNS_SPLIT_BAND = (0.49, 0.51)

#: rows of the figure CSVs, as ``reproduce`` builds them
REPRODUCE_GRID = {
    "perturbed-coin": [round(0.05 * k, 2) for k in range(1, 20) if k != 10],
    "sns": [round(0.05 * k, 2) for k in range(1, 20)],
}
FIGURE_PROCESS = {"fig5": "perturbed-coin", "fig7": "perturbed-coin",
                  "fig9": "sns", "fig10": "sns"}


@dataclass(frozen=True)
class Request:
    """One CLI call.  ``label`` is stable across seeds and names the output in
    the reference file; ``stage`` names the end-to-end stage metric its time
    counts toward (None: only ``pass_s``); ``out`` is the machine file the
    call writes, if any; ``expect`` holds the seed-independent facts its
    output is checked against."""

    label: str
    argv: tuple[str, ...]
    stage: str | None
    out: Path | None = None
    expect: dict = field(default_factory=dict)


def _draw(rng: random.Random, band: tuple[float, float]) -> float:
    lo, hi = band
    return round(rng.uniform(lo, hi), 6)


def _sns_c_mu2(p: float) -> float:
    weights = procs.sns_renewal_data(p).stationary_weights()
    return ms.renyi_entropy(weights / weights.sum(), 2)


def _sns_eps_file_expect(p: float) -> dict:
    weights = procs.sns_renewal_data(p).stationary_weights()
    return {
        "kind": "sns-epsilon-file",
        "p": p,
        "n_states": procs.sns_default_truncation(p) + 1,
        "stationary": (weights / weights.sum()).tolist(),
    }


def paper_figures(seed: int, work: Path) -> list[Request]:
    rng = random.Random(seed)
    p_g = _draw(rng, SNS_G_BAND)
    g_file = work / "sns-g.json"
    reqs = []
    for fig, process in FIGURE_PROCESS.items():
        grid = REPRODUCE_GRID[process]
        if process == "perturbed-coin":
            closed = [ms.perturbed_coin_excess_half(p) for p in grid]
        else:
            closed = [ms.sns_excess_entropy_half(p)[0] for p in grid]
        reqs.append(Request(
            f"reproduce-{fig}", ("reproduce", fig), "reproduce_s",
            expect={"kind": "figure", "figure": fig, "grid": grid, "e_half": closed},
        ))
    reqs.append(Request(
        "make-machine-sns-g",
        ("make-machine", "--process", "sns-g", "--p", repr(p_g), "--out", str(g_file)),
        None, out=g_file, expect={"kind": "sns-g-file", "p": p_g},
    ))
    reqs.append(Request(
        "measures-sns-g-all",
        ("measures", str(g_file), "--all", "--horizon", "18"), "measures_enum_s",
        expect={"kind": "measures-all", "horizon": 18, "n_states": 2},
    ))
    return reqs


def sns_predictive(seed: int, work: Path) -> list[Request]:
    rng = random.Random(seed)
    p_small = _draw(rng, SNS_EPS_296_BAND)
    p_large = _draw(rng, SNS_EPS_607_BAND)
    files = {"296": (p_small, work / "sns-eps-296.json"),
             "607": (p_large, work / "sns-eps-607.json")}
    reqs = []
    for size, (p, path) in files.items():
        reqs.append(Request(
            f"make-machine-sns-eps-{size}",
            ("make-machine", "--process", "sns-epsilon", "--p", repr(p), "--out", str(path)),
            "make_machine_s", out=path, expect=_sns_eps_file_expect(p),
        ))
    for size, (p, path) in files.items():
        reqs.append(Request(
            f"measures-sns-eps-{size}-all", ("measures", str(path), "--all"), "measures_all_s",
            expect={"kind": "measures-all", "horizon": 12,
                    "n_states": procs.sns_default_truncation(p) + 1},
        ))
    p, path = files["296"]
    reqs.append(Request(
        "measures-sns-eps-296-excess-half-48",
        ("measures", str(path), "--measure", "excess-half", "--horizon", "48"),
        "excess_half_long_s",
        expect={"kind": "excess-half-long", "horizon": 48,
                "closed": ms.sns_excess_entropy_half(p)[0], "tol": 1e-4},
    ))
    return reqs


def nmachine_optimize(seed: int, work: Path) -> list[Request]:
    rng = random.Random(seed)
    p_coin = _draw(rng, COIN_BAND)
    p_sns = _draw(rng, SNS_SPLIT_BAND)
    p_coin6 = _draw(rng, COIN_BAND)
    opt = ("--optimize", "--seed", str(seed))
    return [
        Request(
            "construct-perturbed-coin",
            ("construct-nmachine", "--process", "perturbed-coin", "--p", repr(p_coin)) + opt,
            "optimize_s",
            expect={"kind": "nmachine", "e_half": ms.perturbed_coin_excess_half(p_coin),
                    "c_mu2": 1.0},
        ),
        Request(
            "construct-sns",
            ("construct-nmachine", "--process", "sns", "--p", repr(p_sns)) + opt,
            "optimize_s",
            expect={"kind": "nmachine", "e_half": ms.sns_excess_entropy_half(p_sns)[0],
                    "c_mu2": _sns_c_mu2(p_sns)},
        ),
        Request(
            "construct-perturbed-coin-split-2-1",
            ("construct-nmachine", "--process", "perturbed-coin", "--p", repr(p_coin6),
             "--split", "2,1") + opt,
            "optimize_s",
            expect={"kind": "nmachine", "e_half": ms.perturbed_coin_excess_half(p_coin6),
                    "c_mu2": 1.0},
        ),
    ]


WORKLOADS = {
    "paper-figures": paper_figures,
    "sns-predictive": sns_predictive,
    "nmachine-optimize": nmachine_optimize,
}