"""Quantum-model quantities without a quantum stack.

The quantum encoding of a classical machine assigns each state a pure state
whose pairwise overlaps equal the Bhattacharyya fidelities of the states'
conditional futures.  Every spectral quantity of the stationary density
operator is therefore a function of the Gram matrix of those overlaps and the
stationary weights, so no density operator is ever materialized here.

The one place complex matrices appear is the discrete Wigner (phase-space)
representation of a single-qubit model, built from the four phase-point
operators; it maps the quantum model onto a four-state machine with signed
transition probabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IsometryViolated, NonPSD, QuasiMachineUnsupported
from .machine import Machine, make_machine
from .processes import (
    SnsRenewalData,
    check_open_unit,
    check_sns_survival,
    sns_root_waiting_grid,
    sns_surviving,
)

RENYI2 = "renyi2"
VON_NEUMANN = "von-neumann"

#: tolerance on negative Gram-spectrum eigenvalues
PSD_TOL = 1e-10
#: Gram-matrix horizon and largest residual of ``validate_unitary_relation``
ISOMETRY_HORIZON = 24
ISOMETRY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GramEnsemble:
    """Stationary weights plus the pairwise state-overlap matrix.

    ``overlaps[j, k]`` is the inner product of the encoded states j and k
    (unit diagonal); ``residual`` reports how much the overlaps moved at the
    last horizon increment of their defining series.
    """

    weights: np.ndarray
    overlaps: np.ndarray
    horizon: int
    residual: float

    def density_spectrum_matrix(self) -> np.ndarray:
        """D^(1/2) G D^(1/2); shares its spectrum with the stationary density
        operator of the encoded ensemble."""
        root = np.sqrt(np.clip(np.asarray(self.weights), 0.0, None))
        return root[:, None] * np.asarray(self.overlaps) * root[None, :]

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the symmetrised :meth:`density_spectrum_matrix`,
        ascending; computed when first read and then remembered, so every
        measure of one ensemble shares one eigensolve.  Read-only.

        The von Neumann measure reads it; the Rényi-2 measure reads it only
        when its Cholesky certificate fails."""
        values = np.linalg.eigvalsh(self._symmetrised_density())
        values.setflags(write=False)
        return values

    def _symmetrised_density(self) -> np.ndarray:
        """(M + M^T) / 2 of M = :meth:`density_spectrum_matrix`, halved in
        place so that no third n x n buffer is made."""
        mat = self.density_spectrum_matrix()
        sym = mat + mat.T
        sym *= 0.5
        return sym


def gram_from_machine(m: Machine, horizon: int) -> GramEnsemble:
    """Gram ensemble of a classical machine at a finite future horizon.

    Overlap (j, k) is ``sum_w sqrt(P(w|j) P(w|k))`` over length-``horizon``
    words; for unifilar machines the sums contract geometrically in the
    horizon.

    The machine remembers the ensemble of the last horizon asked, so the
    measures of one machine and horizon (``C_q2`` and ``C_q_vN``) share it.
    ``C_q_vN`` reads its :attr:`GramEnsemble.spectrum`; ``C_q2`` takes the
    purity without one unless its Cholesky certificate fails.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    memo = m._memo.setdefault("gram", {})
    gram = memo.get(horizon)
    if gram is None:
        current = m.future_fidelity_matrix(horizon)
        previous = m.future_fidelity_matrix(horizon - 1)
        gram = GramEnsemble(
            weights=m.stationary,
            overlaps=current,
            horizon=horizon,
            residual=float(np.max(np.abs(current - previous))),
        )
        memo.clear()
        memo[horizon] = gram
    return gram


def sns_gram_ensemble(data: SnsRenewalData) -> GramEnsemble:
    """Gram ensemble of the SNS process's quantum model from renewal data.

    State n is encoded with amplitudes sqrt(phi(n+k)/Phi(n)) on the waiting
    numbers k, so overlap (m, n) is
    ``sum_k sqrt(phi(m+k) phi(n+k)) / sqrt(Phi(m) Phi(n))`` (unit diagonal).
    State index and overlap sum are truncated at the same depth; weights are
    the renormalized truncated predictive-state distribution.  A truncation
    whose Phi(N) underflows to 0 is refused with ``TruncationTooLarge``
    before anything is divided.
    """
    p, n_cut = data.p, data.truncation
    check_sns_survival(n_cut, p)
    idx = np.arange(n_cut + 1)
    root_phi = sns_root_waiting_grid(n_cut, p)
    numer = root_phi @ root_phi.T
    root_sur = np.sqrt(sns_surviving(idx, p))
    overlaps = numer / np.outer(root_sur, root_sur)
    np.fill_diagonal(overlaps, overlaps.diagonal().clip(max=1.0))

    weights = data.stationary_weights()
    weights = weights / weights.sum()
    # residual: how far the truncated diagonal falls short of exact unity
    residual = float(np.max(np.abs(numer.diagonal() / root_sur**2 - 1.0)))
    return GramEnsemble(weights=weights, overlaps=overlaps, horizon=n_cut, residual=residual)


def _certified_purity(g: GramEnsemble) -> float | None:
    """Purity Tr rho^2 as the squared Frobenius norm of the symmetrised
    :meth:`GramEnsemble.density_spectrum_matrix`, without its spectrum.

    The value is returned only when one Cholesky factorisation of that matrix
    with ``PSD_TOL / 2`` added to its diagonal succeeds: its least eigenvalue
    is then above -PSD_TOL by far more than rounding, so the spectral
    ``NonPSD`` check would accept it too.  ``None`` when the factorisation
    fails or the purity is not positive and finite; the caller then decides
    from :attr:`GramEnsemble.spectrum`.
    """
    sym = g._symmetrised_density()
    purity = float(np.vdot(sym, sym))
    if not 0.0 < purity < math.inf:
        return None
    # half the tolerance keeps the certificate strictly inside the spectral
    # check's accept region
    sym.flat[:: len(sym) + 1] += 0.5 * PSD_TOL
    try:
        np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return None
    return purity


def quantum_complexity(g: GramEnsemble, kind: str = RENYI2) -> float:
    """Spectral memory measure of a Gram ensemble.

    ``renyi2``: -log2 of the purity; ``von-neumann``: spectral Shannon
    entropy.

    The Rényi-2 value comes from :func:`_certified_purity`, with no
    eigensolve, whenever its Cholesky certificate holds; otherwise, and for
    the von Neumann kind, from :attr:`GramEnsemble.spectrum`.  Either way an
    ensemble with an eigenvalue below -PSD_TOL raises ``NonPSD``, with the
    same message.
    """
    if kind == RENYI2:
        purity = _certified_purity(g)
        if purity is not None:
            return -float(np.log2(purity))
    spectrum = g.spectrum
    if spectrum.min() < -PSD_TOL:
        raise NonPSD(f"Gram spectrum has eigenvalue {spectrum.min():.3e}")
    spectrum = np.clip(spectrum, 0.0, None)
    if kind == RENYI2:
        return -float(np.log2(np.sum(spectrum**2)))
    if kind == VON_NEUMANN:
        support = spectrum[spectrum > 0]
        return -float(np.sum(support * np.log2(support)))
    raise ValueError(f"unknown complexity kind {kind!r}")


# --- unitary-relation validation ----------------------------------------------


@dataclass(frozen=True)
class UnitaryCheckReport:
    """Residuals of the overlap-preservation condition for the transition
    amplitudes sqrt(T[x][j, k])."""

    max_residual: float
    horizon: int
    gram_residual: float


def validate_unitary_relation(m: Machine) -> UnitaryCheckReport:
    """Check that square-root transition amplitudes act isometrically.

    A single evolution step maps state j to the superposition of (next state,
    symbol) pairs with amplitudes sqrt(T[x][j, k]), so preserved inner
    products require

        G[j, l] = sum_x sum_{k, k'} sqrt(T[x][j, k] T[x][l, k']) G[k, k']

    with G the state-overlap Gram matrix at horizon ``ISOMETRY_HORIZON``.
    Raises ``IsometryViolated`` when the largest residual exceeds
    ``ISOMETRY_TOL``.
    """
    cls = m.classify()
    if not cls.classical:
        raise QuasiMachineUnsupported("unitary embedding requires nonnegative transitions")
    if not cls.unifilar:
        raise ValueError("unitary relation check requires a unifilar machine")
    gram = gram_from_machine(m, ISOMETRY_HORIZON)
    overlaps = gram.overlaps
    residual = float(np.max(np.abs(m.fidelity_step(overlaps) - overlaps)))
    if residual > ISOMETRY_TOL:
        raise IsometryViolated(f"overlap preservation residual {residual:.3e}")
    return UnitaryCheckReport(
        max_residual=residual, horizon=ISOMETRY_HORIZON, gram_residual=gram.residual
    )


# --- discrete Wigner representation -------------------------------------------

PHASE_POINTS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_IDENTITY = np.eye(2, dtype=complex)


def phase_point_operators() -> list[np.ndarray]:
    """The four qubit phase-point operators, ordered like ``PHASE_POINTS``."""
    ops = []
    for l1, l2 in PHASE_POINTS:
        ops.append(
            0.5
            * (
                _IDENTITY
                + (-1) ** l1 * _PAULI_Z
                + (-1) ** l2 * _PAULI_X
                + (-1) ** (l1 + l2) * _PAULI_Y
            )
        )
    return ops


@dataclass(frozen=True, eq=False)
class WignerRepresentation:
    """Phase-space image of a single-qubit model: a quasiprobability state
    vector over the four phase points plus one signed transition matrix per
    symbol (row convention: rows index the source point)."""

    p: float
    phase_points: tuple[tuple[int, int], ...]
    state_quasi: np.ndarray
    channel_matrices: dict[str, np.ndarray]


def _real_trace(mat: np.ndarray) -> float:
    tr = complex(np.trace(mat))
    if abs(tr.imag) > 1e-12:
        raise ArithmeticError(f"trace expected real, got imaginary part {tr.imag:.3e}")
    return tr.real


def wigner_qubit_representation(p: float) -> WignerRepresentation:
    """Discrete Wigner representation of the Perturbed Coin quantum model.

    Built from first principles: encoded states sqrt(1-p)|0> + sqrt(p)|1>
    (and its mirror), the uniform stationary mixture, and the two Kraus
    branches that measure the emitted symbol.  States map through the frame
    A_lambda / 2 and channels through tr(F_lambda K A_lambda' K^dagger); the
    results are cross-checked against their closed forms before returning.
    """
    check_open_unit(p)
    sigma0 = np.array([np.sqrt(1 - p), np.sqrt(p)], dtype=complex)
    sigma1 = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
    rho = 0.5 * (np.outer(sigma0, sigma0.conj()) + np.outer(sigma1, sigma1.conj()))
    kraus = {
        "0": np.outer(sigma0, np.array([1, 0], dtype=complex).conj()),
        "1": np.outer(sigma1, np.array([0, 1], dtype=complex).conj()),
    }

    points = phase_point_operators()
    state = np.array([_real_trace(0.5 * a @ rho) for a in points])

    channels: dict[str, np.ndarray] = {}
    for symbol, k in kraus.items():
        # destination x source, then transposed into row-as-source convention
        dest_src = np.array(
            [
                [_real_trace(0.5 * a_to @ k @ a_from @ k.conj().T) for a_from in points]
                for a_to in points
            ]
        )
        channels[symbol] = dest_src.T

    expected_state, expected_channels = wigner_closed_forms(p)
    if np.max(np.abs(state - expected_state)) > 1e-12 or any(
        np.max(np.abs(channels[x] - expected_channels[x])) > 1e-12 for x in channels
    ):
        raise ArithmeticError("frame computation disagrees with closed forms")

    return WignerRepresentation(
        p=float(p),
        phase_points=PHASE_POINTS,
        state_quasi=state,
        channel_matrices=channels,
    )


def wigner_closed_forms(p: float) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Closed-form Wigner state and channel matrices for the Perturbed Coin
    quantum model (row convention), in terms of chi_pm = p +- sqrt(p(1-p))."""
    root = np.sqrt(p * (1 - p))
    state = np.array([1 + 2 * root, 1 - 2 * root, 1 + 2 * root, 1 - 2 * root]) / 4.0
    chi_plus = p + root
    chi_minus = p - root
    row0 = np.array([1 - chi_minus, 1 - chi_plus, chi_plus, chi_minus]) / 2.0
    row1 = np.array([chi_plus, chi_minus, 1 - chi_minus, 1 - chi_plus]) / 2.0
    zeros = np.zeros(4)
    t0 = np.vstack([row0, row0, zeros, zeros])
    t1 = np.vstack([zeros, zeros, row1, row1])
    return state, {"0": t0, "1": t1}


def wigner_as_machine(w: WignerRepresentation) -> Machine:
    """Package a Wigner representation as a four-state machine.

    The phase points become states grouped by their qubit-state block
    (lambda_1 = 0 vs 1); the quasiprobability state vector must be stationary
    for the summed channel matrix or construction fails.
    """
    states = tuple(f"w{l1}{l2}" for l1, l2 in w.phase_points)
    groups = tuple(l1 for l1, _ in w.phase_points)
    return make_machine(
        ("0", "1"),
        states,
        [w.channel_matrices[x] for x in ("0", "1")],
        stationary=w.state_quasi,
        groups=groups,
    )
