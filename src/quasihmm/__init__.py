"""Quasiprobabilistic hidden Markov models of stationary processes.

Machines over a finite real state space cover classical predictive and
generative models, state-split signed ("negative") machines, and phase-space
images of quantum models; measures cover Renyi statistical complexities,
half-order excess entropy, negativity, and mana.
"""

from . import errors
from .machine import (
    ENUMERATION_CAP,
    Machine,
    MachineClass,
    equivalence_residual,
    load_machine,
    machine_from_json_dict,
    make_machine,
    same_process,
)
from .measures import (
    MeasureReport,
    alpha_mutual_information,
    excess_entropy_half,
    excess_entropy_shannon,
    mana,
    negativity,
    perturbed_coin_excess_half,
    renyi_entropy,
    sns_excess_entropy_half,
)
from .nmachine import (
    Affine,
    NMachineResult,
    OptimizeOptions,
    SplitSpec,
    assess_split_machine,
    build_split_machine,
    generic_split_spec,
    golden_mean_bad_split_spec,
    optimize_ideal,
    perturbed_coin_ideal_params,
    perturbed_coin_split_spec,
    sns_ideal_params,
    sns_split_spec,
    verify_nmachine_properties,
)
from .processes import (
    SnsRenewalData,
    even_process_epsilon,
    golden_mean_epsilon,
    perturbed_coin_epsilon,
    perturbed_coin_rjmc,
    sns_epsilon_truncated,
    sns_g_machine,
    sns_past_future_overlap,
    sns_renewal_data,
    unbiased_coin,
)
from .quantum import (
    GramEnsemble,
    WignerRepresentation,
    gram_from_machine,
    quantum_complexity,
    sns_gram_ensemble,
    validate_unitary_relation,
    wigner_as_machine,
    wigner_qubit_representation,
)
from .transforms import (
    SimilarityMap,
    apply_map,
    positive_stationary_family,
    rjmc_domain_check,
    rjmc_parameters,
    similarity_map,
    two_state_map,
)

__version__ = "0.1.0"
