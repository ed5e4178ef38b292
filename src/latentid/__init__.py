"""latentid: identifiability certificates and exact-tensor parameter recovery
for latent-structure models.

Certifies when latent-class mixtures, hidden Markov models, random graph
mixtures and nonparametric product mixtures have identifiable parameters (up
to class relabeling) through the Kruskal row-rank condition on three-way
tensors, and recovers the parameters from exact joint distributions by
simultaneous diagonalization.
"""

from .errors import (
    DegenerateSpectrumError,
    IllConditionedError,
    InconsistentOracleError,
    InputError,
    LatentIdError,
    NegativeWeightsError,
    NonUniqueStationaryError,
    NotDistinctError,
    NotKhatriRaoError,
    RankDeficientError,
)
from .tensor_core import (
    clump_tensor,
    khatri_rao,
    kruskal_rank,
    numerical_rank,
    triple_product,
    unclump,
)
from .latent_class import (
    Certificate,
    LatentClassModel,
    Tripartition,
    joint_distribution,
    kruskal_certificate,
    min_variables_bound,
    param_dimension,
    tripartition_search,
)
from .recovery import (
    Alignment,
    RecoveredFactors,
    align_permutation,
    decompose3,
    recover_latent_class,
)
from .hmm import (
    HiddenMarkovModel,
    align_hmm,
    conditional_blocks,
    hmm_certificate,
    min_window,
    recover_hmm,
    recovery_window,
    stationary_distribution,
    window_tensor,
)
from .random_graph import (
    GraphMixtureModel,
    PartitionFamily,
    conditional_graph_matrix,
    extract_parameters,
    graph_certificate,
    lattice_partitions,
    node_state_prior,
    single_edge_marginal,
)
from .nonparametric import (
    CdfComponent,
    CutPointSet,
    NonparametricMixture,
    binned_conditional_matrix,
    bivariate_rank,
    component_cdfs,
    recover_mixture,
    select_cut_points,
    select_mixture_cuts,
)
from .modelio import load_model, model_from_dict, model_to_dict, save_model

__version__ = "0.1.0"
