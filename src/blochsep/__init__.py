"""Coherence-vector and correlation-tensor analysis of multipartite density
matrices, with matricization-based separability tests.

The core objects: generator bases of SU(d) (:mod:`blochsep.su_basis`), dense
real tensors with cyclic matricization and Ky Fan norms
(:mod:`blochsep.tensors`), validated density matrices and an example-state
zoo (:mod:`blochsep.states`), the expansion itself (:mod:`blochsep.bloch`)
and the separability criteria built on it (:mod:`blochsep.criteria`).
"""

from .bloch import (
    BlochData,
    ball_radii,
    bloch_vector,
    correlation_tensor,
    decompose,
    reconstruct,
)
from .criteria import (
    Decision,
    SeparableDecomposition,
    Verdict,
    assemble_decomposition,
    necessary_test,
    noise_threshold_table,
    qubit_exact_test,
    separability_bound,
    separable_decomposition,
    subset_scan,
    sufficiency_test,
    threshold_search,
)
from .errors import (
    BlochSepError,
    CriterionUnavailableError,
    InvalidStateError,
    NumericIntegrityError,
)
from .states import (
    DensityMatrix,
    ZooSpec,
    basis_ket,
    bell_states,
    duer_be4,
    ghz,
    kron,
    maximally_mixed,
    noisy,
    partial_trace,
    projector,
    reduced_w_noisy,
    smolin,
    state_234,
    validate_density,
    w_state,
    zoo_families,
    zoo_state,
)
from .stateio import load_state, save_state
from .su_basis import GeneratorBasis, build_basis
from .tensors import (
    KruskalForm,
    find_orthogonal_kruskal,
    is_supersymmetric,
    kruskal_to_tensor,
    matrix_kyfan,
    sign_table,
    singular_values,
    tensor_kyfan,
    unfold,
)

__version__ = "0.1.0"
