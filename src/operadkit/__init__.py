"""operadkit: a verification workbench for higher-ordinal combinatorics.

The package covers five layers: ordinals with level structure and their
morphisms, the quasibijection category and Milgram poset with integral
homology, braid words with a faithful small-strand solver, zig-zag spans
realising braids with diagram certificates, and finite operads of several
flavors with exhaustive axiom checking.  A batch CLI fronts all of it.
"""

from . import errors
from .errors import WorkbenchError
from .ordinals import (
    LevelDomain,
    NOrdinal,
    count_ordinals,
    enumerate_ordinals,
    from_relations,
    from_tree,
    make_ordinal,
    ordinal_from_json,
    ordinal_sum,
    suspend_horizontal,
    suspend_infinite,
    suspend_vertical,
    to_tree,
    unrank,
)
from .ordinal_maps import (
    Factorization,
    OrdinalMap,
    compose,
    enumerate_maps,
    factorize,
    fiber,
    identity_map,
    induced,
    invert,
    map_from_json,
    morphism_violation,
    restrict_map,
)
from .braids import (
    BraidWord,
    Permutation,
    block_permutation,
    block_transposition,
    braid_equal,
    braid_from_json,
    braid_sum,
    cable,
    crossing_sums,
    direct_sum_blocks,
    identity_braid,
    is_trivial,
    q_section,
    transposition,
)
from .homology import (
    ChainComplex,
    HomologyResult,
    connected_components,
    homology,
    invariant_factors,
    matrix_rank,
    smith_normal_form,
)
from .quasicat import (
    MilgramPoset,
    QuasiCategory,
    assert_strict,
    build_j,
    build_q,
    nerve,
    order_complex,
    verify_quotient_correspondence,
)
from .zigzags import (
    DiagramCertificate,
    SplitResult,
    ZigZag,
    artin_diagram_check,
    braid_of_quasibijection,
    braid_of_zigzag,
    generator_span,
    merge_spans,
    pushforward,
    span,
    span_of_word,
    split_zigzag,
    zigzag_from_json,
)
from .strata import (
    Configuration,
    PartitionReport,
    StratumLabel,
    classify_stratum,
    configuration_from_json,
    degeneration_check,
    direction_class,
    label_key,
    random_configuration,
    sample_stratum,
    stratum_from_json,
    verify_partition,
)
from .operads import (
    BRAIDED,
    MIXED2,
    SYMMETRIC,
    AxiomFailure,
    AxiomReport,
    BraidedActions,
    FiniteCollection,
    FiniteOperad,
    Flavor,
    N_OPERAD,
    action_is_bijection,
    all_factorizations,
    braided_action_from_quasisymmetric,
    check_operad_axioms,
    desymmetrise,
    endomorphism_symmetric_operad,
    extend_multiplication,
    induced_action,
    is_locally_constant,
    is_quasisymmetric,
    non_quasisymmetric_operad,
    operad_from_json,
    operad_to_json,
    orders_operad,
    reflavor,
    terminal_operad,
    validate_collection,
)

__version__ = "0.1.0"
