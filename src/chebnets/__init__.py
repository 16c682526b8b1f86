"""Chebyshev centers of finite point nets, the Hausdorff metric between
them, a Lobachevsky-plane kernel, and verifiers for the Lipschitz behaviour
of the center map."""

from .chebyshev import ChebResult, cheb, cheb_oracle
from .counterexamples import (
    lemma3_counterexample,
    lemma3_hyperbolic_counterexample,
    lemma3_nonuniform_sequence,
)
from .errors import (
    ChebnetsError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    InconsistencyError,
    ModelError,
    OracleBudgetError,
    SamplingBudgetError,
)
from .geometry import Net, Point, diameter, distance, net_from_json, net_to_json
from .hausdorff import alpha, hausdorff_distance
from .hyperbolic import (
    ORIGIN,
    HyperbolicPoint,
    HyperbolicTriangle,
    h_alpha,
    h_cheb3,
    h_distance,
    h_midpoint,
    hyperbolic_point_to_json,
    minimax_center_search,
    right_triangle,
    right_triangle_identity_check,
)
from .lipschitz import (
    LemmaReport,
    LipschitzSample,
    NeighborhoodSpec,
    default_epsilon,
    estimate_local_lipschitz,
    sample_pair,
)
from .verifiers import (
    lemma4_constant,
    verify_lemma1,
    verify_lemma2,
    verify_lemma4,
    verify_lemma4_random,
    verify_statement1,
    verify_statement2,
)

__version__ = "0.1.0"
