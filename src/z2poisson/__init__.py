"""Satake-diagram classification of symmetric pairs and exact constructions
of maximal Poisson-commutative subalgebras for their contractions."""

from .diagram import (Classification, DynkinGraph, PairId, SatakeDiagram,
                      classify, parse_pair_name, parse_satake, satake_of)
from .errors import (AlgebraValidationError, BudgetError, DiagramSyntaxError,
                     DiagramValidationError, GenericityError, PolyParseError,
                     UnsupportedPairError, Z2PoissonError)
from .invariants import (InvariantSet, classical_invariants,
                         contraction_invariants, noncommutativity_witness,
                         nreg_subalgebra, top_component)
from .poisson import (ShiftFamily, certified_index, gradients, jacobian_rank_at,
                      mf_family, pairwise_commuting, poisson_bracket, shift,
                      trdeg_lower_bound, verify_central)
from .poly import Poly
from .structure import (LieAlgebra, MatrixRealization, PairRealization,
                        Z2Grading, build_pair,
                        check_regular_stabilizer_index, contract, index,
                        is_regular, matrix_algebra, stabilizer)

__version__ = "0.1.0"

__all__ = [
    "AlgebraValidationError", "BudgetError", "Classification",
    "DiagramSyntaxError", "DiagramValidationError", "DynkinGraph",
    "GenericityError", "InvariantSet", "LieAlgebra", "MatrixRealization",
    "PairId", "PairRealization", "Poly", "PolyParseError",
    "SatakeDiagram", "ShiftFamily", "UnsupportedPairError", "Z2Grading",
    "Z2PoissonError", "build_pair", "certified_index",
    "check_regular_stabilizer_index", "classical_invariants", "classify",
    "contract", "contraction_invariants", "gradients", "index",
    "is_regular", "jacobian_rank_at", "matrix_algebra", "mf_family",
    "noncommutativity_witness", "nreg_subalgebra", "pairwise_commuting",
    "parse_pair_name", "parse_satake", "poisson_bracket", "satake_of", "shift",
    "stabilizer", "top_component", "trdeg_lower_bound", "verify_central",
]
