"""
Exact-arithmetic toolkit for the q=1 affine Schur algebra.

The package provides canonical periodic-matrix bases, two independent
multiplication engines validated against each other, the rank-two affine
Hecke algebra with its corner embedding, Laurent-ring models of the
corner and quotient algebras, free-module decompositions, and a
certification battery for the two-sided ideal chain at n = r = 2.
"""

from .core import (
    AlgebraElement,
    Composition,
    PeriodicMatrix,
    col_vector,
    compositions,
    diag_matrix,
    element_from_json,
    element_to_json,
    grade,
    row_vector,
    transpose,
    unit_matrix,
)
from .weyl import (
    WeylElement,
    act,
    matrix_to_pair,
    pair_orbit_equal,
    pair_to_matrix,
    stabilizer,
    transporter,
)
from .multiplication import (
    InfiniteComposition,
    StructureTable,
    chevalley_left,
    chevalley_right,
    doublecoset_product,
    identity_element,
    loop_left,
    multiply,
    multiply_oracle,
    structure_table,
)
from .laurent import LaurentPoly1, LaurentPoly2
from .hecke import (
    HeckeElement,
    T1,
    T2,
    TRHO,
    TRHO_INV,
    hecke_embed,
    hecke_multiply,
    hecke_preimage,
    laurent_lift,
    quotient_image,
)
from .cellular import (
    CellTensor,
    CellVector,
    GEN_X1,
    GEN_X2,
    GEN_X2_INV,
    LEFT_BASIS,
    MembershipResult,
    RIGHT_BASIS,
    UndecidedError,
    batch_ideal_membership,
    corner_involution,
    corner_to_laurent,
    decompose_left,
    decompose_right,
    ideal_membership,
    idempotent_02,
    idempotent_11,
    idempotent_20,
    laurent_to_corner,
    monomial_image,
    tensor_involution,
    tensor_to_ideal,
)
from .linalg import SolveResult, SparseSystem, rank, solve_many
from .verify import CellReport, CheckResult, verify_cell_chain

__version__ = "0.1.0"
