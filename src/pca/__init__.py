"""Exact structure theory for finite-dimensional associative algebras and
their inverse-limit towers: Jacobson radicals, Wedderburn-Artin block
decompositions, separability idempotents, Wedderburn-Malcev splittings and
Malcev conjugacy, all in exact arithmetic."""

from .fields import (Field, PrimeField, RatFunc, RationalFunctionField,
                     Rationals, SimpleExtension)
from .poly import Poly, factor
from .linalg import Matrix, Subspace, nullspace, rank, rref, solve
from .algebra import (AlgHom, FinAlg, Ideal, base_change, direct_product,
                      group_algebra, hom_check, ideal_closure, is_surjective,
                      kernel, make_algebra, matrix_algebra,
                      minimal_polynomial, opposite, polynomial_quotient_algebra,
                      quotient, tensor,
                      triangular_algebra, truncated_polynomial_algebra)
from .radical import (RadicalResult, is_semisimple,
                      maximal_twosided_intersection, radical,
                      radical_from_below, radical_oracle)
from .wedderburn import BlockDecomposition, center, central_idempotents, crt_lift
from .separability import (Bimodule, SepIdempotent,
                           base_change_semisimple_check, inner_derivation,
                           is_separable, nilpotent_witness, sep_idempotent,
                           universal_derivation_check)
from .malcev import (Splitting, check_ideal_lemma, lift_idempotent,
                     malcev_conjugator, splitting_from_complement,
                     splitting_from_section_matrix, wedderburn_splitting)
from .tower import (QuiverSpec, Tower, TowerElement, check_level_isomorphic,
                    cyclic_group_tower, element_from_top, kronecker_quiver,
                    loop_quiver, make_element, path_algebra_tower,
                    power_series_tower, product_tower, quiver_radical_check,
                    tower_radical_check, tower_radicals,
                    tower_semisimple_check)

__version__ = "0.1.0"
