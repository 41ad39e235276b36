"""Exact structure theory for finite-dimensional associative algebras and
their inverse-limit towers: Jacobson radicals, Wedderburn-Artin block
decompositions, separability idempotents, Wedderburn-Malcev splittings and
Malcev conjugacy, all in exact arithmetic.

Every public name is imported from its module on first use (PEP 562), so
``import pca`` and each command pay only for the modules they touch.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "fields": ("Field", "PrimeField", "RatFunc", "RationalFunctionField",
               "Rationals", "SimpleExtension"),
    "poly": ("Poly", "factor"),
    "linalg": ("Matrix", "Subspace", "nullspace", "rank", "rref", "solve"),
    "algebra": ("AlgHom", "FinAlg", "Ideal", "base_change", "direct_product",
                "group_algebra", "hom_check", "ideal_closure",
                "is_surjective", "kernel", "make_algebra", "matrix_algebra",
                "minimal_polynomial", "opposite",
                "polynomial_quotient_algebra", "quotient", "tensor",
                "triangular_algebra", "truncated_polynomial_algebra"),
    "radical": ("RadicalResult", "is_semisimple",
                "maximal_twosided_intersection", "radical",
                "radical_from_below", "radical_oracle"),
    "wedderburn": ("BlockDecomposition", "center", "central_idempotents",
                   "crt_lift"),
    "separability": ("Bimodule", "SepIdempotent",
                     "base_change_semisimple_check", "inner_derivation",
                     "is_separable", "nilpotent_witness", "sep_idempotent",
                     "universal_derivation_check"),
    "malcev": ("Splitting", "check_ideal_lemma", "lift_idempotent",
               "malcev_conjugator", "splitting_from_complement",
               "splitting_from_section_matrix", "wedderburn_splitting"),
    "tower": ("QuiverSpec", "Tower", "TowerElement", "check_level_isomorphic",
              "cyclic_group_tower", "element_from_top", "kronecker_quiver",
              "loop_quiver", "make_element", "path_algebra_tower",
              "power_series_tower", "product_tower", "quiver_radical_check",
              "tower_radical_check", "tower_radicals",
              "tower_semisimple_check"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)

# Submodules that an eager ``import pca`` used to leave as attributes.
_SUBMODULES = frozenset({"algebra", "errors", "fields", "limits", "linalg",
                         "malcev", "poly", "separability", "tower",
                         "wedderburn"})


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        return getattr(import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """Importing the submodule ``pca.radical`` binds it on the package
    under its own name; the public function of that name keeps it."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, type(sys)):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
