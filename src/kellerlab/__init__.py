"""Exact-arithmetic toolkit for polynomial Keller maps.

Everything is computed symbolically over Q or a simple extension
Q[t]/(m(t)): Jacobians, determinants and ranks over the function field,
nilpotency and strong nilpotence, sum-of-powers certificates with their
triangularizations, the built-in counterexample families, and the
power-sum identities behind them.
"""

from .exactfield import Field, QQ, Scalar, cyclotomic
from .multipoly import (LinearForm, MultiPoly, divide_exact, extend_variables,
                        is_pure_power, lift_to_field, rename_variables, variables)
from .polymap import (PolyMap, PolyMatrix, conjugate, hadamard_power_map,
                      invert_triangular, jacobian, map_compose, matrix_det,
                      matrix_is_nilpotent, matrix_rank, nonlinear_part, plus_identity)
from .properties import (FAILS, HOLDS, UNDECIDED, PropertyReport,
                         StarCertificate, certificate_failure,
                         certificate_from_triangularization, chain_report,
                         check_sum_condition, conjugated_power_term,
                         is_quasi_translation, is_strongly_nilpotent,
                         strong_nilpotence_product, substituted_jacobian_sum,
                         triangularization_from_certificate,
                         verify_star_certificate)
from .constructions import (FAMILY_KINDS, FamilySpec, GZInstance, family_certificate,
                            gz_example, gz_verify, make_family)
from .identities import (IDENTITY_NAMES, check_alem_instance, relation_kernel,
                         verify_identity, waring_sufficiency)

__version__ = "0.1.0"
