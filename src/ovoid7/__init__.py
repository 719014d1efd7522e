"""ovoid7: parameterized ovoids of the rank-4 hyperbolic quadric.

Construction, exhaustive verification and algebraic analysis of triples
(f1, f2, f3) over F_q, the associated 6-variable pair polynomial and its
structured factorizations, plus exact point-count bounds.
"""

__version__ = "1.0.0"

from .errors import OvoidError
from .ff import ExtCtx, Fe, FieldCtx, TowerElem, frobenius, make_field, parse_field_spec, rel_norm, rel_trace
from .mpoly import MPoly
from .quadric import (KerdockMatrix, OvoidSpec, VerificationReport, bilinear,
                      enumerate_generators, kerdock_check, kerdock_set,
                      meets_every_generator_once, ovoid_points, spread_space,
                      verify_ovoid)
from .families import (Famiglia1Params, Famiglia2Params, TowerBasis,
                       default_tower_basis, dye, factorized_identity_check,
                       famiglia1, famiglia2, kantor_2mod3, kantor_2mod3_even,
                       kantor_2mod3_odd, kantor_even, kantor_simple, ree_tits,
                       thas_kantor)
from .hypersurface import (BoundReport, HyperplaneWitness, QuadricWitness,
                           affine_point_scan, bound_report, build_F,
                           hyperplane_product_residual,
                           quadric_product_residual, solve_deg2_system,
                           solve_quadric_witness)
from .search import (SearchConfig, SearchResult, exhaustive_triple_search,
                     hyperplane_witness_search, recognize_kantor_even)
