"""Synthetic computable-topology kernel.

Represented spaces with explicit stepping, Sierpinski-valued
semidecision, hyperspaces with their computable operations, presubbase
and prebase machinery with the induced representations, a brute-force
finite-topology oracle, and an exact-real representation-repair demo.
"""

from .kernel import (EncodingError, Name, NameReader, decode_enum,
                     dovetail_bound, literal_name, delayed_name, map_name,
                     pair, unpair)
from .sierpinski import (DEFAULT_FUEL, NEGATIVE_FUEL, SValue, accept_at,
                         and_finite, bot, or_countable, top)
from .spaces import (MissingWitnessError, Point, Space, SpaceMismatch,
                     apply_fun, curry, fun_point, pair_point, sierp_point,
                     uncurry)
from .hyper import (CompactSat, OpenSet, OvertClosed, compact_image,
                    compact_intersection, compact_open_embed, compact_union,
                    filter_embed, neighborhood_filter,
                    overt_union, point_to_closed, point_to_compact, section)
from .bases import (Completion, GaloisWitness, LacombeBase,
                    Presubbase, base_completion, galois_backward,
                    galois_forward, identity_base, kolmogorov_completion,
                    presubbase_space, transpose)
from .oracle import (FiniteSpace, FiniteSubbase, enumerate_spaces,
                     figure1_check, generate_topology, is_T0, saturate,
                     specialization, tau_K)
from .laws import LAWS, LawReport, run_law_suite

__version__ = "0.1.0"
