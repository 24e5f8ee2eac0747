"""Exact computer algebra for the c=1 Virasoro vacuum family, the vacuum
module of the W3 algebra, and rank-one lattice Fock spaces, with a
fusion-dimension oracle and named verification suites.

Everything is computed over exact rationals; no floating point anywhere.
"""

from .core import (
    InputError,
    SparseVec,
    partition_count,
    partitions,
    rank,
    series_add,
)
from .virasoro import (
    VirasoroModule,
    irreducible_character_c1,
    verify_prop21,
    verma_character,
)
from .w3 import (
    DegenerateBlockError,
    W3Module,
    verify_theorem32,
    w3_monomial_str,
)
from .fock import (
    FockSpace,
    even_square_sum_series,
    lattice_charge_tail_series,
    verify_fock,
    verify_lemma57,
)
from .fusion import (
    fusion_dim,
    label_str,
    m1_label,
    parse_label,
    verify_fusion_symmetry,
    vir_label,
)

__version__ = "0.1.0"
