"""Exact computer algebra for the c=1 Virasoro vacuum family, the vacuum
module of the W3 algebra, and rank-one lattice Fock spaces, with a
fusion-dimension oracle and named verification suites.

Everything is computed over exact rationals; no floating point anywhere.

Importing the package loads no engine module: each public name, and each
submodule, is imported on first use (PEP 562), so a process compiles only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("InputError", "SparseVec", "partition_count", "partitions", "rank",
                     "series_add"), "core"),
    **dict.fromkeys(("VirasoroModule", "irreducible_character_c1", "verify_prop21",
                     "verma_character"), "virasoro"),
    **dict.fromkeys(("DegenerateBlockError", "W3Module", "verify_theorem32",
                     "w3_monomial_str"), "w3"),
    **dict.fromkeys(("FockSpace", "even_square_sum_series", "lattice_charge_tail_series",
                     "verify_fock", "verify_lemma57"), "fock"),
    **dict.fromkeys(("fusion_dim", "label_str", "m1_label", "parse_label",
                     "verify_fusion_symmetry", "vir_label"), "fusion"),
}
_SUBMODULES = ("core", "virasoro", "w3", "fock", "fusion", "cli")

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
