"""Seeded inputs for the three benchmark workloads.

Every workload draws from a fixed catalogue. The catalogue is a list of
shapes; each shape has a fixed number of variants, and every variant is a
concrete item derived from the string "<workload>/<shape>/<variant>" alone.
The workload seed only chooses which variants of each shape a run uses and
in which order, so

* the same seed always gives the same items;
* the work per pass is nearly the same for every seed (each shape keeps its
  count), which keeps the end-to-end figures comparable across seeds;
* bench/reference.json can hold a sha256 for every item any seed can draw.

Items are plain JSON values. The engine never sees the seed, only the items.
This module uses the standard library only and does not import voacalc.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("suites_cli", "fock_modes", "hw_scaling")


def item_id(item: dict) -> str:
    """Short hash of an item's canonical JSON; the key of its reference digest."""
    text = json.dumps({k: v for k, v in item.items() if k != "shape"},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _parts(n: int, min_part: int = 1, max_part: int | None = None) -> list[tuple]:
    """Partitions of n into parts in [min_part, max_part], descending."""
    if n == 0:
        return [()]
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, min_part - 1, -1):
        for rest in _parts(n - first, min_part, first):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# suites_cli: README-style invocations, one process each

_M1_PLUS_LABELS = ("M(1)+", "M(1)-", "M(1,1/2)", "M(1,3/2)", "M(1,2)",
                   "M(1,1)", "M(1)(theta)+", "M(1)(theta)-")
_VIR_FUSION_WEIGHTS = (0, 1, 4, 9, 16, 2, 3, 5)
_FOCK_SPACES = ("m1", "m1+", "m1-", "vl", "vl+", "vl-")


def _vir_word(parts) -> str:
    return "".join(f"L({-p})" for p in parts)


def _w3_monomial(rng, weight: int) -> str:
    choices = []
    for wb in range(0, weight + 1):
        for wp in _parts(wb, 3):
            for lp in _parts(weight - wb, 2):
                choices.append((lp, wp))
    lp, wp = rng.choice(choices)
    return ("".join(f"L({-p})" for p in lp) + "".join(f"W({-p})" for p in wp)) or "1"


def _fock_monomial(rng, k: int, weight: int, charged: bool) -> str:
    charge = 0
    if charged:
        charges = [x for x in range(-2, 3) if x and k * x * x <= weight]
        if charges:
            charge = rng.choice(charges)
    parts = rng.choice(_parts(weight - k * charge * charge))
    body = "".join(f"a({-p})" for p in parts)
    if charge:
        body += f"e({charge})"
    return body or "1"


def _cli_verify_all(rng):
    return ["verify", "all", "--seed", str(rng.randrange(1, 10**6))]


def _cli_thm32(rng):
    return ["verify", "thm32"]


def _cli_prop21(rng):
    m = rng.choice(["0..1", "0..2", "1..2", "1..3", "0,2", "2,3"])
    return ["verify", "prop21", "--m", m, "--max-level", str(rng.randint(4, 7))]


def _cli_lemma57(rng):
    return ["verify", "lemma57", "--k", str(rng.randint(1, 4)),
            "--cutoff", str(rng.choice([10, 15, 20, 25]))]


def _cli_fusion_symmetry(rng):
    return ["verify", "fusion-symmetry", "--samples", str(rng.choice([20, 50, 80])),
            "--seed", str(rng.randrange(1, 10**6))]


def _cli_fock_suite(rng):
    return ["verify", "fock"]


def _cli_dims(rng):
    algebra = rng.choice(("vir", "w3") + _FOCK_SPACES)
    argv = ["dims", "--algebra", algebra, "--max-weight", str(rng.randint(6, 12))]
    if algebra == "vir":
        argv += ["--vacuum"] if rng.random() < 0.5 else ["--h", str(rng.randint(0, 9))]
    elif algebra != "w3":
        argv += ["--k", str(rng.randint(1, 3))]
    if rng.random() < 0.3:
        argv += ["--format", "csv"]
    return argv


def _cli_basis(rng):
    algebra = rng.choice(("vir", "w3", "m1", "vl"))
    weight = rng.randint(2, 8)
    argv = ["basis", "--algebra", algebra, "--weight", str(weight)]
    if algebra == "vir":
        argv += ["--vacuum"] if rng.random() < 0.5 else ["--h", str(rng.randint(0, 9))]
    elif algebra == "vl":
        argv += ["--k", str(rng.randint(1, 3))]
    return argv


def _cli_act(rng):
    algebra = rng.choice(("w3", "w3", "vir", "fock", "fock", "fock"))
    mode = rng.randint(-3, 3)
    if algebra == "w3":
        return ["act", "--algebra", "w3", "--gen", rng.choice("LW"), "--mode", str(mode),
                "--monomial", _w3_monomial(rng, rng.randint(3, 8))]
    if algebra == "vir":
        if rng.random() < 0.5:
            parts = rng.choice(_parts(rng.randint(2, 8), 2))
            return ["act", "--algebra", "vir", "--vacuum", "--gen", "L", "--mode", str(mode),
                    "--monomial", _vir_word(parts) or "1"]
        parts = rng.choice(_parts(rng.randint(1, 8)))
        return ["act", "--algebra", "vir", "--h", str(rng.randint(0, 9)), "--gen", "L",
                "--mode", str(mode), "--monomial", _vir_word(parts)]
    k = rng.randint(1, 3)
    gen = rng.choice(("J", "J", "omega", "a", "e"))
    charged = gen != "J" or rng.random() < 0.5
    argv = ["act", "--algebra", "fock", "--k", str(k), "--gen", gen, "--mode",
            str(rng.randint(-1, 4) if gen in ("J", "omega") else mode),
            "--monomial", _fock_monomial(rng, k, rng.randint(2, 6), charged)]
    if gen == "e":
        argv += ["--b", rng.choice(["1", "-1"])]
    return argv


def _cli_gram(rng):
    if rng.random() < 0.5:
        argv = ["gram", "--algebra", "vir", "--level", str(rng.randint(2, 7))]
        argv += ["--vacuum"] if rng.random() < 0.3 else ["--h", str(rng.choice([0, 1, 2, 4, 5, 9]))]
    else:
        argv = ["gram", "--algebra", "w3", "--level", str(rng.randint(3, 8))]
    if rng.random() < 0.3:
        argv += ["--format", "csv"]
    return argv


def _cli_primary(rng):
    return ["primary", "--weight", str(rng.randint(3, 12))]


def _cli_decompose(rng):
    return ["decompose", "--monomial", _w3_monomial(rng, rng.randint(5, 9))]


def _cli_char(rng):
    if rng.random() < 0.3:
        return ["char", "--algebra", "vir", "--kind", rng.choice(["l1", "verma"]),
                "--h", str(rng.randint(0, 16)), "--cutoff", str(rng.randint(10, 30))]
    argv = ["char", "--algebra", rng.choice(_FOCK_SPACES), "--k", str(rng.randint(1, 3)),
            "--cutoff", str(rng.randint(10, 30))]
    if rng.random() < 0.3:
        argv += ["--format", "csv"]
    return argv


def _cli_fusion(rng):
    if rng.random() < 0.5:
        a, b, t = (f"L(1,{rng.choice(_VIR_FUSION_WEIGHTS)})" for _ in range(3))
        return ["fusion", "--algebra", "vir", "--a", a, "--b", b, "--t", t]
    a, b, t = (rng.choice(_M1_PLUS_LABELS) for _ in range(3))
    return ["fusion", "--algebra", "m1+", "--a", a, "--b", b, "--t", t]


# shape name -> (generator, variants in the catalogue, items per pass).
# The suites and `primary` cost between 0.1 and 0.35 s a call depending on
# their parameters, and they make up the slow tail of the latencies, so every
# pass runs all of their variants: the seed then moves only the order of
# that tail, not its contents, and item_p90_ms stays comparable across seeds.
SUITES_CLI_SHAPES = {
    "verify-all": (_cli_verify_all, 4, 2),
    "verify-thm32": (_cli_thm32, 1, 2),
    "verify-prop21": (_cli_prop21, 8, 8),
    "verify-lemma57": (_cli_lemma57, 8, 8),
    "verify-fusion-symmetry": (_cli_fusion_symmetry, 9, 3),
    "verify-fock": (_cli_fock_suite, 1, 2),
    "dims": (_cli_dims, 24, 10),
    "basis": (_cli_basis, 18, 6),
    "act": (_cli_act, 48, 20),
    "gram": (_cli_gram, 18, 6),
    "primary": (_cli_primary, 10, 10),
    "decompose": (_cli_decompose, 12, 6),
    "char": (_cli_char, 24, 10),
    "fusion": (_cli_fusion, 24, 10),
}


def _cli_catalogue():
    out = {}
    for shape, (gen, variants, _) in SUITES_CLI_SHAPES.items():
        out[shape] = []
        for i in range(variants):
            argv = gen(random.Random(f"suites_cli/{shape}/{i}"))
            out[shape].append({"kind": "cli", "shape": shape, "argv": argv})
    return out


# ---------------------------------------------------------------------------
# fock_modes: self-checking cells of vertex-operator modes


FOCK_KS = (1, 2, 3)


def _coef(rng) -> str:
    return str(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3])))


def _full_vector(rng, weight, k=None) -> list:
    """Every monomial of one weight with seeded rational coefficients: the
    charge-0 space when k is None, else the charged lattice sectors of the
    lattice with (alpha, alpha) = 2k. Terms are [parts, charge, "p/q"]."""
    if k is None:
        monos = [(p, 0) for p in _parts(weight)]
    else:
        monos = [(p, x) for x in range(-2, 3) if x and k * x * x <= weight
                 for p in _parts(weight - k * x * x)]
    return [[list(p), x, _coef(rng)] for p, x in monos]


def _random_u(rng, osc) -> tuple[list, int]:
    """A homogeneous charge-0 vector with `osc` oscillators and weight
    osc + 2, a(-3)a(-1)^(osc-1) and a(-2)^2 a(-1)^(osc-2) with seeded
    coefficients (a fixed structure keeps the cost the same for every seed).
    Returns the terms and the weight."""
    weight = osc + 2
    return [[list(p), 0, _coef(rng)] for p in _parts(weight) if len(p) == osc], weight


def _cell_jj(k, m, n, weight):
    def gen(rng):
        return {"kind": "comm_jj", "k": k, "m": m, "n": n, "v": _full_vector(rng, weight)}
    return gen


def _cell_ju(k, osc, m, drop, weight):
    """u_n lowers the weight by `drop`."""
    def gen(rng):
        u, u_weight = _random_u(rng, osc)
        return {"kind": "comm_ju", "k": k, "m": m, "n": u_weight - 1 + drop, "u": u,
                "v": _full_vector(rng, weight)}
    return gen


def _cell_theta(k, u_kind, n, weight):
    """u_kind is "omega", "J" or an oscillator count; for a count, n is the
    weight drop of u_n."""
    def gen(rng):
        item = {"kind": "theta_zero", "k": k, "u": u_kind, "n": n,
                "v": _full_vector(rng, weight, k)}
        if isinstance(u_kind, int):
            item["u"], u_weight = _random_u(rng, u_kind)
            item["n"] = u_weight - 1 + n
        return item
    return gen


def _cell_lattice(k, b, n, weight):
    def gen(rng):
        return {"kind": "theta_lattice", "k": k, "b": rng.choice([b, -b]), "n": n,
                "v": _full_vector(rng, weight, k)}
    return gen


def _fock_shapes():
    """Each shape fixes the structure of a cell (lattice parameter, modes,
    weight, oscillator counts); its variants differ only in the seeded
    coefficients and the sign of b. The weights are chosen so that every
    cell costs about the same (0.1-0.4 s on the reference machine): with a
    narrow spread of item costs the latency percentiles sit among many
    similar items and move little from run to run."""
    shapes = {}
    # [J_m, J_n] v against (J_i J)_{m+n-i} v: J and the products are reused
    grid = ((0, 1, 3), (0, 2, 3), (1, 0, 3), (1, 1, 3), (2, 0, 3),
            (0, 3, 4), (0, 4, 4), (1, 3, 4), (1, 4, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4),
            (3, 1, 4), (3, 2, 4), (4, 1, 4),
            (2, 4, 5), (3, 3, 5), (3, 4, 5), (4, 2, 5), (4, 3, 5))
    for i, (m, n, w) in enumerate(grid):
        k = FOCK_KS[i % 3]
        shapes[f"comm_jj-k{k}-{m}-{n}-w{w}"] = _cell_jj(k, m, n, w)
    # [J_m, u_n] v against (J_i u)_{m+n-i} v: u is drawn once and not reused
    for k, osc, m, drop, w in ((1, 5, 0, 0, 3), (3, 4, 1, 1, 4), (2, 6, 1, 1, 4),
                               (2, 3, 0, 1, 5), (1, 2, 1, 0, 5)):
        shapes[f"comm_ju-k{k}-osc{osc}-{m}-d{drop}-w{w}"] = _cell_ju(k, osc, m, drop, w)
    # theta(u_n v) = (theta u)_n theta(v) on the charged sectors
    for k, u_kind, n, w in ((1, "omega", 1, 12), (2, "omega", -1, 12), (2, "omega", 0, 12),
                            (1, "J", 3, 7), (2, "J", 1, 7), (3, "J", 5, 10), (2, "J", 4, 8),
                            (3, "J", 2, 8), (1, 2, 0, 11), (2, 3, 1, 9), (3, 4, 2, 9),
                            (1, 5, 3, 7), (2, 6, 2, 6), (3, 6, 1, 7), (1, 3, 2, 9), (2, 4, 0, 7)):
        shapes[f"theta_zero-k{k}-{u_kind}-{n}-w{w}"] = _cell_theta(k, u_kind, n, w)
    # theta(e^b_n v) = (e^-b)_n theta(v)
    for k, b, n, w in ((1, 1, -3, 9), (2, 1, -1, 10), (3, 1, 1, 11), (1, 2, 3, 10),
                       (2, 1, 3, 12), (3, 1, -2, 9), (1, 1, 0, 10), (2, 2, 2, 9),
                       (1, 1, 2, 11), (3, 1, 3, 12)):
        shapes[f"theta_lattice-k{k}-b{b}-{n}-w{w}"] = _cell_lattice(k, b, n, w)
    return {name: (gen, 8, 1) for name, gen in shapes.items()}


FOCK_SHAPES = _fock_shapes()


def _fock_catalogue():
    out = {"jprod": [{"kind": "jprod", "shape": "jprod", "k": k} for k in FOCK_KS]}
    for shape, (gen, variants, _) in FOCK_SHAPES.items():
        out[shape] = []
        for i in range(variants):
            item = gen(random.Random(f"fock_modes/{shape}/{i}"))
            item["shape"] = shape
            out[shape].append(item)
    return out


# ---------------------------------------------------------------------------
# hw_scaling: graded pieces of freshly constructed modules, levels ascending

VIR_MAX_LEVEL = 13
W3_PRIMARY_WEIGHTS = range(3, 16)
W3_GRAM_WEIGHTS = range(3, 13)

# The values of one pool give Gram matrices of nearly the same size (total
# bit length of the entries at levels 10-13 within 6% inside the non-square
# and rational pools, 11% between the squares), so the seed's pick changes
# the cost of a pass by a few percent at most.
HW_POOLS = {
    # h = m^2: degenerate from level 2m+1 on
    "vir-square": ["4", "9"],
    # integers that are not squares: nondegenerate at c = 1
    "vir-nonsquare": ["5", "6", "7"],
    # denominators other than 1 and 4: off every Kac curve at c = 1
    "vir-rational": ["5/2", "7/2", "4/3", "5/6", "7/6"],
    # central charges of the W3 Gram block (c = 1 is the primary block's)
    "w3-gram": ["2", "1/2", "3", "1/3"],
}


def _hw_block(shape: str, value: str) -> list:
    if shape.startswith("vir-"):
        return [{"kind": "vir_gram", "shape": shape, "c": "1", "h": value, "level": lv}
                for lv in range(1, VIR_MAX_LEVEL + 1)]
    if shape == "w3-gram":
        return [{"kind": "w3_gram", "shape": shape, "c": value, "weight": w}
                for w in W3_GRAM_WEIGHTS]
    return [{"kind": "w3_primary", "shape": shape, "c": "1", "weight": w}
            for w in W3_PRIMARY_WEIGHTS]


def _hw_catalogue():
    out = {shape: [_hw_block(shape, v) for v in values] for shape, values in HW_POOLS.items()}
    out["w3-primary"] = [_hw_block("w3-primary", "1")]
    return out


# ---------------------------------------------------------------------------
# catalogue and draws


def catalogue(workload: str) -> dict:
    """shape -> list of variants (an item, or for hw_scaling a block of items)."""
    if workload == "suites_cli":
        return _cli_catalogue()
    if workload == "fock_modes":
        return _fock_catalogue()
    if workload == "hw_scaling":
        return _hw_catalogue()
    raise ValueError(f"unknown workload {workload!r}")


def catalogue_items(workload: str) -> list:
    """Every item any seed can draw, flattened (blocks kept in order)."""
    out = []
    for variants in catalogue(workload).values():
        for v in variants:
            out.extend(v if isinstance(v, list) else [v])
    return out


def per_pass_counts(workload: str) -> dict:
    if workload == "suites_cli":
        return {s: n for s, (_, _, n) in SUITES_CLI_SHAPES.items()}
    if workload == "fock_modes":
        counts = {"jprod": len(FOCK_KS)}
        counts.update({s: n for s, (_, _, n) in FOCK_SHAPES.items()})
        return counts
    return {shape: 1 for shape in list(HW_POOLS) + ["w3-primary"]}


def draw(workload: str, seed: int) -> tuple[list, dict]:
    """The items of one pass for this seed, and the draw parameters."""
    rng = random.Random(seed)
    cat = catalogue(workload)
    counts = per_pass_counts(workload)
    picked = {}
    for shape, variants in cat.items():
        if workload == "fock_modes" and shape == "jprod":
            continue
        n, count = len(variants), counts[shape]
        picked[shape] = sorted(rng.sample(range(n), count) if count <= n
                               else [rng.randrange(n) for _ in range(count)])
    if workload == "hw_scaling":
        blocks = [cat[shape][i] for shape, idx in picked.items() for i in idx]
        rng.shuffle(blocks)
        items = [it for block in blocks for it in block]
    else:
        items = [cat[shape][i] for shape, idx in picked.items() for i in idx]
        rng.shuffle(items)
        if workload == "fock_modes":
            # the J_i J products of every lattice parameter come first
            items = cat["jprod"] + items
    params = {
        "seed": seed,
        "catalogue_variants": {s: len(v) for s, v in cat.items()},
        "per_pass": counts,
        "picked_variants": picked,
        "items_per_pass": len(items),
    }
    return items, params
