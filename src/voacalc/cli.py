"""Command-line interface.

Every command prints a single deterministic JSON report (scalars rendered as
exact "p/q" strings, integers as integers) and exits 0 on success, 1 when a
requested verification check fails, 2 on a usage error.  `--format csv` is
available for the tabular commands (dims, char, gram).

The VOACALC_CUTOFF environment variable overrides the default series cutoff
used by `char` and the lemma57 suite.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .core import InputError, SparseVec, rank, rational


# Size caps. Each is at least the largest size the tests and the benchmark
# use; the README lists the slowest call each admits.
MAX_WEIGHT = 40  # dims and basis weights, series cutoffs, Fock `act` output heights
MAX_LEVEL = 16  # gram --level, primary --weight, weights of `act`/`decompose` inputs
MAX_BASIS_DIM = 172_430  # Virasoro/W3 `basis` monomials: the W3 vacuum at weight 40
MAX_FORM_DIM = 285  # monomials for gram, primary, decompose, act inputs: the W3 vacuum at weight 16
MAX_PROP21_LEVEL = 12
MAX_M = 10
MAX_SAMPLES = 100_000


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in lo..hi (no upper bound if hi is None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
        return value
    return parse


_positive = _int_in(1)
_weight = _int_in(0, MAX_WEIGHT)
_level = _int_in(0, MAX_LEVEL)
_m_entry = _int_in(0, MAX_M)


def _m_values(text: str) -> tuple[int, ...]:
    """argparse type for --m: a range "lo..hi" or a list "a,b,c"."""
    s = text.replace(" ", "")
    if ".." in s:
        lo, hi = (_m_entry(x) for x in s.split("..", 1))
        values = tuple(range(lo, hi + 1))
    else:
        values = tuple(_m_entry(x) for x in s.split(","))
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return values


def _cutoff_or_env(cutoff: int | None) -> int:
    """--cutoff if given, else VOACALC_CUTOFF, else 20."""
    if cutoff is not None:
        return cutoff
    try:
        return _weight(os.environ.get("VOACALC_CUTOFF", "20"))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"VOACALC_CUTOFF: {exc}") from exc


# at most nine digits, so int() never meets a digit string too long to convert
_TOKEN_RE = re.compile(r"([LWae])\((-?\d{1,9})\)")


def _tokenize_monomial(text: str, allowed: str) -> list[tuple[str, int]]:
    """(generator, mode) pairs of a monomial such as "L(-2)W(-3)", none for
    "1". Every mode but the charge m of e(m) is a creation mode, and they add
    up to a weight of at most MAX_LEVEL."""
    s = text.replace(" ", "")
    if s == "1":
        return []
    if not re.fullmatch(f"(?:{_TOKEN_RE.pattern})+", s):
        raise InputError(f"cannot parse monomial {text!r}")
    tokens = [(gen, int(mode)) for gen, mode in _TOKEN_RE.findall(s)]
    for gen, mode in tokens:
        if gen not in allowed:
            raise InputError(f"generator {gen!r} not allowed in this algebra")
        if gen != "e" and mode >= 0:
            raise InputError(f"basis monomials use creation modes; got {gen}({mode})")
    if -sum(mode for gen, mode in tokens if gen != "e") > MAX_LEVEL:
        raise InputError(f"monomial {text!r} has weight above {MAX_LEVEL}")
    return tokens


def _parse_hw_monomial(text: str, module):
    """The basis monomial of a Virasoro or W3 module that `text` writes as
    `basis` prints it: the module's own straightening of the mode word must
    give back that one monomial. `act` rejects a generator the module lacks."""
    tokens = _tokenize_monomial(text, "LW")
    error = InputError(f"{text!r} is not a basis monomial of this module; "
                       "write one as `basis` prints it")
    mono = module.EMPTY
    for token in reversed(tokens):
        # every suffix of a basis monomial is one: stop at the first that is
        # not, before a long misordered word is straightened in full
        terms = list(module.apply_word([token], mono).items())
        if len(terms) != 1 or terms[0][1] != 1:
            raise error
        mono = terms[0][0]
    if module.monomial_str(mono) != text.replace(" ", ""):
        raise error
    return mono


def _parse_fock_monomial(text: str) -> tuple:
    """Oscillators commute, so they may come in any order."""
    tokens = _tokenize_monomial(text, "ae")
    charges = [mode for gen, mode in tokens if gen == "e"]
    if len(charges) > 1:
        raise InputError("at most one e(m) factor is allowed")
    parts = sorted((-mode for gen, mode in tokens if gen == "a"), reverse=True)
    return (tuple(parts), Fraction(charges[0] if charges else 0))


def _vector_from_args(args, parse_monomial) -> SparseVec:
    if args.terms is None:
        return SparseVec.unit(parse_monomial("1" if args.monomial is None else args.monomial))
    if args.monomial is not None:
        raise InputError("give --monomial or --terms, not both")
    try:
        data = json.loads(args.terms)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"--terms is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not data:
        raise InputError("--terms must be a non-empty JSON object")
    return SparseVec((parse_monomial(text), rational(str(coeff))) for text, coeff in data.items())


# ---------------------------------------------------------------------------
# command handlers: each returns (payload dict, check_failed bool). Each
# imports the engine modules it runs where it runs them, so a CLI process
# compiles only those (`import voacalc` loads none).


_FOCK_SPACES = ("m1", "m1+", "m1-", "vl", "vl+", "vl-")


def _reject_flags(args, *names, context=None) -> None:
    """Usage error for any of the named flags, which `context` (by default
    the algebra) ignores."""
    given = [f"--{n.replace('_', '-')}" for n in names
             if getattr(args, n, None) is not None]
    if given:
        raise InputError(f"{', '.join(given)} not used with "
                         f"{context or '--algebra ' + args.algebra}")


def _vir_module(args):
    from .virasoro import VirasoroModule
    _reject_flags(args, "lam", "mu", "k", "b")
    c = 1 if args.c is None else args.c
    if args.vacuum:
        if args.h is not None:
            raise InputError("--vacuum fixes h = 0; do not combine it with --h")
        return VirasoroModule.get(c, 0, vacuum=True)
    if args.h is None:
        raise InputError("--h is required unless --vacuum is given")
    return VirasoroModule.get(c, args.h)


def _w3_module(args):
    """`decompose` has no --lam and --mu: it always takes the vacuum module."""
    from .w3 import W3Module
    _reject_flags(args, "h", "vacuum", "k", "b")
    return W3Module.get(1 if args.c is None else args.c,
                        getattr(args, "lam", None), getattr(args, "mu", None))


def _hw_module(args):
    """The Virasoro or W3 module the flags describe."""
    return _vir_module(args) if args.algebra == "vir" else _w3_module(args)


def _fock_space(args):
    from .fock import FockSpace
    _reject_flags(args, "c", "h", "vacuum", "lam", "mu", "kind")
    return FockSpace(1 if args.k is None else args.k)


def _check_dim(module, weight: int, cap: int) -> None:
    if (dim := module.dim(weight)) > cap:
        raise InputError(f"the graded piece at weight {weight} has {dim} monomials; "
                         f"the cap is {cap}")


def _cmd_dims(args):
    lo, hi = args.min_weight, args.max_weight
    if hi < lo:
        raise InputError("need --min-weight <= --max-weight")
    weights = list(range(lo, hi + 1))
    if args.algebra in _FOCK_SPACES:
        dims = _fock_space(args).char_series(args.algebra, hi)[lo:]
    else:
        module = _hw_module(args)
        dims = [module.dim(w) for w in weights]
    return {"weights": weights, "dims": dims}, False


def _cmd_char(args):
    cutoff = _cutoff_or_env(args.cutoff)
    if args.algebra == "vir":
        _reject_flags(args, "k")
        if args.h is None:
            raise InputError("--h is required for --algebra vir")
        from .virasoro import irreducible_character_c1, verma_character
        character = verma_character if args.kind == "verma" else irreducible_character_c1
        series = character(args.h, cutoff)
    else:
        series = _fock_space(args).char_series(args.algebra, cutoff)
    return {"cutoff": cutoff, "series": series}, False


def _cmd_basis(args):
    if args.algebra in ("m1", "vl"):
        from .fock import monomial_str
        space = _fock_space(args)
        names = [monomial_str(m) for m in space.basis(args.algebra, args.weight)]
    else:
        module = _hw_module(args)
        _check_dim(module, args.weight, MAX_BASIS_DIM)
        names = [module.monomial_str(m) for m in module.basis(args.weight)]
    return {"weight": args.weight, "dimension": len(names), "basis": names}, False


def _cmd_act(args):
    if args.algebra in ("vir", "w3"):
        module = _hw_module(args)
        v = _vector_from_args(args, lambda t: _parse_hw_monomial(t, module))
        for mono in v.keys():
            _check_dim(module, module.level(mono), MAX_FORM_DIM)
        terms = module.terms(module.act(args.gen, args.mode, v))
    else:
        space = _fock_space(args)
        v = _vector_from_args(args, _parse_fock_monomial)
        if args.gen == "e":
            if args.b is None:
                raise InputError("--b (operator charge) is required for --gen e")
            u = space.xvec(args.b)
        elif args.b is not None:
            raise InputError("--b is only used with --gen e")
        elif args.gen == "a":
            u = space.heis_act(-1, space.VACUUM)
        elif args.gen == "omega":
            u = space.omega()
        elif args.gen == "J":
            u = space.jvec()
        else:
            raise InputError("fock generators are a, e, omega, J")
        # u_(n) w lies this far above the lowest weight of its charge sector
        height = max((sum(uparts) + sum(parts) - 2 * space.k * b * c - args.mode - 1
                      for uparts, b in u.keys() for parts, c in v.keys()), default=0)
        if height > MAX_WEIGHT:
            raise InputError(f"the output would reach {height} above the lowest "
                             f"weight of its charge sector; the cap is {MAX_WEIGHT}")
        from .fock import vector_str_terms
        terms = vector_str_terms(space.vertex_mode(u, args.mode, v))
    return {"gen": args.gen, "mode": args.mode, "terms": terms}, False


def _cmd_gram(args):
    module = _hw_module(args)
    _check_dim(module, args.level, MAX_FORM_DIM)
    matrix = module.gram(args.level)
    r = rank(matrix)
    return {
        "level": args.level,
        "basis": [module.monomial_str(m) for m in module.basis(args.level)],
        "matrix": [[str(x) for x in row] for row in matrix],
        "rank": r,
        "nullity": len(matrix) - r,
    }, False


def _cmd_primary(args):
    module = _w3_module(args)
    _check_dim(module, args.weight, MAX_FORM_DIM)
    vectors = module.primary_space(args.weight)
    return {
        "weight": args.weight,
        "dimension": len(vectors),
        "vectors": [module.terms(v) for v in vectors],
    }, False


def _cmd_decompose(args):
    module = _w3_module(args)
    v = _vector_from_args(args, lambda t: _parse_hw_monomial(t, module))
    weight = module.vector_weight(v)
    _check_dim(module, weight, MAX_FORM_DIM)
    primaries = [("w", SparseVec.unit(((), (3,))))]
    if weight >= 6:
        # never empty, by the count in w3.verify_theorem32
        primaries.append(("u6", module.primary_space(6)[0]))
    components, remainder = module.decompose(v, primaries)
    return {
        "weight": weight,
        "components": {label: module.terms(comp) for label, comp in components.items()},
        "remainder": module.terms(remainder),
    }, False


def _cmd_fusion(args):
    from . import fusion
    a, b, t = (fusion.parse_label(x) for x in (args.a, args.b, args.t))
    dim = fusion.fusion_dim(args.algebra, a, b, t)
    return {
        "a": fusion.label_str(a),
        "b": fusion.label_str(b),
        "t": fusion.label_str(t),
        "dim": "unknown" if dim is None else dim,
    }, False


# suite -> (module name, function name, {flag: parameter}). A suite is passed only the
# flags given, so every default is its function's own. Its function is looked up
# on the module, imported at each call, so a wrapper set there (bench/cli_probe.py) runs.
_SUITES = {
    "thm32": ("w3", "verify_theorem32", {"c": "c"}),
    "prop21": ("virasoro", "verify_prop21", {"m": "ms", "max_level": "max_level"}),
    "lemma57": ("fock", "verify_lemma57", {"k": "k", "cutoff": "cutoff"}),
    "fusion-symmetry": ("fusion", "verify_fusion_symmetry", {"samples": "samples", "seed": "seed"}),
    "fock": ("fock", "verify_fock", {}),
}


def _cmd_verify(args):
    runs = [suite for suite in _SUITES if args.suite in (suite, "all")]
    for suite, (_, _, flags) in _SUITES.items():
        if suite not in runs:
            _reject_flags(args, *flags, context=f"verify {args.suite}")
    if "lemma57" in runs:
        args.cutoff = _cutoff_or_env(args.cutoff)
    reports = []
    for home, name, flags in map(_SUITES.get, runs):
        given = {param: getattr(args, flag) for flag, param in flags.items()
                 if getattr(args, flag) is not None}
        verify = getattr(importlib.import_module(f".{home}", __package__), name)
        reports.append(verify(**given))
    ok = all(report["pass"] for report in reports)
    return (reports[0] if args.suite != "all" else {"suites": reports, "pass": ok}), not ok


# ---------------------------------------------------------------------------
# parser and output


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voacalc",
        description="exact vertex-algebra calculations (Virasoro, W3, lattice Fock)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_vir_params(p):
        p.add_argument("--c", type=rational, help="central charge (rational)")
        p.add_argument("--h", type=rational, help="lowest weight (rational)")
        p.add_argument("--vacuum", action="store_true", default=None,
                       help="use the vacuum quotient instead of a generic module")

    def add_w3_params(p):
        p.add_argument("--lam", type=rational, help="L0 lowest eigenvalue (generic module)")
        p.add_argument("--mu", type=rational, help="W0 lowest eigenvalue (generic module)")

    p = sub.add_parser("dims", help="graded dimensions over a weight range")
    p.add_argument("--algebra", required=True,
                   choices=("vir", "w3") + _FOCK_SPACES)
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--k", type=_positive, help="lattice half-norm")
    p.add_argument("--min-weight", type=_weight, default=0)
    p.add_argument("--max-weight", type=_weight, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("char", help="character q-series")
    p.add_argument("--algebra", required=True, choices=("vir",) + _FOCK_SPACES)
    p.add_argument("--kind", choices=("verma", "l1"), help="virasoro series kind")
    p.add_argument("--h", type=rational, help="lowest weight (vir)")
    p.add_argument("--k", type=_positive)
    p.add_argument("--cutoff", type=_weight,
                   help="highest q power (default: VOACALC_CUTOFF or 20)")
    add_format(p)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("basis", help="monomial basis of a graded piece")
    p.add_argument("--algebra", required=True, choices=("vir", "w3", "m1", "vl"))
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--k", type=_positive)
    p.add_argument("--weight", type=_weight, required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("act", help="apply one generator mode to a vector")
    p.add_argument("--algebra", required=True, choices=("vir", "w3", "fock"))
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--k", type=_positive)
    p.add_argument("--gen", required=True,
                   help="L or W (vir/w3); a, e, omega, J (fock)")
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--b", type=rational, help="operator charge for --gen e (rational)")
    p.add_argument("--monomial", help='input basis monomial, e.g. "L(-2)W(-3)"')
    p.add_argument("--terms", help='input vector as JSON {"monomial": "p/q"}')
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("gram", help="contravariant Gram matrix at a level")
    p.add_argument("--algebra", required=True, choices=("vir", "w3"))
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--level", type=_level, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("primary", help="primary vectors at a weight")
    p.add_argument("--algebra", default="w3", choices=("w3",))
    p.add_argument("--c", type=rational)
    add_w3_params(p)
    p.add_argument("--weight", type=_int_in(1, MAX_LEVEL), required=True)
    p.set_defaults(func=_cmd_primary)

    p = sub.add_parser("decompose",
                       help="split a vacuum-module vector into Virasoro blocks")
    p.add_argument("--algebra", default="w3", choices=("w3",))
    p.add_argument("--c", type=rational)
    p.add_argument("--monomial")
    p.add_argument("--terms")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fusion", help="fusion-dimension oracle")
    p.add_argument("--algebra", required=True, choices=("vir", "m1+"))
    p.add_argument("--a", required=True, help='e.g. "L(1,1)" or "M(1,3/2)"')
    p.add_argument("--b", required=True)
    p.add_argument("--t", required=True, help="target label")
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("verify", help="named verification suites")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    p.add_argument("--c", type=rational, help="central charge for thm32")
    p.add_argument("--m", type=_m_values, help="lowest-weight roots for prop21")
    p.add_argument("--max-level", type=_int_in(1, MAX_PROP21_LEVEL))
    p.add_argument("--k", type=_positive, help="lattice half-norm for lemma57")
    p.add_argument("--cutoff", type=_weight)
    p.add_argument("--samples", type=_int_in(1, MAX_SAMPLES))
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def _emit_csv(command: str, payload: dict) -> str:
    if command == "dims":
        lines = ["weight,dim"]
        lines += [f"{w},{d}" for w, d in zip(payload["weights"], payload["dims"])]
    elif command == "char":
        lines = ["power,coefficient"]
        lines += [f"{i},{c}" for i, c in enumerate(payload["series"])]
    else:  # gram
        lines = [",".join(row) for row in payload["matrix"]]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, failed = args.func(args)
    except InputError as exc:
        sys.stderr.write(f"voacalc: error: {exc}\n")
        return 2
    if getattr(args, "format", "json") == "csv":
        sys.stdout.write(_emit_csv(args.command, payload))
    else:
        report = {"command": args.command, "invocation": argv,
                  "version": __version__}
        report.update(payload)
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
