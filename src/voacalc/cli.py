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
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__, fock, fusion, virasoro, w3
from .core import SparseVec, rank
from .fock import FockSpace
from .virasoro import VirasoroModule
from .w3 import W3Module


class UsageError(ValueError):
    pass


def _default_cutoff() -> int:
    raw = os.environ.get("VOACALC_CUTOFF")
    if raw is None:
        return 20
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"VOACALC_CUTOFF must be an integer, got {raw!r}") from exc
    if value < 0:
        raise UsageError("VOACALC_CUTOFF must be nonnegative")
    return value


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{what} must be a rational number, got {text!r}") from exc


_TOKEN_RE = re.compile(r"([LWae])\((-?\d+)\)")


def _tokenize_monomial(text: str, allowed: str) -> list[tuple[str, int]]:
    s = text.replace(" ", "")
    if s == "1":
        return []
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise UsageError(f"cannot parse monomial {text!r} at {s[pos:]!r}")
        gen, mode = m.group(1), int(m.group(2))
        if gen not in allowed:
            raise UsageError(f"generator {gen!r} not allowed in this algebra")
        tokens.append((gen, mode))
        pos = m.end()
    return tokens


def _parse_vir_monomial(text: str, module: VirasoroModule) -> tuple:
    parts = []
    for gen, mode in _tokenize_monomial(text, "L"):
        if mode >= 0:
            raise UsageError(f"basis monomials use creation modes; got L({mode})")
        parts.append(-mode)
    mono = tuple(sorted(parts, reverse=True))
    if mono and mono[-1] < module.min_part:
        raise UsageError(
            f"monomial {text!r} is not a basis monomial of this module "
            f"(L modes <= -{module.min_part})")
    return mono


def _parse_w3_monomial(text: str, module: W3Module) -> tuple:
    lparts, wparts = [], []
    for gen, mode in _tokenize_monomial(text, "LW"):
        if mode >= 0:
            raise UsageError(f"basis monomials use creation modes; got {gen}({mode})")
        (lparts if gen == "L" else wparts).append(-mode)
    mono = (tuple(sorted(lparts, reverse=True)), tuple(sorted(wparts, reverse=True)))
    if (mono[0] and mono[0][-1] < module.min_l) or (mono[1] and mono[1][-1] < module.min_w):
        raise UsageError(
            f"monomial {text!r} is not a basis monomial of this module "
            f"(L modes <= -{module.min_l}, W modes <= -{module.min_w})")
    return mono


def _parse_fock_monomial(text: str) -> tuple:
    parts, charge = [], 0
    seen_charge = False
    for gen, mode in _tokenize_monomial(text, "ae"):
        if gen == "a":
            if mode >= 0:
                raise UsageError(f"basis monomials use creation modes; got a({mode})")
            parts.append(-mode)
        else:
            if seen_charge:
                raise UsageError("at most one e(m) factor is allowed")
            charge, seen_charge = mode, True
    return (tuple(sorted(parts, reverse=True)), Fraction(charge))


def _vector_from_args(args, parse_monomial) -> SparseVec:
    if getattr(args, "terms", None):
        try:
            data = json.loads(args.terms)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--terms is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or not data:
            raise UsageError("--terms must be a non-empty JSON object")
        total = SparseVec.zero()
        for mono_text, coeff_text in data.items():
            coeff = _fraction(str(coeff_text), f"coefficient of {mono_text}")
            total = total + SparseVec.unit(parse_monomial(mono_text)).scaled(coeff)
        return total
    return SparseVec.unit(parse_monomial(getattr(args, "monomial", None) or "1"))


# ---------------------------------------------------------------------------
# command handlers: each returns (payload dict, check_failed bool)


_FOCK_SPACES = ("m1", "m1+", "m1-", "vl", "vl+", "vl-")


def _reject_flags(args, *names, context=None) -> None:
    """Usage error for any of the named flags, which `context` (by default
    the algebra) ignores."""
    given = [f"--{n.replace('_', '-')}" for n in names
             if getattr(args, n, None) not in (None, False)]
    if given:
        raise UsageError(f"{', '.join(given)} not used with "
                         f"{context or '--algebra ' + args.algebra}")


def _vir_module(args) -> VirasoroModule:
    _reject_flags(args, "lam", "mu", "k", "b")
    c = _fraction("1" if args.c is None else args.c, "--c")
    if args.vacuum:
        if args.h is not None:
            raise UsageError("--vacuum fixes h = 0; do not combine it with --h")
        return VirasoroModule.get(c, 0, vacuum=True)
    if args.h is None:
        raise UsageError("--h is required unless --vacuum is given")
    return VirasoroModule.get(c, _fraction(args.h, "--h"))


def _w3_get(c, *lowest) -> W3Module:
    try:
        return W3Module.get(c, *lowest)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _w3_module(args) -> W3Module:
    _reject_flags(args, "h", "vacuum", "k", "b")
    c = _fraction("1" if args.c is None else args.c, "--c")
    lam = getattr(args, "lam", None)
    mu = getattr(args, "mu", None)
    if (lam is None) != (mu is None):
        raise UsageError("--lam and --mu must be given together")
    if lam is None:
        return _w3_get(c)
    return _w3_get(c, _fraction(lam, "--lam"), _fraction(mu, "--mu"))


def _hw_module(args):
    """The Virasoro or W3 module the flags describe."""
    return _vir_module(args) if args.algebra == "vir" else _w3_module(args)


def _fock_space(args) -> FockSpace:
    _reject_flags(args, "c", "h", "vacuum", "lam", "mu", "kind")
    k = 1 if args.k is None else args.k
    if k < 1:
        raise UsageError("--k must be a positive integer")
    return FockSpace(k)


def _cmd_dims(args):
    lo, hi = args.min_weight, args.max_weight
    if lo < 0 or hi < lo:
        raise UsageError("need 0 <= --min-weight <= --max-weight")
    weights = list(range(lo, hi + 1))
    if args.algebra in _FOCK_SPACES:
        dims = _fock_space(args).char_series(args.algebra, hi)[lo:]
    else:
        module = _hw_module(args)
        dims = [module.dim(w) for w in weights]
    return {"weights": weights, "dims": dims}, False


def _cmd_char(args):
    cutoff = args.cutoff if args.cutoff is not None else _default_cutoff()
    if cutoff < 0:
        raise UsageError("--cutoff must be nonnegative")
    if args.algebra == "vir":
        _reject_flags(args, "k")
        if args.h is None:
            raise UsageError("--h is required for --algebra vir")
        h = _fraction(args.h, "--h")
        try:
            series = virasoro.char_series((args.kind or "l1", h), cutoff)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.algebra in _FOCK_SPACES:
        series = _fock_space(args).char_series(args.algebra, cutoff)
    else:
        raise UsageError(f"unknown algebra {args.algebra!r}")
    return {"cutoff": cutoff, "series": series}, False


def _cmd_basis(args):
    if args.weight < 0:
        raise UsageError("--weight must be nonnegative")
    if args.algebra in ("m1", "vl"):
        space = _fock_space(args)
        names = [fock.monomial_str(m) for m in space.basis(args.algebra, args.weight)]
    else:
        module = _hw_module(args)
        names = [module.monomial_str(m) for m in module.basis(args.weight)]
    return {"weight": args.weight, "dimension": len(names), "basis": names}, False


def _cmd_act(args):
    if args.algebra == "vir":
        module = _vir_module(args)
        if args.gen != "L":
            raise UsageError("the Virasoro algebra only has generator L")
        v = _vector_from_args(args, lambda t: _parse_vir_monomial(t, module))
        out = module.act(args.mode, v)
        terms = virasoro.vector_str_terms(out)
    elif args.algebra == "w3":
        module = _w3_module(args)
        if args.gen not in ("L", "W"):
            raise UsageError("generators are L and W")
        v = _vector_from_args(args, lambda t: _parse_w3_monomial(t, module))
        out = module.act(args.gen, args.mode, v)
        terms = w3.w3_vector_terms(out)
    elif args.algebra == "fock":
        space = _fock_space(args)
        v = _vector_from_args(args, _parse_fock_monomial)
        if args.gen == "e":
            if args.b is None:
                raise UsageError("--b (operator charge) is required for --gen e")
            u = space.xvec(_fraction(args.b, "--b"))
        elif args.b is not None:
            raise UsageError("--b is only used with --gen e")
        elif args.gen == "a":
            u = space.heis_act(-1, space.VACUUM)
        elif args.gen == "omega":
            u = space.omega()
        elif args.gen == "J":
            u = space.jvec()
        else:
            raise UsageError("fock generators are a, e, omega, J")
        try:
            out = space.vertex_mode(u, args.mode, v)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        terms = fock.vector_str_terms(out)
    else:
        raise UsageError(f"unknown algebra {args.algebra!r}")
    return {"gen": args.gen, "mode": args.mode, "terms": terms}, False


def _cmd_gram(args):
    if args.level < 0:
        raise UsageError("--level must be nonnegative")
    module = _hw_module(args)
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
    if args.algebra != "w3":
        raise UsageError("primary vectors are computed in the w3 algebra")
    module = _w3_module(args)
    if args.weight < 1:
        raise UsageError("--weight must be at least 1")
    vectors = module.primary_space(args.weight)
    return {
        "weight": args.weight,
        "dimension": len(vectors),
        "vectors": [w3.w3_vector_terms(v) for v in vectors],
    }, False


def _cmd_decompose(args):
    module = _w3_module(args)
    v = _vector_from_args(args, lambda t: _parse_w3_monomial(t, module))
    try:
        weight = module.vector_weight(v)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    primaries = [("w", SparseVec.unit(((), (3,))))]
    if weight >= 6:
        prims6 = module.primary_space(6)
        if prims6:
            primaries.append(("u6", prims6[0]))
    try:
        components, remainder = module.decompose(v, primaries)
    except w3.DegenerateBlockError as exc:
        raise UsageError(str(exc)) from exc
    return {
        "weight": weight,
        "components": {label: w3.w3_vector_terms(comp)
                       for label, comp in components.items()},
        "remainder": w3.w3_vector_terms(remainder),
    }, False


def _cmd_fusion(args):
    algebra = {"vir": "vir", "m1+": "m1+"}.get(args.algebra)
    if algebra is None:
        raise UsageError("fusion algebras are 'vir' and 'm1+'")
    try:
        a, b, t = (fusion.parse_label(x) for x in (args.a, args.b, args.t))
        dim = fusion.fusion_dim(algebra, a, b, t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return {
        "a": fusion.label_str(a),
        "b": fusion.label_str(b),
        "t": fusion.label_str(t),
        "dim": "unknown" if dim is None else dim,
    }, False


def _parse_m_range(text: str) -> tuple[int, ...]:
    s = text.replace(" ", "")
    m = re.fullmatch(r"(\d+)\.\.(\d+)", s)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise UsageError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    try:
        ms = tuple(int(x) for x in s.split(","))
    except ValueError as exc:
        raise UsageError(f"--m expects e.g. '0..2' or '0,1,2', got {text!r}") from exc
    if min(ms) < 0:
        raise UsageError(f"--m entries must be nonnegative, got {text!r}")
    return ms


# the flags each suite reads, with their defaults; `verify all` reads them all
_SUITE_FLAGS = {
    "thm32": {"c": "1"},
    "prop21": {"m": "0..2", "max_level": 5},
    "lemma57": {"k": 3, "cutoff": None},
    "fusion-symmetry": {"samples": 50, "seed": 20240601},
    "fock": {},
}


def _cmd_verify(args):
    for suite, flags in _SUITE_FLAGS.items():
        if args.suite not in (suite, "all"):
            _reject_flags(args, *flags, context=f"verify {args.suite}")
        for name, default in flags.items():
            if getattr(args, name) is None:
                setattr(args, name, default)

    def run(name: str) -> dict:
        if name == "thm32":
            c = _fraction(args.c, "--c")
            _w3_get(c)  # usage error where the W,W bracket is undefined
            return w3.verify_theorem32(c)
        if name == "prop21":
            if args.max_level < 1:
                raise UsageError("--max-level must be at least 1")
            return virasoro.verify_prop21(_parse_m_range(args.m), args.max_level)
        if name == "lemma57":
            cutoff = args.cutoff if args.cutoff is not None else _default_cutoff()
            if args.k < 1:
                raise UsageError("--k must be a positive integer")
            if cutoff < 0:
                raise UsageError("--cutoff must be nonnegative")
            return fock.verify_lemma57(args.k, cutoff)
        if name == "fusion-symmetry":
            if args.samples < 1:
                raise UsageError("--samples must be at least 1")
            return fusion.verify_fusion_symmetry(samples=args.samples,
                                                 seed=args.seed)
        if name == "fock":
            return fock.verify_fock()
        raise UsageError(f"unknown suite {name!r}")

    if args.suite == "all":
        suites = [run(n) for n in _SUITE_FLAGS]
        ok = all(s["pass"] for s in suites)
        return {"suites": suites, "pass": ok}, not ok
    report = run(args.suite)
    return report, not report["pass"]


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
        p.add_argument("--c", help="central charge (rational)")
        p.add_argument("--h", help="lowest weight (rational)")
        p.add_argument("--vacuum", action="store_true",
                       help="use the vacuum quotient instead of a generic module")

    def add_w3_params(p):
        p.add_argument("--lam", help="L0 lowest eigenvalue (generic module)")
        p.add_argument("--mu", help="W0 lowest eigenvalue (generic module)")

    p = sub.add_parser("dims", help="graded dimensions over a weight range")
    p.add_argument("--algebra", required=True,
                   choices=("vir", "w3") + _FOCK_SPACES)
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--k", type=int, help="lattice half-norm")
    p.add_argument("--min-weight", type=int, default=0)
    p.add_argument("--max-weight", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("char", help="character q-series")
    p.add_argument("--algebra", required=True, choices=("vir",) + _FOCK_SPACES)
    p.add_argument("--kind", choices=("verma", "l1"), help="virasoro series kind")
    p.add_argument("--h", help="lowest weight (vir)")
    p.add_argument("--k", type=int)
    p.add_argument("--cutoff", type=int, default=None,
                   help="highest q power (default: VOACALC_CUTOFF or 20)")
    add_format(p)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("basis", help="monomial basis of a graded piece")
    p.add_argument("--algebra", required=True, choices=("vir", "w3", "m1", "vl"))
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--k", type=int)
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("act", help="apply one generator mode to a vector")
    p.add_argument("--algebra", required=True, choices=("vir", "w3", "fock"))
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--k", type=int)
    p.add_argument("--gen", required=True,
                   help="L or W (vir/w3); a, e, omega, J (fock)")
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--b", help="operator charge for --gen e (rational)")
    p.add_argument("--monomial", help='input monomial, e.g. "L(-2)W(-3)"')
    p.add_argument("--terms", help='input vector as JSON {"monomial": "p/q"}')
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("gram", help="contravariant Gram matrix at a level")
    p.add_argument("--algebra", required=True, choices=("vir", "w3"))
    add_vir_params(p)
    add_w3_params(p)
    p.add_argument("--level", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("primary", help="primary vectors at a weight")
    p.add_argument("--algebra", default="w3", choices=("w3",))
    p.add_argument("--c", default="1")
    add_w3_params(p)
    p.add_argument("--weight", type=int, required=True)
    p.set_defaults(func=_cmd_primary)

    p = sub.add_parser("decompose",
                       help="split a vacuum-module vector into Virasoro blocks")
    p.add_argument("--algebra", default="w3", choices=("w3",))
    p.add_argument("--c", default="1")
    add_w3_params(p)
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
    p.add_argument("suite", choices=("thm32", "prop21", "lemma57",
                                     "fusion-symmetry", "fock", "all"))
    p.add_argument("--c", help="central charge for thm32")
    p.add_argument("--m", help="lowest-weight roots for prop21")
    p.add_argument("--max-level", type=int)
    p.add_argument("--k", type=int, help="lattice half-norm for lemma57")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--samples", type=int)
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
    elif command == "gram":
        lines = [",".join(row) for row in payload["matrix"]]
    else:
        raise UsageError(f"--format csv is not available for {command!r}")
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
        fmt = getattr(args, "format", "json")
        if fmt == "csv":
            sys.stdout.write(_emit_csv(args.command, payload))
        else:
            report = {"command": args.command, "invocation": argv,
                      "version": __version__}
            report.update(payload)
            sys.stdout.write(json.dumps(report, indent=2) + "\n")
    except UsageError as exc:
        sys.stderr.write(f"voacalc: error: {exc}\n")
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
