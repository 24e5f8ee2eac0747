"""Fusion-dimension oracle for irreducible modules of the c=1 Virasoro
algebra and of the charge-0 orbifold Heisenberg algebra.

The oracle encodes quoted dimension statements as a decision function over
module labels and returns 0, 1, or None (unknown) — never guessing outside
the encoded clauses.

Virasoro labels: L(1,h) with rational h >= 0.
  - square/square -> square: dim I(L(1,k^2); L(1,m^2) L(1,n^2)) = 1 iff
    |n-m| <= k <= n+m, else 0 (m, n, k nonnegative integers).
  - square/non-square integer: dim I(L(1,k); L(1,m^2) L(1,n)) = 1 iff k = n,
    else 0, for n a positive non-square integer and k a nonnegative integer.
  - two distinct positive non-square integers: any target with square lowest
    weight gives 0.

Orbifold labels: M(1)+, M(1)-, M(1,lam) (lam != 0, identified with
M(1,-lam)), and the twisted pair M(1)(theta)+-. With one bottom argument
M(1,lam), the dimension is 1 exactly on a recorded pair list and 0 otherwise;
the list is closed under exchanging the remaining bottom argument with the
target because every label here is self-contragredient and exchanging them
preserves the dimension. Queries with no M(1,lam) on the bottom are outside
the encoded statements and return None.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import isqrt

from .core import InputError, check, rational

Label = tuple

VIR = "vir"
M1_PLUS = "m1+"
M1_MINUS = "m1-"
M1_LAMBDA = "m1lam"
M1_THETA_PLUS = "m1t+"
M1_THETA_MINUS = "m1t-"

_TWISTED = (M1_THETA_PLUS, M1_THETA_MINUS)
_UNTWISTED_FIXED = (M1_PLUS, M1_MINUS)


def vir_label(h) -> Label:
    h = Fraction(h)
    if h < 0:
        raise InputError("Virasoro lowest weight must be nonnegative")
    return (VIR, h)


def m1_label(lam) -> Label:
    lam = Fraction(lam)
    if lam == 0:
        raise InputError("M(1,lam) requires lam != 0; "
                         "the lam = 0 sectors are M(1)+ and M(1)-")
    return (M1_LAMBDA, abs(lam))


_LABEL_RE = re.compile(
    r"""^(?:
        L\(1,(?P<h>-?\d+(?:/\d+)?)\)
      | M\(1\)\(theta\)(?P<tsign>[+-])
      | M\(1\)(?P<sign>[+-])
      | M\(1,(?P<lam>-?\d+(?:/\d+)?)\)
    )$""",
    re.VERBOSE,
)


def parse_label(text: str) -> Label:
    """Parse "L(1,9/4)", "M(1)+", "M(1,3/2)", "M(1)(theta)-" forms."""
    m = _LABEL_RE.match(text.replace(" ", ""))
    if not m:
        raise InputError(f"unrecognized module label {text!r}")
    if m.group("h") is not None:
        return vir_label(rational(m.group("h")))
    if m.group("tsign") is not None:
        return (M1_THETA_PLUS,) if m.group("tsign") == "+" else (M1_THETA_MINUS,)
    if m.group("sign") is not None:
        return (M1_PLUS,) if m.group("sign") == "+" else (M1_MINUS,)
    return m1_label(rational(m.group("lam")))


def label_str(label: Label) -> str:
    kind = label[0]
    if kind == VIR:
        return f"L(1,{label[1]})"
    if kind == M1_PLUS:
        return "M(1)+"
    if kind == M1_MINUS:
        return "M(1)-"
    if kind == M1_LAMBDA:
        return f"M(1,{label[1]})"
    if kind == M1_THETA_PLUS:
        return "M(1)(theta)+"
    if kind == M1_THETA_MINUS:
        return "M(1)(theta)-"
    raise InputError(f"bad label {label!r}")


def _square_root_if_square(h: Fraction):
    """Integer r >= 0 with r^2 = h, or None."""
    if h.denominator != 1 or h < 0:
        return None
    r = isqrt(h.numerator)
    return r if r * r == h.numerator else None


def _nonsquare_positive_integer(h: Fraction) -> bool:
    return h.denominator == 1 and h > 0 and _square_root_if_square(h) is None


def _vir_fusion(a: Fraction, b: Fraction, t: Fraction):
    ra, rb, rt = (_square_root_if_square(x) for x in (a, b, t))
    # all three square integer weights
    if ra is not None and rb is not None and rt is not None:
        return 1 if abs(rb - ra) <= rt <= rb + ra else 0
    # one square bottom, one positive non-square integer bottom,
    # nonnegative integer target
    for sq, other in ((ra, b), (rb, a)):
        if sq is not None and _nonsquare_positive_integer(other):
            if t.denominator == 1 and t >= 0:
                return 1 if t == other else 0
    # two distinct positive non-square integer bottoms, square target
    if (_nonsquare_positive_integer(a) and _nonsquare_positive_integer(b)
            and a != b and rt is not None):
        return 0
    return None


def _m1_pair_dim(lam: Fraction, n_label: Label, t_label: Label) -> int:
    """Dimension for bottom M(1,lam) x N -> T from the recorded pair list
    (already one-directional; symmetrization happens in the caller)."""
    nk, tk = n_label[0], t_label[0]
    if nk in _UNTWISTED_FIXED and tk == M1_LAMBDA:
        return 1 if t_label[1] == lam else 0
    if nk == M1_LAMBDA and tk == M1_LAMBDA:
        mu, nu = n_label[1], t_label[1]
        return 1 if nu in (abs(lam + mu), abs(lam - mu)) else 0
    if nk in _TWISTED and tk in _TWISTED:
        return 1
    return 0


def fusion_dim(algebra: str, a: Label, b: Label, t: Label):
    """Dimension of the space of intertwining operators of type (t; a, b),
    or None when no encoded statement covers the triple."""
    if algebra == VIR:
        for lab in (a, b, t):
            if lab[0] != VIR:
                raise InputError(f"label {label_str(lab)} is not a Virasoro label")
        return _vir_fusion(a[1], b[1], t[1])
    if algebra == "m1+":
        for lab in (a, b, t):
            if lab[0] == VIR:
                raise InputError(f"label {label_str(lab)} is not an orbifold label")
        # a statement applies when some bottom argument is M(1,lam)
        for m_lab, n_lab in ((a, b), (b, a)):
            if m_lab[0] == M1_LAMBDA:
                lam = m_lab[1]
                d1 = _m1_pair_dim(lam, n_lab, t)
                d2 = _m1_pair_dim(lam, t, n_lab)  # exchange N <-> T
                return max(d1, d2)
        return None
    raise InputError(f"unknown algebra {algebra!r}; expected 'vir' or 'm1+'")


# -- symmetry verification ----------------------------------------------------

def _m1_label_pool():
    lams = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
            Fraction(5, 2), Fraction(3)]
    pool = [(M1_PLUS,), (M1_MINUS,), (M1_THETA_PLUS,), (M1_THETA_MINUS,)]
    pool.extend(m1_label(lam) for lam in lams)
    return pool


def verify_fusion_symmetry(max_root: int = 5, samples: int = 50,
                           seed: int = 20240601) -> dict:
    """Exchange symmetry in the two bottom arguments and the bottom/target
    exchange (all labels here are self-contragredient), on the exhaustive
    square-weight grid and on seeded random orbifold triples, plus the
    recorded example triples."""
    checks: list[dict] = []

    # recorded example triples
    examples = [
        ("vir-square-triple", VIR, "L(1,1)", "L(1,1)", "L(1,4)", 1),
        ("vir-square-nonsquare-match", VIR, "L(1,9)", "L(1,3)", "L(1,3)", 1),
        ("vir-square-nonsquare-mismatch", VIR, "L(1,9)", "L(1,3)", "L(1,5)", 0),
        ("vir-two-nonsquares-square-target", VIR, "L(1,3)", "L(1,6)", "L(1,9)", 0),
        ("m1-sum-charge", "m1+", "M(1,1)", "M(1,3/2)", "M(1,5/2)", 1),
        ("m1-wrong-charge", "m1+", "M(1,1)", "M(1,3/2)", "M(1,3)", 0),
        ("m1-fixed-point-target", "m1+", "M(1,3/2)", "M(1,3/2)", "M(1)+", 1),
        ("m1-fixed-point-source", "m1+", "M(1,3/2)", "M(1)+", "M(1,3/2)", 1),
        ("m1-twisted-pair", "m1+", "M(1,3/2)", "M(1)(theta)+", "M(1)(theta)-", 1),
        ("m1-twisted-untwisted", "m1+", "M(1,3/2)", "M(1)(theta)+", "M(1)-", 0),
    ]
    for name, alg, sa, sb, st, want in examples:
        got = fusion_dim(alg, parse_label(sa), parse_label(sb), parse_label(st))
        checks.append(check(name, "PAPER", str(want),
                            "unknown" if got is None else str(got), got == want,
                            triple=[sa, sb, st]))

    # exhaustive square grid: interval rule, exchange and bottom/target moves
    grid_total = 0
    rule_bad = swap_bad = dual_bad = 0
    for m in range(max_root + 1):
        for n in range(max_root + 1):
            for k in range(max_root + 1):
                a, b, t = (vir_label(m * m), vir_label(n * n),
                           vir_label(k * k))
                grid_total += 1
                d = fusion_dim(VIR, a, b, t)
                want = 1 if abs(n - m) <= k <= n + m else 0
                if d != want:
                    rule_bad += 1
                if d != fusion_dim(VIR, b, a, t):
                    swap_bad += 1
                if d != fusion_dim(VIR, a, t, b):
                    dual_bad += 1
    checks.append(check("vir-grid-interval-rule", "PAPER", "0 violations",
                        f"{rule_bad} violations", rule_bad == 0, triples=grid_total))
    checks.append(check("vir-grid-exchange", "TRIVIAL", "0 violations",
                        f"{swap_bad} violations", swap_bad == 0))
    checks.append(check("vir-grid-bottom-target-exchange", "PAPER", "0 violations",
                        f"{dual_bad} violations", dual_bad == 0))

    # seeded random orbifold triples
    rng = random.Random(seed)
    pool = _m1_label_pool()
    swap_bad = dual_bad = ident_bad = 0
    known = 0
    for _ in range(samples):
        a, b, t = (rng.choice(pool) for _ in range(3))
        d = fusion_dim("m1+", a, b, t)
        ds = fusion_dim("m1+", b, a, t)
        if d is not None and ds is not None:
            known += 1
            if d != ds:
                swap_bad += 1
        dd = fusion_dim("m1+", a, t, b)
        if d is not None and dd is not None and d != dd:
            dual_bad += 1
        # identification M(1,lam) = M(1,-lam): rebuild with negated charges
        neg = tuple(m1_label(-lab[1]) if lab[0] == M1_LAMBDA else lab
                    for lab in (a, b, t))
        if fusion_dim("m1+", *neg) != d:
            ident_bad += 1
    checks.append(check("m1-random-exchange", "DERIVED", "0 violations",
                        f"{swap_bad} violations", swap_bad == 0,
                        samples=samples, comparable=known))
    checks.append(check("m1-random-bottom-target-exchange", "DERIVED", "0 violations",
                        f"{dual_bad} violations", dual_bad == 0))
    checks.append(check("m1-random-charge-negation", "PAPER", "0 violations",
                        f"{ident_bad} violations", ident_bad == 0))

    return {
        "suite": "fusion-symmetry",
        "params": {"max_root": max_root, "samples": samples, "seed": seed},
        "checks": checks,
        "pass": all(ch["pass"] for ch in checks),
    }
