"""One pass of the fock_modes or hw_scaling workload, in a fresh process.

Reads {"items": [...], "trace": 0 or 1} as JSON on stdin, runs every item
through voacalc's public API, and writes one JSON object on stdout: the
process's start and import times, each item's latency, check outcome and
output digest, and, when tracing, the spans around every call into a layer
and the exact work counters.

Timing covers the calls into the engine and the assembly of each identity;
the checks and the digests run after an item's clock stops. The calibration
loop of bench/speed.py runs before the first item, after each item and,
untraced, 4 ms into an item and then every 0.2 s (its time is taken out of
the item's), so the caller can scale every latency to the reference speed.
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import comb, isqrt  # noqa: E402

from voacalc import (  # noqa: E402
    FockSpace,
    SparseVec,
    VirasoroModule,
    W3Module,
    partitions,
    rank,
)

T_IMPORT = time.monotonic()

from speed import Sampler, calibrate  # noqa: E402


class Tracer:
    """Spans [name, start, end, parent index, item index] kept in memory,
    plus exact counters. With tracing off, call() is a plain call."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []
        self.stack: list = []
        self.item = None
        self.counters: dict = {}

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.item]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.monotonic()
        try:
            return fn(*args)
        finally:
            span[2] = time.monotonic()
            self.stack.pop()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _fock_render(v: SparseVec) -> list:
    keys = sorted(v.keys(), key=lambda m: (m[1], m[0]))
    return [[list(p), str(ch), str(v.coeff((p, ch)))] for p, ch in keys]


def _w3_render(v: SparseVec) -> list:
    return [[list(lp), list(wp), str(v.coeff((lp, wp)))] for lp, wp in sorted(v.keys())]


def _matrix_render(g) -> list:
    return [[str(x) for x in row] for row in g]


def _partition_numbers(n: int) -> list:
    """p(0..n), counted part size by part size (independent of voacalc)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for i in range(part, n + 1):
            p[i] += p[i - part]
    return p


_P = _partition_numbers(64)


class Runner:
    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.spaces: dict = {}
        self.products: dict = {}
        # modules built by this pass, read for their memo sizes at the end
        self.vir_modules: dict = {}
        self.w3_modules: dict = {}

    # -- traced calls into the layers ------------------------------------

    def vmode(self, sp, u, n, v):
        out = self.tr.call("fock.vertex_mode", sp.vertex_mode, u, n, v)
        if self.tr.on:
            self.tr.count("fock.vertex_mode.calls")
            self.tr.count("fock.vertex_mode.terms_in", len(u) * len(v))
            self.tr.count("fock.vertex_mode.terms_out", len(out))
            self.tr.peak("fock.vertex_mode.max_u_osc", max((len(p) for p, _ in u.keys()), default=0))
        return out

    def lmode(self, sp, b, n, v):
        out = self.tr.call("fock.lattice_vertex_mode", sp.lattice_vertex_mode, b, n, v)
        if self.tr.on:
            self.tr.count("fock.lattice_vertex_mode.calls")
            self.tr.count("fock.lattice_vertex_mode.terms_out", len(out))
        return out

    def theta(self, sp, v):
        return self.tr.call("fock.theta", sp.theta, v)

    def sv(self, fn, *args):
        return self.tr.call("core.sparsevec", fn, *args)

    def rank(self, g):
        r = self.tr.call("core.rank", rank, g)
        if self.tr.on:
            self.tr.count("core.rank.calls")
            self.tr.peak("core.rank.max_rows", len(g))
            bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                        for row in g for x in row), default=0)
            self.tr.peak("core.rank.max_entry_bits", bits)
        return r

    # -- inputs -------------------------------------------------------------

    def space(self, k):
        sp = self.spaces.get(k)
        if sp is None:
            sp = self.spaces[k] = FockSpace(k)
        return sp

    @staticmethod
    def vector(terms):
        return SparseVec({(tuple(p), Fraction(x)): Fraction(c) for p, x, c in terms})

    # -- fock_modes cells ---------------------------------------------------
    # each returns (output, check) where check() -> error string or None

    def jprod(self, it):
        sp = self.space(it["k"])
        j = sp.jvec()
        prods = [self.vmode(sp, j, i, j) for i in range(8)]
        self.products[it["k"]] = (j, prods)

        def check():
            norm = sp.bilinear(j, j)
            if prods[7] != SparseVec.unit(sp.VACUUM).scaled(norm):
                return "J_7 J is not (J, J) times the vacuum"
        return [_fock_render(p) for p in prods], check

    def comm_jj(self, it):
        sp = self.space(it["k"])
        j, prods = self.products[it["k"]]
        m, n, v = it["m"], it["n"], self.vector(it["v"])
        lhs = self.sv(SparseVec.__sub__, self.vmode(sp, j, m, self.vmode(sp, j, n, v)),
                      self.vmode(sp, j, n, self.vmode(sp, j, m, v)))
        rhs = SparseVec.zero()
        for i in range(m + 1):
            if not prods[i].is_zero():
                term = self.vmode(sp, prods[i], m + n - i, v)
                rhs = self.sv(SparseVec.__add__, rhs, self.sv(term.scaled, Fraction(comb(m, i))))
        return _fock_render(lhs), lambda: None if lhs == rhs else "[J_m, J_n] v differs from the commutator formula"

    def comm_ju(self, it):
        sp = self.space(it["k"])
        j, u = sp.jvec(), self.vector(it["u"])
        m, n, v = it["m"], it["n"], self.vector(it["v"])
        lhs = self.sv(SparseVec.__sub__, self.vmode(sp, j, m, self.vmode(sp, u, n, v)),
                      self.vmode(sp, u, n, self.vmode(sp, j, m, v)))
        rhs = SparseVec.zero()
        for i in range(m + 1):
            ju = self.vmode(sp, j, i, u)
            if not ju.is_zero():
                term = self.vmode(sp, ju, m + n - i, v)
                rhs = self.sv(SparseVec.__add__, rhs, self.sv(term.scaled, Fraction(comb(m, i))))
        return _fock_render(lhs), lambda: None if lhs == rhs else "[J_m, u_n] v differs from the commutator formula"

    def theta_zero(self, it):
        sp = self.space(it["k"])
        u = {"omega": sp.omega, "J": sp.jvec}.get(it["u"]) if isinstance(it["u"], str) else None
        u = u() if u else self.vector(it["u"])
        n, v = it["n"], self.vector(it["v"])
        lhs = self.theta(sp, self.vmode(sp, u, n, v))
        rhs = self.vmode(sp, self.theta(sp, u), n, self.theta(sp, v))
        return _fock_render(lhs), lambda: None if lhs == rhs else "theta(u_n v) differs from (theta u)_n theta(v)"

    def theta_lattice(self, it):
        sp = self.space(it["k"])
        b, n, v = Fraction(it["b"]), it["n"], self.vector(it["v"])
        lhs = self.theta(sp, self.lmode(sp, b, n, v))
        rhs = self.lmode(sp, -b, n, self.theta(sp, v))
        return _fock_render(lhs), lambda: None if lhs == rhs else "theta(e^b_n v) differs from (e^-b)_n theta(v)"

    # -- hw_scaling graded pieces ---------------------------------------------

    def vir_gram(self, it):
        c, h, level = Fraction(it["c"]), Fraction(it["h"]), it["level"]
        mod = self.vir_modules.setdefault((c, h), VirasoroModule.get(c, h))
        dim = len(self.tr.call("core.partitions", partitions, level, 1))
        g = self.tr.call("virasoro.gram", mod.gram, level)
        r = self.rank(g)
        if self.tr.on:
            self.tr.count("core.partitions.calls")
            self.tr.count("virasoro.gram.calls")
            self.tr.count("virasoro.gram.entries", len(g) ** 2)

        def check():
            # Kac determinant at c = 1: V(1, h) degenerates only at h = (r-s)^2/4;
            # for h = m^2 the radical starts at level 2m+1 and the rank is the
            # coefficient of (q^{m^2} - q^{(m+1)^2}) / phi(q).
            if dim != _P[level] or len(g) != _P[level]:
                return f"dimension {len(g)} at level {level}, expected p({level}) = {_P[level]}"
            expected = _P[level]
            root = _square_root(h)
            if c == 1 and root is not None and level >= 2 * root + 1:
                expected -= _P[level - 2 * root - 1]
            if r != expected:
                return f"rank {r} at level {level}, Kac criterion gives {expected}"
            if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(i)):
                return "Gram matrix is not symmetric"
        return {"matrix": _matrix_render(g), "rank": r}, check

    def w3_primary(self, it):
        mod = self.w3_modules.setdefault(it["c"], W3Module.get(Fraction(it["c"])))
        weight = it["weight"]
        basis = self.tr.call("w3.basis", mod.basis, weight)
        for mono in basis:
            for n in (1, 2):
                out = self.tr.call("w3.act", mod.act, "L", n, SparseVec.unit(mono))
                if self.tr.on:
                    self.tr.count("w3.act.calls")
                    self.tr.count("w3.act.terms_out", len(out))
        prims = self.tr.call("w3.primary_space", mod.primary_space, weight)
        if self.tr.on:
            self.tr.count("w3.primary_space.dim", len(prims))

        def check():
            for p in prims:
                if p.is_zero():
                    return "zero vector returned as a primary"
                if not (mod.act("L", 1, p).is_zero() and mod.act("L", 2, p).is_zero()):
                    return "returned primary is not killed by L_1 and L_2"
        return [_w3_render(p) for p in prims], check

    def w3_gram(self, it):
        mod = self.w3_modules.setdefault(it["c"], W3Module.get(Fraction(it["c"])))
        weight = it["weight"]
        g = self.tr.call("w3.gram", mod.gram, weight)
        r = self.rank(g)

        def check():
            if any(g[i][j] != g[j][i] for i in range(len(g)) for j in range(i)):
                return "Gram matrix is not symmetric"
            if not 0 < r <= len(g):
                return f"rank {r} outside 1..{len(g)}"
        return {"matrix": _matrix_render(g), "rank": r}, check


def _square_root(h: Fraction):
    if h.denominator != 1 or h < 0:
        return None
    m = isqrt(h.numerator)
    return m if m * m == h.numerator else None


def _memo_entries(modules, names):
    """Entries in the modules' private memo tables; None when the modules
    have none of these attributes."""
    modules = list(modules)
    if not modules:
        return 0
    total, seen = 0, False
    for mod in modules:
        for name in names:
            memo = getattr(mod, name, None)
            if isinstance(memo, dict):
                total += len(memo)
                seen = True
    return total if seen else None


def main() -> int:
    request = json.loads(sys.stdin.read())
    tracer = Tracer(bool(request.get("trace")))
    runner = Runner(tracer)
    sampler = None if tracer.on else Sampler()
    results = []
    calibration = [calibrate()]
    for idx, item in enumerate(request["items"]):
        tracer.item = idx
        if sampler:
            sampler.start()
        t0 = time.monotonic()
        error = digest = None
        try:
            output, check = tracer.call("bench.item", getattr(runner, item["kind"]), item)
        except Exception as exc:  # a failing item is reported, not fatal
            output, check, error = None, None, f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        during, paused = sampler.stop() if sampler else ([], 0.0)
        calibration.append(calibrate())
        if error is None:
            try:
                error = check()
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            digest = _sha(output)
        results.append({"s": t1 - t0 - paused, "calibration_s": [calibration[-2], *during, calibration[-1]],
                        "error": error, "digest": digest})
    counters = dict(tracer.counters)
    counters["virasoro.memo_entries"] = _memo_entries(runner.vir_modules.values(), ("_act_memo",))
    counters["w3.memo_entries"] = _memo_entries(
        runner.w3_modules.values(), ("_memo_l", "_memo_w", "_memo_lambda"))
    sys.stdout.write(json.dumps({
        "t_start": T_START,
        "t_import": T_IMPORT,
        "items": results,
        "counters": counters,
        "spans": tracer.spans,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
