import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from voacalc import core
from voacalc.core import (
    InputError,
    SparseVec,
    _echelon_mod,
    _is_prime,
    _prime,
    check_values,
    coordinates,
    independent,
    kernel,
    partition_count,
    partitions,
    rank,
    rank_paths,
    report,
    series_add,
    square_root,
)

from oracles import (
    brute_partitions,
    gauss_echelon,
    gauss_null_space,
    gauss_rank,
    gauss_solve,
    independent_subsequence,
    primitive_integer_vector,
    product_series,
    rref_mod,
)


def test_partitions_match_brute_force():
    for n in range(0, 13):
        for min_part in (1, 2, 3):
            got = partitions(n, min_part)
            assert set(got) == brute_partitions(n, min_part)
            assert len(set(got)) == len(got)
            assert partition_count(n, min_part) == len(got)
            for max_part in range(0, n + 2):
                capped = partitions(n, min_part, max_part)
                want = {p for p in brute_partitions(n, min_part) if not p or p[0] <= max_part}
                assert set(capped) == want
                assert partition_count(n, min_part, max_part) == len(want)
    assert partition_count(-1) == 0 and partition_count(-3, 1, 2) == 0


def test_partitions_are_descending_and_ordered_deterministically():
    for n in range(8):
        ps = partitions(n)
        assert all(tuple(sorted(p, reverse=True)) == p for p in ps)
        assert ps == partitions(n)


def test_partition_generating_series():
    cutoff = 25
    assert [partition_count(n) for n in range(cutoff + 1)] == \
        product_series(range(1, cutoff + 1), cutoff)


def test_sparse_vec_algebra():
    a = SparseVec({("x",): Fraction(2), ("y",): Fraction(-1)})
    b = SparseVec({("y",): Fraction(1)})
    assert (a + b).coeff(("y",)) == 0
    assert list((a + b).keys()) == [("x",)]
    assert (a - a).is_zero()
    assert a.scaled(Fraction(1, 2)).coeff(("x",)) == 1
    assert SparseVec.unit(("z",)).coeff(("z",)) == 1
    assert a == SparseVec({("y",): Fraction(-1), ("x",): Fraction(2)})
    assert len(a) == 2 and len(a - a) == 0
    assert repr(SparseVec.zero()) == "SparseVec(0)"


def test_rank_matches_gaussian_elimination_on_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        mat = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(cols)] for _ in range(rows)]
        assert rank(mat) == gauss_rank(mat)


def _rational_matrix(rng, rows, cols, inner):
    """A seeded rows x cols product of rational factors through `inner`
    columns: its rank is at most inner, and generically equal to
    min(rows, cols, inner)."""
    def factor(n, m):
        return [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(m)]
                for _ in range(n)]
    left, right = factor(rows, inner), factor(inner, cols)
    return [[sum((row[k] * right[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for row in left]


@pytest.mark.parametrize("rows,cols", [(6, 6), (3, 7), (7, 3), (1, 5), (5, 1)])
def test_rank_takes_both_paths_and_matches_fraction_elimination(rows, cols):
    """Full-rank, rank-deficient and zero matrices of every shape: the first
    prime answers those with a pivot in every column, the kernel certificate
    the others (a wide matrix of full row rank among them), and both agree
    with plain Fraction elimination."""
    rng = random.Random(rows * 10 + cols)
    before = Counter(rank_paths)
    full = min(rows, cols)
    for inner in (full, full, full - 1, max(full - 2, 0), 0):
        mat = _rational_matrix(rng, rows, cols, inner)
        assert rank(mat) == gauss_rank(mat), (rows, cols, inner)
    taken = rank_paths - before
    assert (taken["mod_p"] >= 1) == (rows >= cols) and taken["kernel"] >= 1, taken


@pytest.mark.parametrize("rows,cols", [(6, 6), (4, 7), (7, 4)])
def test_rank_of_an_int_matrix_equals_its_rank_over_a_common_denominator(rows, cols):
    """`rank` takes int entries as they are: an int matrix (entries up to
    2^80, full rank and rank-deficient) has the rank of the same matrix
    divided by one Fraction, and Gauss-Jordan agrees with both."""
    rng = random.Random(rows * 100 + cols)
    full = min(rows, cols)
    for inner in (full, full - 1, full - 3, 0):
        left = [[rng.randrange(-2**40, 2**40) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randrange(-2**40, 2**40) for _ in range(cols)] for _ in range(inner)]
        ints = [[sum(row[k] * right[k][j] for k in range(inner)) for j in range(cols)]
                for row in left]
        scale = Fraction(rng.randrange(1, 10**6), 3**20 * 7**9)
        fractions = [[x / scale for x in row] for row in ints]
        assert rank(ints) == rank(fractions) == gauss_rank(fractions) == inner


def test_rank_falls_back_when_p_divides_the_determinant():
    """p = 2^61 - 1: these matrices have rank 2 or 1 over Q but a smaller
    rank mod p. The kernel read back mod p is not 0 on every row, and the
    second prime, with full rank, gives the answer: "mod_p" when it has a
    pivot in every column, "kernel" when a zero column stays free."""
    p = 2**61 - 1
    full, free = {"primes": 2, "mod_p": 1}, {"primes": 2, "kernel": 1}
    cases = [
        ([[p]], full),
        ([[Fraction(p, 3)]], full),
        ([[p + 1, 1], [1, 1]], full),
        ([[p + 1, 1, 0], [1, 1, 0]], free),
        ([[2, 0], [0, Fraction(3 * p, 5)], [0, 0]], full),
    ]
    for mat, paths in cases:
        mat = [[Fraction(x) for x in row] for row in mat]
        got, taken = _paths_of(rank, mat)
        assert got == gauss_rank(mat) == min(len(mat), len(mat[0])), mat
        assert taken == paths, (mat, taken)


def _paths_of(fn, *args):
    """fn(*args) and the `rank_paths` counts it added."""
    before = Counter(rank_paths)
    out = fn(*args)
    return out, rank_paths - before


def _big_kernel_matrix(rng, n):
    """A seeded (n-1) x n integer matrix with entries near 2^40: its kernel
    vector has entries whose numerators or denominators pass 2^130."""
    return [[Fraction(rng.randrange(-2**40, 2**40)) for _ in range(n)] for _ in range(n - 1)]


def _minor_of_p_matrix(rng, rows, cols):
    """A seeded integer matrix whose leading 2 x 2 minor is p = 2^61 - 1 and
    whose other rows are 0 in the first two columns: column 1 is a multiple
    of column 0 mod p but not over Q, so the pivot columns mod p differ."""
    p = 2**61 - 1
    b, c = rng.randrange(1, 9), rng.randrange(1, 9)
    mat = [[1, b], [c, p + b * c]] + [[0, 0] for _ in range(rows - 2)]
    mat = [row + [rng.randrange(-5, 6) for _ in range(cols - 2)] for row in mat]
    return [[Fraction(x) for x in row] for row in mat]


def _certified_cases():
    rng = random.Random(41)
    cases = [pytest.param({"kernel"}, 1, _rational_matrix(rng, rows, cols, min(rows, cols) - 2),
                          id=f"deficient-{rows}x{cols}")
             for rows, cols in ((5, 5), (4, 7), (7, 4), (6, 6))]
    cases += [pytest.param({"kernel"}, 4, _big_kernel_matrix(rng, n), id=f"big-{n - 1}x{n}")
              for n in (5, 6, 7)]
    cases += [pytest.param({"mod_p", "kernel"}, 2, _minor_of_p_matrix(rng, rows, cols),
                           id=f"minor-p-{rows}x{cols}")
              for rows, cols in ((3, 4), (4, 6), (5, 5))]
    return cases


def _matrix_kernel(mat):
    """`kernel` of the one map x -> mat.x on the coordinates 0 .. ncols - 1,
    as dense Fraction lists."""
    cols = list(range(len(mat[0])))
    vectors = kernel(cols, [lambda j: SparseVec((i, row[j]) for i, row in enumerate(mat))])
    return [[v.coeff(j) for j in cols] for v in vectors]


def _oracle_calls(mat, rhs_list):
    """The `kernel`, `independent` and `coordinates` calls on mat (the last
    two on its columns as sparse vectors), each with the Gauss-Jordan answer;
    the kernel vectors scaled to coprime integers."""
    columns = [SparseVec(enumerate(col)) for col in zip(*mat)]
    return ([((_matrix_kernel, mat),
              [primitive_integer_vector(x) for x in gauss_null_space(mat)]),
             ((independent, columns), gauss_echelon(mat)[1])]
            + [((coordinates, columns, SparseVec(enumerate(rhs))), gauss_solve(mat, rhs))
               for rhs in rhs_list])


@pytest.mark.parametrize("paths,primes,mat", _certified_cases())
def test_certified_answers_equal_bareiss(paths, primes, mat):
    """kernel, independent and coordinates on rank-deficient matrices, on
    matrices whose kernel entries pass 2^130 and need several primes, and on
    matrices with a minor divisible by 2^61 - 1 give what Gauss-Jordan
    elimination over Fraction gives, and each takes an expected path: the
    kernel certificate, or for the minor-p ones full rank or the kernel
    certificate mod a later prime, whose pivot columns replace those mod
    2^61 - 1."""
    rng = random.Random(len(mat) * 100 + len(mat[0]))
    rhs = [Fraction(rng.randrange(-5, 6)) for _ in mat]
    in_span = [sum(row[:2], Fraction(0)) for row in mat]
    calls = _oracle_calls(mat, [rhs, in_span])
    got = [_paths_of(*call) for call, _ in calls]
    assert [out for out, _ in got] == [want for _, want in calls]
    for _, taken in got:
        (answered,) = set(taken) - {"primes"}
        assert answered in paths and taken[answered] == 1 and taken["primes"] >= primes, got
    assert rank(mat) == gauss_rank(mat)
    kernel_basis = got[0][0]
    for vec in kernel_basis:
        assert all(sum((r * x for r, x in zip(row, vec)), Fraction(0)) == 0 for row in mat)
    if primes > 2:
        assert max(max(abs(x.numerator), x.denominator) for v in kernel_basis for x in v) > 2**130
    assert got[3][0] is not None


@pytest.mark.parametrize("mat", [[[1, 2, 3], [2**61, 2, 3]],
                                 [[1, 1, 0, 0], [1, 2**61, 0, 0], [2, 2, 0, 0]]],
                         ids=["2x3", "3x4"])
def test_dropped_row_independent_over_q_restarts_from_all_rows(mat):
    """2^61 = 1 + p for the first prime p = 2^61 - 1, under which one row
    drops out of the echelon form although it is independent of the others
    over Q. The kernel read back mod p misses that row, and the next prime,
    with a larger rank, replaces the pivots and certifies."""
    mat = [[Fraction(x) for x in row] for row in mat]
    in_span = [sum(row[:2], Fraction(0)) for row in mat]
    for (fn, *args), want in _oracle_calls(mat, [in_span]):
        got, taken = _paths_of(fn, *args)
        assert got == want, fn.__name__
        assert taken == Counter(primes=2, kernel=1), (fn.__name__, taken)


def test_a_prime_with_other_pivots_starts_the_residues_again():
    """The row [3*q1, 5, 7], q1 the second prime: mod q1 the pivot moves
    from column 0 to column 1, and back at the third prime. Each change
    starts the residues again, so the kernel read-back over column 0's
    pivot, with denominators 3*q1, needs the third to fifth primes."""
    row = [3 * _prime(1), 5, 7]
    mat = [[Fraction(x) for x in row]]
    got, taken = _paths_of(_matrix_kernel, mat)
    assert got == [primitive_integer_vector(x) for x in gauss_null_space(mat)]
    assert taken == Counter(primes=5, kernel=1), taken


def test_a_wrong_echelon_form_stops_the_elimination(monkeypatch):
    """An echelon form with every free-column entry off by one never reads
    back as a kernel vector: the elimination draws its capped number of
    primes (1 for this rank-2 matrix, h = 12) and raises ArithmeticError.
    Past 50 draws the wrapped prime draw fails the test instead of letting
    it hang."""
    echelon, draw, drawn = core._echelon_mod, core._prime, []

    def wrong(rows, ncols, p):
        pivots, free = echelon(rows, ncols, p)
        return pivots, {c: {f: (x + 1) % p for f, x in entries.items()}
                        for c, entries in free.items()}

    def counted(i):
        drawn.append(i)
        if len(drawn) > 50:
            raise AssertionError("the elimination drew more than 50 primes")
        return draw(i)

    monkeypatch.setattr(core, "_echelon_mod", wrong)
    monkeypatch.setattr(core, "_prime", counted)
    with pytest.raises(ArithmeticError, match="no certificate"):
        rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert drawn == [0]


def test_other_pivot_primes_between_runs_stay_under_the_cap():
    """The row [q2*q5, 5, 7], qi the i-th prime: mod q2 and mod q5 the pivot
    moves to column 1, so the primes with column 0's pivot come in runs
    (0-1, 3-4, 6-10), and only a run of five reads back the denominator
    q2*q5. With h = 124 the cap is (124 // 60 + 1) * (249 // 60 + 1) = 15
    primes; these 11 stay under it, where 3 + 3h // 60 = 9 would not."""
    mat = [[Fraction(_prime(2) * _prime(5)), Fraction(5), Fraction(7)]]
    got, taken = _paths_of(rank, mat)
    assert got == 1 and taken == Counter(primes=11, kernel=1), taken


def _planned_rows(rng, nrows, kinds, span):
    """Seeded sparse integer rows whose column j is, by kinds[j], zero ("0"),
    new ("new": random entries in [-span, span)) or a combination of the
    columns before it ("free"); rows that come out empty are kept."""
    cols = []
    for kind in kinds:
        if kind == "new":
            cols.append([rng.randrange(-span, span) for _ in range(nrows)])
        elif kind == "free" and cols:
            factors = [rng.randrange(-3, 4) for _ in cols]
            cols.append([sum(f * col[i] for f, col in zip(factors, cols)) for i in range(nrows)])
        else:
            cols.append([0] * nrows)
    return [{j: col[i] for j, col in enumerate(cols) if col[i]} for i in range(nrows)]


def _echelon_cases():
    rng = random.Random(53)
    p = _prime(0)
    big = [[rng.randrange(-3 * p, 3 * p) for _ in range(9)] for _ in range(9)]
    cases = {"dense-full-rank-9x9": ([dict(enumerate(row)) for row in big], 9)}
    kinds = ["0", "new", "free", "new", "new", "free", "0", "new", "free"]
    cases["deficient-free-at-both-ends-and-between"] = (_planned_rows(rng, 7, kinds, 50), 9)
    cases["deficient-entries-past-p"] = (_planned_rows(rng, 6, kinds[1:], 3 * p), 8)
    cases["tall-deficient-12x5"] = (_planned_rows(rng, 12, ["new", "free", "new", "new", "free"], 9), 5)
    sparse = []
    for _ in range(60):
        row = {j: rng.choice([-2, -1, 1, 2, 3])
               for j in rng.sample([j for j in range(40) if j != 20], rng.randrange(1, 5))}
        row.update({40: row.get(3, 0) + row.get(10, 0), 41: 2 * row.get(25, 0) - row.get(39, 0)})
        sparse.append({j: x for j, x in row.items() if x})
    cases["sparse-60x42"] = (sparse, 42)
    zero = [{}, {0: p, 3: -2 * p}, {1: 5, 3: 2}, {}, {2: 7 * p}, {0: 1, 1: -1}]
    cases["zero-rows-and-rows-zero-mod-p"] = (zero, 4)
    cases["sorted-rightmost-first"] = (sorted(sparse, key=lambda row: -min(row)), 42)
    cases["pivots-leftward"] = ([{4: 1, 5: 2}, {3: 1, 5: 1}, {2: 2, 4: 1}, {1: 3}, {0: 1, 5: 1}, {0: 2}], 6)
    cases["shuffled-deficient"] = (rng.sample(cases["tall-deficient-12x5"][0], 12), 5)
    return [pytest.param(rows, ncols, id=name) for name, (rows, ncols) in cases.items()]


@pytest.mark.parametrize("rows,ncols", _echelon_cases())
def test_echelon_mod_equals_gauss_jordan_mod_p(rows, ncols):
    """The forward pass and back-substitution of `_echelon_mod` give the
    reduced row echelon form of column-by-column Gauss-Jordan elimination on
    dense residue lists, mod 2^61 - 1 and mod small primes that drop ranks:
    dense, deficient (free columns at both ends and between pivots), sparse,
    with zero rows, negative entries and entries past p, and in row orders
    where later rows take pivots left of earlier ones. `_echelon_mod`
    returns the pivots and each pivot row's free-column entries, which with
    the 1 at the pivot are the whole row."""
    for p in (2, 3, 7, 101, _prime(0), _prime(1)):
        pivots, free = _echelon_mod(rows, ncols, p)
        rref = rref_mod(rows, ncols, p)
        assert pivots == sorted(rref) and set(free) <= set(pivots), p
        assert {c: {c: 1, **free.get(c, {})} for c in pivots} == rref, p


def test_echelon_mod_cases_reach_their_shapes():
    """The planned cases are what their names say mod 2^61 - 1."""
    p = _prime(0)
    got = {case.id: sorted(rref_mod(*case.values, p)) for case in _echelon_cases()}
    assert got["dense-full-rank-9x9"] == list(range(9))
    assert got["deficient-free-at-both-ends-and-between"] == [1, 3, 4, 7]
    assert got["deficient-entries-past-p"] == [0, 2, 3, 6]
    assert got["tall-deficient-12x5"] == got["shuffled-deficient"] == [0, 2, 3]
    assert got["zero-rows-and-rows-zero-mod-p"] == [0, 1]
    assert got["pivots-leftward"] == list(range(6))
    assert got["sparse-60x42"] == got["sorted-rightmost-first"]
    assert len(got["sparse-60x42"]) >= 30 and not {20, 40, 41} & set(got["sparse-60x42"])


def test_the_elimination_leaves_its_rows_untouched(monkeypatch):
    """Every prime eliminates every row, so a row changed mod one prime
    would corrupt the next: the rows given to `_eliminate` are unchanged
    after a rank-deficient `rank`, a `kernel` and a `coordinates` call, and
    these take more than one prime."""
    eliminate, unchanged = core._eliminate, []

    def wrapped(rows, ncols):
        before = copy.deepcopy(rows)
        out = eliminate(rows, ncols)
        unchanged.append(rows == before)
        return out

    monkeypatch.setattr(core, "_eliminate", wrapped)
    rng = random.Random(61)
    deficient = _rational_matrix(rng, 6, 6, 4)
    big = _big_kernel_matrix(rng, 6)
    calls = [(rank, deficient), (rank, big), (_matrix_kernel, big),
             (_coordinates_of, big, [sum(row[:2], Fraction(0)) for row in big])]
    got = [_paths_of(*call) for call in calls]
    assert got[0][0] == 4 and unchanged == [True] * len(calls)
    assert all(taken["primes"] >= 2 for _, taken in got[1:]), got


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if trial(n)]
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _is_prime(n), n


def test_primes_count_down_from_the_mersenne_prime():
    assert [_prime(i) for i in range(12)] == [
        (1 << 61) - d for d in (1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579)]


def test_kernel_vectors_lie_in_kernel_and_span_it():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        mat = [[Fraction(rng.randrange(-3, 4)) for _ in range(cols)]
               for _ in range(rows)]
        basis = _matrix_kernel(mat)
        assert len(basis) == cols - gauss_rank(mat)
        for vec in basis:
            for row in mat:
                assert sum(r * x for r, x in zip(row, vec)) == 0
        if basis:
            assert gauss_rank(basis) == len(basis)


def _coordinates_of(mat, rhs):
    """`coordinates` of rhs in the columns of mat, all as sparse vectors."""
    return coordinates([SparseVec(enumerate(col)) for col in zip(*mat)],
                       SparseVec(enumerate(rhs)))


def test_coordinates_consistent_and_inconsistent_systems():
    mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert _coordinates_of(mat, [Fraction(3), Fraction(6)]) is not None
    assert _coordinates_of(mat, [Fraction(3), Fraction(7)]) is None
    sol = _coordinates_of([[Fraction(2), Fraction(0)], [Fraction(1), Fraction(1)]],
                          [Fraction(3), Fraction(4)])
    assert sol == [Fraction(3, 2), Fraction(5, 2)]


def test_coordinates_match_rank_criterion_on_seeded_systems():
    """None exactly when rank(A) < rank([A|b]); otherwise A.x = b with every
    non-pivot coordinate 0, the Gauss-Jordan solution of [A|b]."""
    rng = random.Random(23)
    inconsistent = 0
    for _ in range(300):
        ncols = rng.randrange(1, 6)
        mat = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(ncols)]
               for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:
            mat.append([a + 2 * b for a, b in zip(mat[0], mat[-1])])
        if rng.random() < 0.5:
            x0 = [Fraction(rng.randrange(-3, 4)) for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, x0)) for row in mat]
        else:
            rhs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in mat]
        x = _coordinates_of(mat, rhs)
        assert x == gauss_solve(mat, rhs)
        if gauss_rank(mat) < gauss_rank([row + [b] for row, b in zip(mat, rhs)]):
            assert x is None
            inconsistent += 1
            continue
        assert [sum(a * xi for a, xi in zip(row, x)) for row in mat] == rhs
        pivots = independent_subsequence([list(col) for col in zip(*mat)])
        assert all(not x[j] for j in range(ncols) if j not in pivots)
    assert 50 <= inconsistent <= 250


def test_square_root():
    want = [0, 1, None, None, 2, *[None] * 4, 3, *[None] * 6, 4]
    assert [square_root(x) for x in range(17)] == want
    assert square_root(10**20) == 10**10
    for x in (-4, Fraction(9, 4), 10**20 + 1, Fraction(-1, 4)):
        assert square_root(x) is None


def test_kernel_matches_gauss_jordan_on_seeded_maps():
    """`kernel` of seeded random maps with rational coefficients, an all-zero
    map among them, is the Gauss-Jordan null space of their stacked matrices,
    each vector scaled to coprime integers with its first nonzero coefficient
    positive."""
    rng = random.Random(31)
    nonzero = 0
    for _ in range(40):
        basis = [("b", i) for i in range(rng.randrange(1, 7))]
        outputs = [("y", i) for i in range(rng.randrange(1, 5))]
        tables = [{b: SparseVec({y: Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
                                 for y in outputs if rng.random() < 0.6})
                   for b in basis} for _ in range(rng.randrange(1, 3))]
        tables.insert(rng.randrange(len(tables) + 1), {b: SparseVec.zero() for b in basis})
        mat = [[table[b].coeff(y) for b in basis] for table in tables for y in outputs]
        want = [primitive_integer_vector(x) for x in gauss_null_space(mat)]
        got = kernel(basis, [table.__getitem__ for table in tables])
        assert [[v.coeff(b) for b in basis] for v in got] == want, mat
        nonzero += bool(want)
    assert 10 <= nonzero <= 35, nonzero


def test_series_add():
    assert series_add([1, 2], [3, 4, 5]) == [4, 6, 5]


def test_rank_empty_and_zero_cases():
    assert rank([]) == 0
    assert rank([[]]) == 0
    for bad in ([[1], [0, 1]], [[1, 2], [3]], [[1, 0.5]], [[Fraction(1)], ["2"]]):
        with pytest.raises(InputError):
            rank(bad)
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    assert _matrix_kernel([[Fraction(0)]]) == [[Fraction(1)]]
    zero = SparseVec.zero()
    assert coordinates([], zero) == []
    assert coordinates([], SparseVec.unit("a")) is None
    assert coordinates([zero, zero], zero) == [0, 0]
    assert coordinates([zero], SparseVec.unit("a")) is None
    assert independent([]) == []
    assert independent([zero, zero]) == []
    assert independent([zero, SparseVec.unit("a"), SparseVec.unit("a")]) == [1]
    assert kernel([], [lambda key: SparseVec.unit(key)]) == []
    assert kernel(["a", "b"], [lambda key: zero]) == [SparseVec.unit("a"), SparseVec.unit("b")]
    assert kernel(["a", "b"], []) == [SparseVec.unit("a"), SparseVec.unit("b")]


def test_check_values_renders_and_compares_lists():
    empty = check_values("e", "DERIVED", [], [], levels=[])
    assert (empty["expected"], empty["computed"], empty["pass"]) == ("(none)", "(none)", True)
    assert list(empty) == ["name", "source", "expected", "computed", "pass", "levels"]
    same = check_values("s", "PAPER", [1, 2], [Fraction(1), Fraction(2)])
    assert (same["expected"], same["computed"], same["pass"]) == ("1,2", "1,2", True)
    short = check_values("l", "PAPER", [0, 0], [0])
    assert (short["expected"], short["computed"], short["pass"]) == ("0,0", "0", False)


def test_report_key_order_and_pass_rule():
    ok = check_values("a", "PAPER", [1], [1])
    bad = check_values("b", "PAPER", [1], [2])
    plain = report("s", {"n": 1}, [ok])
    assert list(plain) == ["suite", "params", "checks", "pass"] and plain["pass"] is True
    comparisons = [{"name": "x", "matches": True}, {"name": "y", "matches": False}]
    full = report("s", {}, [ok, bad], comparisons, exploratory=True, u9={})
    assert list(full) == ["suite", "params", "exploratory", "u9", "checks",
                          "recorded_comparisons", "recorded_mismatches", "pass"]
    assert full["recorded_mismatches"] == ["y"] and full["pass"] is False
    # recorded comparisons never decide the pass flag
    assert report("s", {}, [ok], comparisons)["pass"] is True
