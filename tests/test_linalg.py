import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from affschur import SolveResult, SparseSystem, rank, solve_many
from affschur.linalg import Factorization, factorize


def system(rows_data, rhs=None):
    """Build a system from a dense list-of-lists description."""
    nrows = len(rows_data)
    ncols = len(rows_data[0]) if rows_data else 0
    cols = [f"c{j}" for j in range(ncols)]
    rows = [f"r{i}" for i in range(nrows)]
    entries = {}
    for i, row in enumerate(rows_data):
        for j, value in enumerate(row):
            if value:
                entries[(f"r{i}", f"c{j}")] = Fraction(value)
    rhs_map = {}
    if rhs is not None:
        for i, value in enumerate(rhs):
            if value:
                rhs_map[f"r{i}"] = Fraction(value)
    return SparseSystem(cols, rows, entries, rhs_map)


def solve_one(sys_):
    """The verdict on the system's own right-hand side."""
    return solve_many(sys_.cols, sys_.rows, sys_.entries, [sys_.rhs])[0]


def by_index(sys_):
    """The system's right-hand side keyed by row index, the keys a
    ``Factorization`` solves."""
    return {sys_.rows.index(label): value for label, value in sys_.rhs.items()}


class TestSolveUnique:
    def test_identity_system(self):
        sys_ = system([[1, 0], [0, 1]], [3, Fraction(-5, 2)])
        result = solve_one(sys_)
        assert result.status == SolveResult.UNIQUE
        assert result.solution == {"c0": 3, "c1": Fraction(-5, 2)}

    def test_underdetermined(self):
        # no row is a singleton: peeling takes no column, and its bound,
        # one row for two columns, proves the rank deficient
        sys_ = system([[1, 1]], [1])
        assert solve_one(sys_).status == SolveResult.UNDECIDED
        factorization = factorize(sys_.cols, sys_.rows, sys_.entries)
        assert (factorization.rank, factorization.max_rank) == (None, 1)

    def test_inconsistent(self):
        # c0 and c1 peel on r0 and r1, and r2 is left with 3 - 1 - 1
        result = solve_one(system([[1, 0], [0, 1], [1, 1]], [1, 1, 3]))
        assert result.status == SolveResult.INCONSISTENT

    def test_rectangular_consistent(self):
        sys_ = system([[2, 0], [1, 1], [3, 2]], [4, 3, 8])
        result = solve_one(sys_)
        assert result.status == SolveResult.UNIQUE
        assert result.solution == {"c0": 2, "c1": 1}

    def test_value_left_where_an_unpeeled_column_reaches_is_undecided(self):
        """c0 peels on r0 and moves the rhs value onto r1, no pivot row.
        That would refute the rhs if the matrix peeled whole, but c1 and
        c2, which never peel, reach r1 and cancel it: the solution is
        unique, c1 = c2 = -1/2, and peeling can only call it undecided."""
        matrix = [[1, 0, 0], [1, 1, 1], [0, 1, -1]]
        result = solve_one(system(matrix, [1, 0, 0]))
        assert result.status == SolveResult.UNDECIDED
        # a key that is no row index still refutes its rhs
        sys_ = system(matrix)
        factorization = factorize(sys_.cols, sys_.rows, sys_.entries)
        assert [r.status for r in factorization.solve([{0: 1}, {0: 1, 3: 1}])] == [
            SolveResult.UNDECIDED,
            SolveResult.INCONSISTENT,
        ]
        assert gauss_jordan(matrix, [[1, 0, 0]]) == (
            3,
            [(SolveResult.UNIQUE, {0: 1, 1: Fraction(-1, 2), 2: Fraction(-1, 2)})],
        )

    def test_rational_entries(self):
        sys_ = system(
            [[Fraction(1, 2), 0], [0, Fraction(2, 3)]], [1, Fraction(1, 3)]
        )
        result = solve_one(sys_)
        assert result.solution == {"c0": 2, "c1": Fraction(1, 2)}

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_substituting_back_reproduces_rhs(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        # half of the numerators zero, so that many systems peel whole
        numerators = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4))
        entries = [
            [
                Fraction(
                    data.draw(numerators),
                    data.draw(st.integers(min_value=1, max_value=3)),
                )
                for _ in range(n)
            ]
            for _ in range(n + data.draw(st.integers(min_value=0, max_value=2)))
        ]
        solution = [
            Fraction(
                data.draw(st.integers(min_value=-4, max_value=4)),
                data.draw(st.integers(min_value=1, max_value=3)),
            )
            for _ in range(n)
        ]
        rhs = [
            sum(row[j] * solution[j] for j in range(n)) for row in entries
        ]
        result = solve_one(system(entries, rhs))
        assert result.status in (SolveResult.UNIQUE, SolveResult.UNDECIDED)
        if result.status == SolveResult.UNIQUE:
            got = [result.solution[f"c{j}"] for j in range(n)]
            for row, value in zip(entries, rhs):
                assert sum(r * g for r, g in zip(row, got)) == value


class TestSolveMany:
    def test_mixed_verdicts_share_elimination(self):
        cols = ["x", "y"]
        rows = ["r0", "r1", "r2"]
        entries = {
            ("r0", "x"): Fraction(1),
            ("r1", "y"): Fraction(1),
            ("r2", "x"): Fraction(1),
            ("r2", "y"): Fraction(1),
        }
        rhs_good = {"r0": Fraction(2), "r1": Fraction(3), "r2": Fraction(5)}
        rhs_bad = {"r0": Fraction(2), "r1": Fraction(3), "r2": Fraction(6)}
        good, bad = solve_many(cols, rows, entries, [rhs_good, rhs_bad])
        assert good.status == SolveResult.UNIQUE
        assert good.solution == {"x": 2, "y": 3}
        assert bad.status == SolveResult.INCONSISTENT

    def test_rhs_on_unlisted_row_is_inconsistent(self):
        # a row outside ``rows`` is an equation 0 = value of its own
        stray, fitting = solve_many(
            ["a"],
            ["r1"],
            {("r1", "a"): Fraction(1)},
            [{"r1": Fraction(1), "r2": Fraction(5)}, {"r1": Fraction(3)}],
        )
        assert stray.status == SolveResult.INCONSISTENT
        assert fitting.status == SolveResult.UNIQUE
        assert fitting.solution == {"a": 3}

    def test_rhs_key_that_is_no_row_index_is_inconsistent(self):
        # a Factorization numbers its rows 0..nrows-1; any other key, a
        # negative or too large int included, is an equation 0 = value
        stem = [(0, 1)]
        factorization = Factorization(["a", "b"], 3, [(stem, 0), (stem, 1)])
        keys = [-1, 3, "r0", (0,), 2]
        results = factorization.solve([{key: Fraction(1)} for key in keys])
        assert [r.status for r in results] == [SolveResult.INCONSISTENT] * 5
        good = factorization.solve([{0: Fraction(2), 1: Fraction(1, 2)}])[0]
        assert good.solution == {"a": 2, "b": Fraction(1, 2)}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_separate_solves(self, data):
        # half of the numerators zero, so that many matrices peel whole
        numerators = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))

        def fraction():
            return Fraction(
                data.draw(numerators),
                data.draw(st.integers(min_value=1, max_value=3)),
            )

        ncols = data.draw(st.integers(min_value=1, max_value=6))
        nrows = ncols + data.draw(st.integers(min_value=0, max_value=3))
        matrix = [[fraction() for _ in range(ncols)] for _ in range(nrows)]
        rhs_dense = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            if data.draw(st.booleans()):
                x = [fraction() for _ in range(ncols)]
                rhs_dense.append([sum(a * b for a, b in zip(row, x)) for row in matrix])
            else:
                rhs_dense.append([fraction() for _ in range(nrows)])
        systems = [system(matrix, rhs) for rhs in rhs_dense]
        first = systems[0]
        many = solve_many(
            first.cols, first.rows, first.entries, [s.rhs for s in systems]
        )
        # one factorization, solved in batches split at drawn points
        factorization = factorize(first.cols, first.rows, first.entries)
        batched = []
        start = 0
        for end in range(1, len(systems) + 1):
            if end == len(systems) or data.draw(st.booleans()):
                batched += factorization.solve(
                    [by_index(s) for s in systems[start:end]]
                )
                start = end
        assert factorization.rank == rank(first)
        assert len(many) == len(batched) == len(systems)
        for got, part, sys_, rhs in zip(many, batched, systems, rhs_dense):
            single = solve_one(sys_)
            assert got.status == part.status == single.status
            assert got.solution == single.solution
            if part.status == SolveResult.UNIQUE:
                assert part.solution == {
                    c: v for c, v in single.solution.items() if v
                }
            if got.status == SolveResult.UNIQUE:
                assert list(got.solution) == first.cols
                values = [got.solution[c] for c in first.cols]
                for row, value in zip(matrix, rhs):
                    assert sum(a * v for a, v in zip(row, values)) == value

    def test_long_pivot_chain_reaches_every_column(self):
        # rows 2 x_0 and x_{i-1} + x_i (0 < i < n): each row is a singleton
        # once the column before it has peeled, so the steps form a chain,
        # and a rhs on the first row alone makes every column nonzero:
        # x_i = (-1)^i
        n = 40
        dense = [[0] * n for _ in range(n)]
        dense[0][0] = 2
        for i in range(1, n):
            dense[i][i - 1] = dense[i][i] = 1
        chain = system(dense)
        far = {"r0": Fraction(2)}
        near = {f"r{n - 2}": Fraction(1, 3), f"r{n - 1}": Fraction(2, 3)}
        zero = {}
        solved = solve_many(chain.cols, chain.rows, chain.entries, [far, near, zero])
        assert [r.status for r in solved] == [SolveResult.UNIQUE] * 3
        assert solved[0].solution == {f"c{i}": Fraction((-1) ** i) for i in range(n)}
        assert solved[1].solution == dict(
            {f"c{i}": Fraction(0) for i in range(n)},
            **{f"c{n - 2}": Fraction(1, 3), f"c{n - 1}": Fraction(1, 3)},
        )
        assert solved[2].solution == {f"c{i}": Fraction(0) for i in range(n)}


def max_rank(sys_):
    return factorize(sys_.cols, sys_.rows, sys_.entries).max_rank


class TestRank:
    def test_zero_matrix(self):
        assert rank(system([[0, 0], [0, 0]])) == 0

    def test_identity(self):
        assert rank(system([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_rank_deficient(self):
        # c0 peels and c1 is zero: no live row is left, so the rank is decided
        assert rank(system([[1, 0], [2, 0]])) == 1
        # no row is a singleton: the bound, two rows, proves three columns
        # deficient, but not two
        wide = system([[1, 2, 3], [2, 4, 6]])
        assert (rank(wide), max_rank(wide)) == (None, 2)
        square = system([[1, 2], [2, 4]])
        assert (rank(square), max_rank(square)) == (None, 2)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_row_permutation_and_scaling(self, data):
        nrows = data.draw(st.integers(min_value=1, max_value=4))
        ncols = data.draw(st.integers(min_value=1, max_value=4))
        # half of the values zero, so that many matrices peel
        values = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
        entries = [[data.draw(values) for _ in range(ncols)] for _ in range(nrows)]
        base = rank(system(entries)), max_rank(system(entries))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = random.Random(seed)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            factor = rng.choice([1, 2, 3, Fraction(1, 2), -1])
            scaled.append([v * factor for v in row])
        assert (rank(system(scaled)), max_rank(system(scaled))) == base


UNDERDETERMINED = "underdetermined"


def gauss_jordan(matrix, rhs_list):
    """Dense reference: reduce [matrix | rhs...] over Fraction to reduced
    row echelon form; returns the rank and, per rhs, its verdict (unique,
    inconsistent or ``UNDERDETERMINED``) and (for a unique solution) the
    nonzero values by column index."""
    ncols = len(matrix[0])
    rows = [
        [Fraction(v) for v in row] + [Fraction(rhs[i]) for rhs in rhs_list]
        for i, row in enumerate(matrix)
    ]
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
    rank_ = len(pivot_cols)
    verdicts = []
    for k in range(len(rhs_list)):
        if any(row[ncols + k] for row in rows[rank_:]):
            verdicts.append((SolveResult.INCONSISTENT, None))
        elif rank_ < ncols:
            verdicts.append((UNDERDETERMINED, None))
        else:
            solution = {c: rows[i][ncols + k] for i, c in enumerate(pivot_cols)}
            verdicts.append(
                (SolveResult.UNIQUE, {c: v for c, v in sorted(solution.items()) if v})
            )
    return rank_, verdicts


@st.composite
def sparse_systems(draw):
    """A matrix of up to 10 x 10 with entries in [-4, 4], some of them
    rational, with zero and repeated (rescaled) rows, and 1-4 right-hand
    sides: consistent ones, arbitrary ones and zero."""
    ncols = draw(st.integers(min_value=1, max_value=10))
    nrows = draw(st.integers(min_value=1, max_value=10))
    density = draw(st.integers(min_value=1, max_value=4))  # in quarters
    nonzero = st.integers(min_value=-4, max_value=4).filter(bool)
    denominator = st.sampled_from([1, 1, 1, 1, 2, 3])
    matrix = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            row = [0] * ncols
        elif kind == "repeat" and matrix:
            factor = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
            row = [v * factor for v in draw(st.sampled_from(matrix))]
        else:
            row = [
                Fraction(draw(nonzero), draw(denominator))
                if draw(st.integers(min_value=0, max_value=3)) < density
                else 0
                for _ in range(ncols)
            ]
        matrix.append(row)
    rhs_dense = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["consistent", "arbitrary", "zero"]))
        if kind == "consistent":
            x = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(ncols)]
            rhs_dense.append([sum(a * b for a, b in zip(row, x)) for row in matrix])
        elif kind == "arbitrary":
            rhs_dense.append(
                [draw(st.integers(min_value=-2, max_value=2)) for _ in range(nrows)]
            )
        else:
            rhs_dense.append([0] * nrows)
    return matrix, rhs_dense


@st.composite
def peelable_systems(draw):
    """A planted triangular part joined to a dense rest, with rows and
    columns shuffled, and 1-4 right-hand sides as in :func:`sparse_systems`.

    Triangular row i holds a nonzero pivot, some of them non-unit or
    rational, in triangular column i and otherwise entries in earlier
    triangular columns only, so peeling takes every triangular column.
    Echo rows hold triangular entries only: each of them, or a planted
    row whose column it takes, peels down to zero.  A rest
    row holds a nonzero value in each of the two or more rest columns,
    some rows as rescaled copies of earlier ones, so no rest column ever
    peels.  Returns the matrix, the right-hand sides and the indices of
    the rest columns."""
    nrest = draw(st.sampled_from([0, 0, 2, 3, 4]))
    ntri = draw(st.integers(min_value=0 if nrest else 1, max_value=6))
    nonzero = st.integers(min_value=-4, max_value=4).filter(bool)
    denominator = st.sampled_from([1, 1, 2, 3])

    def scalar():
        return Fraction(draw(nonzero), draw(denominator))

    def maybe():
        return scalar() if draw(st.booleans()) else 0

    matrix = [
        [maybe() for _ in range(i)] + [scalar()] + [0] * (ntri - i - 1 + nrest)
        for i in range(ntri)
    ]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        matrix.append([maybe() for _ in range(ntri)] + [0] * nrest)
    rest_rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=nrest + 2)) if nrest else 0):
        if rest_rows and draw(st.booleans()):
            factor = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
            rest = [v * factor for v in draw(st.sampled_from(rest_rows))]
        else:
            rest = [scalar() for _ in range(nrest)]
        rest_rows.append(rest)
        matrix.append([maybe() for _ in range(ntri)] + rest)
    row_order = draw(st.permutations(range(len(matrix))))
    col_order = draw(st.permutations(range(ntri + nrest)))
    matrix = [[matrix[i][c] for c in col_order] for i in row_order]
    rest_cols = {j for j, c in enumerate(col_order) if c >= ntri}
    rhs_dense = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["consistent", "arbitrary", "zero"]))
        if kind == "consistent":
            x = [draw(st.integers(min_value=-3, max_value=3)) for _ in col_order]
            rhs_dense.append([sum(a * b for a, b in zip(row, x)) for row in matrix])
        elif kind == "arbitrary":
            rhs_dense.append(
                [draw(st.integers(min_value=-2, max_value=2)) for _ in matrix]
            )
        else:
            rhs_dense.append([0] * len(matrix))
    return matrix, rhs_dense, rest_cols


def assert_matches_gauss_jordan(matrix, rhs_dense):
    """Factor the matrix by :func:`factorize` and check it with
    :func:`assert_solves_as_gauss_jordan`."""
    first = system(matrix)
    assert_solves_as_gauss_jordan(
        factorize(first.cols, first.rows, first.entries), matrix, rhs_dense
    )


def assert_solves_as_gauss_jordan(factorization, matrix, rhs_dense):
    """Solve every right-hand side, keyed by row index, and hold the
    factorization to :func:`gauss_jordan`.  When the matrix peels whole,
    rank, verdicts and unique solutions (values and column order) must
    be the reference's.  Otherwise the pivots are independent and the
    bound holds (pivots <= rank <= ``max_rank``, so a deficiency is
    claimed only for a deficient matrix), a decided rank is exact, and
    no solve claims a unique solution or a refutation the reference
    does not make.  The factorization's columns are the matrix's, in
    order.  Returns whether the matrix peeled whole."""
    expected_rank, expected = gauss_jordan(matrix, rhs_dense)
    cols = factorization.cols
    whole = factorization.rank == len(cols)
    assert len(factorization._steps) <= expected_rank <= factorization.max_rank
    assert factorization.rank in (None, expected_rank)
    got = factorization.solve(
        [{i: Fraction(v) for i, v in enumerate(rhs) if v} for rhs in rhs_dense]
    )
    for result, (status, solution) in zip(got, expected, strict=True):
        if whole:
            assert result.status == status
        elif result.status == SolveResult.INCONSISTENT:
            assert status == SolveResult.INCONSISTENT
        else:
            assert result.status == SolveResult.UNDECIDED
        if result.status == SolveResult.UNIQUE:
            assert list(result.solution.items()) == [
                (cols[c], v) for c, v in solution.items()
            ]
        else:
            assert result.solution is None
    return whole


@st.composite
def shifted_stem_systems(draw):
    """Columns that share stems at different shifts, as the translates
    of a window block do: 1-3 stems of 1-4 entries, some non-unit or
    rational, each placed at 1-4 distinct shifts inside up to 10 rows,
    the columns shuffled, and 1-4 right-hand sides as in
    :func:`sparse_systems`.  Returns the row count, the placements and
    the dense matrix they generate, and the right-hand sides."""
    nrows = draw(st.integers(min_value=1, max_value=10))
    nonzero = st.integers(min_value=-4, max_value=4).filter(bool)
    denominator = st.sampled_from([1, 1, 2, 3])
    placements = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rows = draw(
            st.lists(
                st.integers(min_value=0, max_value=nrows - 1),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        stem = [(row, Fraction(draw(nonzero), draw(denominator))) for row in rows]
        shifts = st.integers(min_value=0, max_value=nrows - 1 - max(rows))
        for shift in draw(st.lists(shifts, min_size=1, max_size=4, unique=True)):
            placements.append((stem, shift))
    order = draw(st.permutations(range(len(placements))))
    placements = [placements[i] for i in order]
    matrix = [[0] * len(placements) for _ in range(nrows)]
    for col, (stem, shift) in enumerate(placements):
        for row, value in stem:
            matrix[row + shift][col] = value
    rhs_dense = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["consistent", "arbitrary", "zero"]))
        if kind == "consistent":
            x = [draw(st.integers(min_value=-3, max_value=3)) for _ in placements]
            rhs_dense.append([sum(a * b for a, b in zip(row, x)) for row in matrix])
        elif kind == "arbitrary":
            rhs_dense.append(
                [draw(st.integers(min_value=-2, max_value=2)) for _ in matrix]
            )
        else:
            rhs_dense.append([0] * nrows)
    return nrows, placements, matrix, rhs_dense


class TestFactorizationReference:
    """``Factorization`` against a dense Gauss–Jordan reference, on small
    systems, some of them triangular and others dense enough that
    peeling stops short."""

    @given(sparse_systems())
    # invertible, but no row is a singleton: peeling takes no column, its
    # bound (two rows) decides nothing, and the solve is undecided
    @example(([[2, 3], [1, 1]], [[0, 1]]))
    # c1 peels on r1 and moves its value onto r0, whose pivot 2 (c0) held
    # none before: the step must still divide it, c0 = -3/2
    @example(([[2, 3], [0, 1]], [[0, 1]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_gauss_jordan(self, drawn):
        matrix, rhs_dense = drawn
        assert_matches_gauss_jordan(matrix, rhs_dense)

    @given(shifted_stem_systems())
    # one stem [(0, 1), (1, 1)] at shifts 0 and 1: the column at shift 0
    # peels on row 0 and clears row 1, the pivot row of the column at
    # shift 1, whose step only the first one's reaches; the first rhs
    # (x = (1, -1)) holds -1 on row 2, which only that step cancels
    @example(
        (
            3,
            [([(0, 1), (1, 1)], 0), ([(0, 1), (1, 1)], 1)],
            [[1, 0], [1, 1], [0, 1]],
            [[1, 0, -1], [0, 1, 0]],
        )
    )
    # row 2 gains a value at the first step, loses it at the second and
    # gains one again at the third, so the step of row 2 (pivot 2) is
    # pushed twice; solving it twice would halve its value twice
    @example(
        (
            4,
            [
                ([(0, 1), (2, 1)], 0),
                ([(1, 1), (2, 1)], 0),
                ([(2, 1), (3, 1)], 0),
                ([(2, 2)], 0),
            ],
            [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 2], [0, 0, 1, 0]],
            [[1, -1, 0, 1]],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_shared_stems_match_dense_gauss_jordan(self, drawn):
        """Columns generated from shared stems moved by shifts, peeled
        and swept without a list of their own, solve as the dense
        reference does."""
        nrows, placements, matrix, rhs_dense = drawn
        factorization = Factorization(range(len(placements)), nrows, placements)
        assert_solves_as_gauss_jordan(factorization, matrix, rhs_dense)

    @given(peelable_systems())
    # r0 and r3 are singletons in c0 (pivots 2/3 and -2): one peels and
    # takes the other down to zero, where the first rhs is left nonzero
    # and the second 0; r1 and r2 keep the rest columns c1 and c2, so
    # both solves are undecided, the first though it is inconsistent and
    # the second though it has the unique solution c1 = 1/3, c2 = 4/3
    @example(
        (
            [[Fraction(2, 3), 0, 0], [1, 1, 2], [5, 2, 1], [-2, 0, 0]],
            [[1, 0, 0, 1], [Fraction(2, 3), 4, 7, -2]],
            {1, 2},
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_planted_triangle_is_peeled_or_undecided(self, drawn):
        """Peeling takes exactly the planted triangular columns.  With no
        rest columns the matrix peels whole and solves as the dense
        reference does; with them, its rank and every solve that no key
        refutes are undecided, under a bound that holds."""
        matrix, rhs_dense, rest_cols = drawn
        first = system(matrix)
        factorization = factorize(first.cols, first.rows, first.entries)
        whole = assert_solves_as_gauss_jordan(factorization, matrix, rhs_dense)
        assert set(factorization._pivot_cols) == set(range(len(matrix[0]))) - rest_cols
        assert whole == (not rest_cols)
