import random
from fractions import Fraction

from twisted_derivations.algebra import GaussianRational
from twisted_derivations.linalg import FieldEliminator, IntegerRowReducer

from oracles import _dense_rank


def _random_sparse_rows(rng, n_rows, n_cols, density=0.4):
    rows = []
    for _ in range(n_rows):
        row = {}
        for c in range(n_cols):
            if rng.random() < density:
                v = rng.randint(-5, 5)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_integer_reducer_rank_matches_dense_oracle():
    rng = random.Random(11)
    for trial in range(40):
        n_rows = rng.randint(1, 10)
        n_cols = rng.randint(1, 8)
        rows = _random_sparse_rows(rng, n_rows, n_cols)
        reducer = IntegerRowReducer()
        for row in rows:
            reducer.add_row(dict(row))
        dense = [[Fraction(row.get(c, 0)) for c in range(n_cols)]
                 for row in rows]
        assert reducer.rank == _dense_rank(dense, n_cols), (trial, rows)


def test_integer_reducer_nullspace_annihilates_rows():
    rng = random.Random(23)
    for trial in range(30):
        n_rows = rng.randint(1, 12)
        n_cols = rng.randint(1, 9)
        rows = _random_sparse_rows(rng, n_rows, n_cols)
        reducer = IntegerRowReducer()
        for row in rows:
            reducer.add_row(dict(row))
        basis = reducer.nullspace_basis(range(n_cols))
        assert len(basis) == n_cols - reducer.rank
        for vec in basis:
            assert any(vec.values()), "nullspace vector must be nonzero"
            for row in rows:
                total = sum(coeff * vec.get(c, 0) for c, coeff in row.items())
                assert total == 0, (trial, row, vec)


def test_integer_reducer_nullspace_vectors_independent():
    # one vector per free column, each with a nonzero entry in a column
    # no other vector touches as its marker
    reducer = IntegerRowReducer()
    reducer.add_row({0: 1, 1: 1, 2: 1})
    basis = reducer.nullspace_basis(range(4))
    assert len(basis) == 3
    markers = [max(c for c, v in vec.items() if v) for vec in basis]
    assert len(set(markers)) == 3


def test_integer_reducer_column_index_tracks_stored_rows():
    # back-elimination edits the column index only where a stored row
    # gains or loses a column; it must still match the stored rows, and
    # every stored row must touch no pivot column but its own
    rng = random.Random(41)
    for trial in range(40):
        n_cols = rng.randint(2, 12)
        reducer = IntegerRowReducer()
        for row in _random_sparse_rows(rng, rng.randint(1, 15), n_cols):
            reducer.add_row(row)
            expected = {}
            for pc, stored in reducer.rows.items():
                assert all(stored.values()), (trial, stored)
                assert min(stored) == pc and stored[pc] > 0, (trial, stored)
                assert not (set(stored) - {pc}) & set(reducer.rows), trial
                for c in stored:
                    expected.setdefault(c, set()).add(pc)
            assert reducer._col_index == expected, trial


def test_integer_reducer_block_diagonal_matches_whole_system():
    # one reducer per block of columns, each asked for its own kernel,
    # gives the same rank and the same kernel vectors as one reducer
    # over the whole system
    rng = random.Random(47)
    for trial in range(30):
        n_cols = rng.randint(2, 10)
        cols = list(range(n_cols))
        rng.shuffle(cols)
        cut = rng.randint(1, n_cols - 1)
        blocks = [sorted(cols[:cut]), sorted(cols[cut:])]
        whole = IntegerRowReducer()
        rank = 0
        vectors = []
        for block in blocks:
            part = IntegerRowReducer()
            for _ in range(rng.randint(0, 8)):
                row = {c: rng.randint(-4, 4) for c in block
                       if rng.random() < 0.5}
                part.add_row(dict(row))
                whole.add_row(dict(row))
            rank += part.rank
            vectors.extend(part.nullspace_basis(block))
        assert rank == whole.rank, trial
        vectors.sort(key=max)
        assert vectors == whole.nullspace_basis(range(n_cols)), trial


def test_field_eliminator_solves_constructed_system():
    rng = random.Random(31)
    for trial in range(30):
        n_cols = rng.randint(1, 7)
        solution = [GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                     Fraction(rng.randint(-4, 4)))
                    for _ in range(n_cols)]
        solver = FieldEliminator()
        rows = _random_sparse_rows(rng, rng.randint(1, 10), n_cols)
        for row in rows:
            rhs = GaussianRational(0, 0)
            for c, coeff in row.items():
                rhs = rhs + solution[c] * GaussianRational(coeff, 0)
            grow = {c: GaussianRational(v, 0) for c, v in row.items()}
            assert solver.add_equation(grow, rhs)
        found, kernel_dim = solver.solve(n_cols)
        # the found solution must satisfy every equation
        for row in rows:
            total = GaussianRational(0, 0)
            for c, coeff in row.items():
                total = total + found.get(c, GaussianRational(0, 0)) * GaussianRational(coeff, 0)
            rhs = GaussianRational(0, 0)
            for c, coeff in row.items():
                rhs = rhs + solution[c] * GaussianRational(coeff, 0)
            assert total == rhs


def test_field_eliminator_detects_inconsistency():
    solver = FieldEliminator()
    one = GaussianRational(1, 0)
    assert solver.add_equation({0: one}, GaussianRational(2, 0))
    assert not solver.add_equation({0: one}, GaussianRational(3, 0))


def test_field_eliminator_kernel_dimension():
    solver = FieldEliminator()
    one = GaussianRational(1, 0)
    solver.add_equation({0: one, 1: one}, GaussianRational(0, 0))
    _, kernel_dim = solver.solve(3)
    assert kernel_dim == 2
