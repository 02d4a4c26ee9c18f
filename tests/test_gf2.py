import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import permutations_of, vectors
from wdag.digraph import (
    DimensionFunction,
    VectorMatrix,
    count_dags,
    scalar_reduced_matrices,
    specialize,
)
from wdag.gf2 import GF2Matrix, GF2Vector, all_principal_minors_one, gf2_det, gf2_permute
from wdag.permutation import Permutation


class TestVector:
    def test_string_round_trip(self):
        v = GF2Vector.from_string("101")
        assert v.to_string() == "101"

    def test_bit_is_one_indexed(self):
        v = GF2Vector.from_string("100")
        assert v.bit(1) == 1 and v.bit(2) == 0 and v.bit(3) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GF2Vector(0, 0)
        with pytest.raises(ValueError):
            GF2Vector(2, 4)
        with pytest.raises(ValueError):
            GF2Vector.from_string("10x")
        # Only a str is a bit string: a list or tuple of "0"/"1" is not.
        for text in (["1", "1"], ("1", "0"), b"11", 11):
            with pytest.raises(ValueError, match="invalid bit string"):
                GF2Vector.from_string(text)


class TestPermute:
    def test_pinned_convention(self):
        # sigma = (1 2 3) in cycle notation sends (1,0,1) to (0,1,1).
        sigma = Permutation.from_cycles(3, (1, 2, 3))
        assert sigma.images == (2, 3, 1)
        v = GF2Vector.from_string("101")
        assert gf2_permute(sigma, v).to_string() == "011"

    def test_identity_and_fixed_vector(self):
        sigma = Permutation.from_cycles(3, (1, 2, 3))
        ones = GF2Vector.from_string("111")
        assert gf2_permute(sigma, ones) == ones
        v = GF2Vector.from_string("110")
        assert gf2_permute(Permutation.identity(3), v) == v

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            gf2_permute(Permutation.identity(2), GF2Vector.zero(3))

    @given(st.data())
    def test_composition_convention(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=6))
        sigma = data.draw(permutations_of(dim))
        tau = data.draw(permutations_of(dim))
        v = data.draw(vectors(dim))
        assert gf2_permute(sigma.compose(tau), v) == gf2_permute(
            tau, gf2_permute(sigma, v)
        )


class TestDetInverse:
    def test_identity_det(self):
        for n in range(1, 7):
            assert gf2_det(GF2Matrix.identity(n)) == 1

    def test_equal_rows(self):
        assert gf2_det(GF2Matrix.from_rows([[1, 1], [1, 1]])) == 0

    @pytest.mark.parametrize("n,group_order", [(3, 168), (4, 20160)])
    def test_exhaustive_det_iff_invertible(self, n, group_order):
        invertible = sum(
            1
            for rows in product(range(1 << n), repeat=n)
            if gf2_det(GF2Matrix(n, rows)) == 1
        )
        assert invertible == group_order


def reference_minors_one(m: GF2Matrix) -> bool:
    """Each principal submatrix built as a GF2Matrix and passed to gf2_det."""
    return all(
        gf2_det(GF2Matrix.from_rows([[m.entry(i, j) for j in chosen] for i in chosen])) == 1
        for size in range(1, m.n + 1)
        for chosen in combinations(range(1, m.n + 1), size)
    )


class TestPrincipalMinors:
    def test_every_three_by_three_matches_the_reference(self):
        for rows in product(range(8), repeat=3):
            m = GF2Matrix(3, rows)
            assert all_principal_minors_one(m) == reference_minors_one(m)

    def test_random_five_by_five_match_the_reference(self):
        # A unit diagonal, so the check gets past the 1x1 minors.
        rng = random.Random(2000)
        accepted = 0
        for _ in range(2000):
            m = GF2Matrix(5, tuple(rng.randrange(32) | 1 << i for i in range(5)))
            expected = reference_minors_one(m)
            assert all_principal_minors_one(m) == expected
            accepted += expected
        assert 0 < accepted < 2000

    def test_every_four_by_four_matches_the_reference(self):
        for rows in product(range(16), repeat=4):
            m = GF2Matrix(4, rows)
            assert all_principal_minors_one(m) == reference_minors_one(m)

    def test_random_six_by_six_match_the_reference(self):
        # Half are unit lower triangular up to a simultaneous permutation of
        # rows and columns, so all their principal minors are 1 and many
        # get past every level of the Schur recursion.
        rng = random.Random(6)
        accepted = 0
        for trial in range(2000):
            if trial % 2:
                rows = [rng.randrange(64) | 1 << i for i in range(6)]
            else:
                order = rng.sample(range(6), 6)
                rows = [0] * 6
                for i in range(6):
                    below = rng.randrange(1 << i) | 1 << i
                    rows[order[i]] = sum(1 << order[j] for j in range(i + 1) if below >> j & 1)
            m = GF2Matrix(6, tuple(rows))
            expected = reference_minors_one(m)
            assert all_principal_minors_one(m) == expected
            accepted += expected
        assert 0 < accepted < 2000

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_diagonal_acceptance_is_the_reduced_matrices(self, n):
        # The paper's scalar statement: a unit-diagonal 0/1 matrix has all
        # principal minors 1 iff it is a DAG's adjacency matrix plus I.
        choices = [sorted({r | 1 << i for r in range(1 << n)}) for i in range(n)]
        accepted = {
            rows
            for rows in product(*choices)
            if all_principal_minors_one(GF2Matrix(n, rows))
        }
        assert accepted == {m.rows for m in scalar_reduced_matrices(n)}
        assert len(accepted) == count_dags(n)

    def test_identity(self):
        assert all_principal_minors_one(GF2Matrix.identity(4))

    def test_zero_diagonal_entry(self):
        assert not all_principal_minors_one(GF2Matrix.from_rows([[1, 0], [0, 0]]))

    def test_symmetric_pair(self):
        assert not all_principal_minors_one(GF2Matrix.from_rows([[1, 1], [1, 1]]))


class TestSpecialize:
    def test_diagonal_all_ones(self):
        omega = DimensionFunction.of(2, 3)
        a = VectorMatrix.from_entries(
            omega,
            {(1, 1): GF2Vector.all_ones(2), (2, 2): GF2Vector.all_ones(3)},
        )
        for ks in product(range(1, 3), range(1, 4)):
            assert specialize(a, ks) == GF2Matrix.identity(2)

    def test_coordinate_read(self):
        omega = DimensionFunction.of(2, 3)
        a = VectorMatrix.from_entries(
            omega,
            {
                (1, 1): GF2Vector.all_ones(2),
                (2, 2): GF2Vector.all_ones(3),
                (1, 2): GF2Vector.from_string("10"),
            },
        )
        assert specialize(a, (1, 1)) == GF2Matrix.from_rows([[1, 1], [0, 1]])
        assert specialize(a, (2, 1)) == GF2Matrix.identity(2)

    def test_out_of_range_coordinate(self):
        omega = DimensionFunction.of(2, 3)
        a = VectorMatrix.from_entries(omega, {})
        with pytest.raises(ValueError):
            specialize(a, (3, 1))
        with pytest.raises(ValueError):
            specialize(a, (1,))
