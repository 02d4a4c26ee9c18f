import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import permutations_of
from wdag import permutation
from wdag.permutation import Permutation, all_permutations, reduce_top


class TestConstruction:
    def test_cycle_notation(self):
        assert Permutation.from_cycles(3, (1, 2, 3)).images == (2, 3, 1)
        assert Permutation.from_cycles(4, (1, 2), (3, 4)).images == (2, 1, 4, 3)

    def test_transposition(self):
        sigma = Permutation.transposition(4, 2, 4)
        assert sigma(2) == 4 and sigma(4) == 2 and sigma(1) == 1

    def test_identity(self):
        assert Permutation.identity(3).images == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((2, 3))
        with pytest.raises(ValueError):
            Permutation(())
        with pytest.raises(ValueError):
            Permutation.from_cycles(3, (1, 2), (2, 3))

    def test_all_permutations_count(self):
        assert sum(1 for _ in all_permutations(4)) == 24

    def test_all_permutations_equal_the_validated_ones(self):
        for n in range(1, 7):
            got = list(all_permutations(n))
            want = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
            assert got == want
            assert list(map(hash, got)) == list(map(hash, want))

    def test_all_permutations_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            list(all_permutations(0))


class TestGroupLaws:
    @given(st.data())
    def test_inverse(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        sigma = data.draw(permutations_of(n))
        assert sigma.compose(sigma.inverse()) == Permutation.identity(n)
        assert sigma.inverse().compose(sigma) == Permutation.identity(n)

    @given(st.data())
    def test_compose_is_function_composition(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        sigma = data.draw(permutations_of(n))
        tau = data.draw(permutations_of(n))
        composed = sigma.compose(tau)
        for i in range(1, n + 1):
            assert composed(i) == sigma(tau(i))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(2).compose(Permutation.identity(3))


class TestReduceTop:
    def test_fixing_top_restricts(self):
        sigma = Permutation.from_cycles(4, (1, 3, 2))
        assert sigma(4) == 4
        assert reduce_top(sigma).images == sigma.images[:3]

    def test_top_transposition_collapses_to_identity(self):
        for n in (1, 2, 3, 4):
            for k in range(1, n + 1):
                sigma = Permutation.transposition(n + 1, k, n + 1)
                assert reduce_top(sigma) == Permutation.identity(n)

    def test_golden(self):
        assert reduce_top(Permutation((4, 3, 1, 2))).images == (2, 3, 1)

    @given(st.data())
    def test_always_a_permutation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        sigma = data.draw(permutations_of(n + 1))
        reduced = reduce_top(sigma)
        assert reduced.degree == n
        assert sorted(reduced.images) == list(range(1, n + 1))

    def test_equals_the_validated_permutation(self):
        # A second call reads the memo and returns the first call's object.
        permutation._reduce_top.cache_clear()
        for n in range(2, 8):
            for sigma in all_permutations(n):
                reduced = reduce_top(sigma)
                top = sigma.images[-1]
                images = tuple(top if img == n else img for img in sigma.images[:-1])
                assert reduced == Permutation(images)
                assert hash(reduced) == hash(Permutation(images))
                assert reduce_top(sigma) is reduced

    def test_degree_one_rejected(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="degree at least 2"):
                reduce_top(Permutation.identity(1))

    def test_the_memo_is_bounded(self):
        assert permutation._reduce_top.cache_info().maxsize == 1 << 12
