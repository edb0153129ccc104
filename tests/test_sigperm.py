import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinfields import sigperm
from spinfields.sigperm import (
    FLIP,
    DenseMatrix,
    SignedPerm,
    block_ext,
    conj_base,
    conj_level,
    conj_total,
    diag_ext,
    from_dense,
    from_sparse_json,
    identity,
    kron,
    to_dense,
    to_dense_csv,
    to_sparse_json,
)
from spinfields.spin9 import ROT


@st.composite
def signed_perms(draw, min_dim=1, max_dim=8, dim=None):
    if dim is None:
        dim = draw(st.integers(min_dim, max_dim))
    image = draw(st.permutations(range(dim)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    return SignedPerm(dim, tuple(image), tuple(sign))


def rand_perm(rng, dim):
    image = list(range(dim))
    rng.shuffle(image)
    sign = [rng.choice((1, -1)) for _ in range(dim)]
    return SignedPerm(dim, tuple(image), tuple(sign))


def dense_rows(a):
    return to_dense(a).rows


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignedPerm(2, (0, 0), (1, 1))
        with pytest.raises(ValueError):
            SignedPerm(2, (0, 1), (1, 2))
        with pytest.raises(ValueError):
            SignedPerm(2, (0, 1, 2), (1, 1))
        with pytest.raises(ValueError):
            SignedPerm(0, (), ())

    def test_identity(self):
        i3 = identity(3)
        assert dense_rows(i3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


class TestAlgebraOps:
    @given(signed_perms())
    def test_identity_neutral(self, a):
        assert identity(a.dim) * a == a
        assert a * identity(a.dim) == a

    @given(signed_perms())
    def test_orthogonality(self, a):
        assert a * a.transpose() == identity(a.dim)
        assert a.transpose() * a == identity(a.dim)

    @given(signed_perms(), st.randoms(use_true_random=False))
    def test_compose_matches_dense(self, a, rnd):
        b = rand_perm(rnd, a.dim)
        assert to_dense(a * b) == to_dense(a) * to_dense(b)

    @given(signed_perms())
    def test_transpose_matches_dense(self, a):
        assert to_dense(a.transpose()) == to_dense(a).transpose()

    @given(signed_perms())
    def test_double_transpose(self, a):
        assert a.transpose().transpose() == a

    @given(signed_perms())
    def test_negate(self, a):
        assert to_dense(-a) == -to_dense(a)
        assert -(-a) == a

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            identity(2) * identity(3)


class TestApply:
    @given(signed_perms(), st.randoms(use_true_random=False))
    def test_apply_matches_dense(self, a, rnd):
        v = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(a.dim)]
        assert a.apply(v) == to_dense(a).apply(v)

    def test_apply_identity(self):
        v = [5, -2, 7]
        assert identity(3).apply(v) == v

    def test_apply_preserves_exact_types(self):
        a = SignedPerm(2, (1, 0), (1, -1))
        out = a.apply([Fraction(1, 3), 4])
        assert out == [-4, Fraction(1, 3)]
        assert isinstance(out[1], Fraction)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            identity(3).apply([1, 2])


class TestPredicates:
    @given(signed_perms())
    def test_skew_iff_dense_skew(self, a):
        dense = to_dense(a)
        assert a.is_skew() == (dense + dense.transpose()).is_zero()

    @given(signed_perms())
    def test_square_predicate_matches_compose(self, a):
        assert a.squares_to_minus_id() == (a * a == -identity(a.dim))

    @given(signed_perms(), st.randoms(use_true_random=False))
    def test_anticommute_matches_definition(self, a, rnd):
        b = rand_perm(rnd, a.dim)
        assert a.anticommutes(b) == (a * b == -(b * a))

    def test_rotation_is_skew_complex_structure(self):
        rot = SignedPerm(2, (1, 0), (1, -1))
        assert rot.is_skew()
        assert rot.squares_to_minus_id()
        assert not rot.anticommutes(rot)  # 2 rot^2 = -2 Id != 0

    def test_identity_not_skew(self):
        assert not identity(4).is_skew()
        assert not identity(4).squares_to_minus_id()

    @given(signed_perms())
    def test_rot_and_flip_words_anticommute(self, a):
        assert kron(ROT, a).anticommutes(kron(FLIP, a))

    @given(signed_perms())
    def test_any_one_sign_flip_breaks_anticommutation(self, a):
        # ROT (x) a moves every coordinate line, so it commutes with no
        # single-sign flip D_j; B D_j then fails against it for every j
        rot_a = kron(ROT, a)
        flip_a = kron(FLIP, a)
        for j in range(flip_a.dim):
            sign = list(flip_a.sign)
            sign[j] = -sign[j]
            assert not rot_a.anticommutes(SignedPerm(flip_a.dim, flip_a.image, sign))

    def test_anticommutes_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ROT.anticommutes(identity(4))
        with pytest.raises(ValueError):
            identity(4).anticommutes(ROT)


class TestDiagBlock:
    @given(signed_perms())
    def test_trivial_extension(self, a):
        assert diag_ext(a, 1) == a
        assert block_ext(a, 1) == a

    def test_block_of_rotation_is_corner_form(self):
        rot = SignedPerm(2, (1, 0), (1, -1))
        b = block_ext(rot, 3)
        assert dense_rows(b) == (
            (0, 0, 0, -1, 0, 0),
            (0, 0, 0, 0, -1, 0),
            (0, 0, 0, 0, 0, -1),
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
        )

    @given(signed_perms(max_dim=4), st.integers(1, 3), st.integers(1, 3))
    def test_diag_composition_law(self, a, n1, n2):
        assert diag_ext(diag_ext(a, n1), n2) == diag_ext(a, n1 * n2)

    @given(signed_perms(max_dim=4), st.integers(1, 3), st.integers(1, 3))
    def test_block_composition_law(self, a, n1, n2):
        assert block_ext(block_ext(a, n1), n2) == block_ext(a, n1 * n2)

    @given(signed_perms(max_dim=5), st.randoms(use_true_random=False), st.integers(1, 4))
    def test_multiplicative_homomorphisms(self, a, rnd, n):
        b = rand_perm(rnd, a.dim)
        assert diag_ext(a, n) * diag_ext(b, n) == diag_ext(a * b, n)
        assert block_ext(a, n) * block_ext(b, n) == block_ext(a * b, n)

    @given(signed_perms(max_dim=4), st.randoms(use_true_random=False), st.integers(1, 4))
    def test_additive_homomorphisms_dense(self, a, rnd, n):
        # sums leave the monomial world, so additivity is checked densely
        b = rand_perm(rnd, a.dim)
        lhs = to_dense(diag_ext(a, n)) + to_dense(diag_ext(b, n))
        rhs = _dense_diag_ext(to_dense(a) + to_dense(b), n)
        assert lhs == rhs
        lhs = to_dense(block_ext(a, n)) + to_dense(block_ext(b, n))
        rhs = _dense_block_ext(to_dense(a) + to_dense(b), n)
        assert lhs == rhs

    @given(signed_perms(max_dim=4), st.randoms(use_true_random=False), st.integers(1, 4))
    def test_diag_commutes_with_block(self, a, rnd, n):
        # diag of an m-dim matrix vs block of an n-dim matrix, same ambient
        b = rand_perm(rnd, n)
        lhs = diag_ext(a, n) * block_ext(b, a.dim)
        rhs = block_ext(b, a.dim) * diag_ext(a, n)
        assert lhs == rhs

    @given(signed_perms(max_dim=4), st.integers(1, 3), st.integers(1, 3))
    def test_diag_block_commute_as_operators(self, a, n, m):
        assert block_ext(diag_ext(a, n), m) == diag_ext(block_ext(a, m), n)

    @given(signed_perms(max_dim=4), st.randoms(use_true_random=False))
    def test_extensions_match_dense_assembly(self, a, rnd):
        n = rnd.randint(1, 3)
        assert to_dense(diag_ext(a, n)) == _dense_diag_ext(to_dense(a), n)
        assert to_dense(block_ext(a, n)) == _dense_block_ext(to_dense(a), n)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            diag_ext(identity(2), 0)
        with pytest.raises(ValueError):
            block_ext(identity(2), 0)


def _dense_diag_ext(d, n):
    m = d.dim
    rows = [[0] * (m * n) for _ in range(m * n)]
    for b in range(n):
        for r in range(m):
            for c in range(m):
                rows[b * m + r][b * m + c] = d.rows[r][c]
    return DenseMatrix(rows)


def _dense_block_ext(d, n):
    m = d.dim
    rows = [[0] * (m * n) for _ in range(m * n)]
    for r in range(m):
        for c in range(m):
            for b in range(n):
                rows[r * n + b][c * n + b] = d.rows[r][c]
    return DenseMatrix(rows)


def _dense_kron(a, b):
    n = b.dim
    return DenseMatrix(
        [
            [a.rows[r // n][c // n] * b.rows[r % n][c % n] for c in range(a.dim * n)]
            for r in range(a.dim * n)
        ]
    )


#: factors of a Kronecker word: random, identities and the 1-dim -1
kron_factors = st.one_of(
    signed_perms(max_dim=4),
    st.integers(1, 4).map(identity),
    st.just(SignedPerm(1, (0,), (-1,))),
)


class TestKron:
    @given(kron_factors, kron_factors)
    def test_matches_dense_kronecker_product(self, a, b):
        assert to_dense(kron(a, b)) == _dense_kron(to_dense(a), to_dense(b))

    @given(st.lists(kron_factors, min_size=1, max_size=4))
    def test_word_matches_dense_fold(self, word):
        dense = to_dense(word[0])
        for f in word[1:]:
            dense = _dense_kron(dense, to_dense(f))
        assert to_dense(kron(*word)) == dense

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_mixed_product(self, m, n, data):
        # (a (x) b)(c (x) d) = ac (x) bd
        a, c = data.draw(signed_perms(dim=m)), data.draw(signed_perms(dim=m))
        b, d = data.draw(signed_perms(dim=n)), data.draw(signed_perms(dim=n))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)

    def test_extensions_are_kronecker_products(self):
        a = SignedPerm(3, (2, 0, 1), (1, -1, -1))
        assert diag_ext(a, 4) == kron(identity(4), a)
        assert block_ext(a, 4) == kron(a, identity(4))


class TestConjugations:
    def test_conj_base_negates_tail(self):
        c = conj_base(1)
        v = list(range(1, 17))
        assert c.apply(v) == v[:8] + [-x for x in v[8:]]

    def test_conj_base_is_block_of_sign_flip(self):
        flip = SignedPerm(2, (0, 1), (1, -1))
        assert conj_base(1) == block_ext(flip, 8)
        assert conj_base(2) == block_ext(flip, 128)

    def test_conj_total_level_one_is_identity(self):
        assert conj_total(1) == identity(16)

    def test_full_conjugation_is_kronecker_power_of_i9(self):
        z = conj_base(1)
        for q in (1, 2, 3):
            assert conj_total(q) * conj_base(q) == kron(*[z] * q)

    def test_conj_total_two(self):
        assert conj_total(2) == conj_level(2, 1)
        assert conj_total(2) == diag_ext(conj_base(1), 16)

    def test_conj_level_is_involution(self):
        for q in (2, 3):
            for t in range(1, q):
                c = conj_level(q, t)
                assert c * c == identity(16 ** q)

    def test_conj_ranges(self):
        with pytest.raises(ValueError):
            conj_level(2, 2)
        with pytest.raises(ValueError):
            conj_level(2, 0)
        with pytest.raises(ValueError):
            conj_base(0)
        with pytest.raises(ValueError):
            conj_total(0)


class TestSerialization:
    @given(signed_perms())
    def test_sparse_json_roundtrip(self, a):
        text = json.dumps(to_sparse_json(a))
        assert from_sparse_json(json.loads(text)) == a

    @given(signed_perms())
    def test_dense_roundtrip(self, a):
        assert from_dense(to_dense(a)) == a

    def test_sparse_json_shape(self):
        rot = SignedPerm(2, (1, 0), (1, -1))
        assert to_sparse_json(rot) == {
            "dim": 2,
            "cols": [{"row": 1, "sign": 1}, {"row": 0, "sign": -1}],
        }

    def test_dense_csv(self):
        rot = SignedPerm(2, (1, 0), (1, -1))
        assert to_dense_csv(rot) == "0,-1\n1,0\n"

    def test_from_dense_rejects_non_monomial(self):
        with pytest.raises(ValueError):
            from_dense(DenseMatrix([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            from_dense(DenseMatrix([[2, 0], [0, 1]]))
        with pytest.raises(ValueError):
            from_dense(DenseMatrix([[0, 0], [0, 1]]))

    def test_display(self):
        rot = SignedPerm(2, (1, 0), (1, -1))
        assert sigperm.display(rot) == "(-s2, s1)"


class TestDenseOracleArithmetic:
    def test_small_sums_products(self):
        a = DenseMatrix([[1, 2], [3, 4]])
        b = DenseMatrix([[0, 1], [1, 0]])
        assert (a + b).rows == ((1, 3), (4, 4))
        assert (a * b).rows == ((2, 1), (4, 3))
        assert a.transpose().rows == ((1, 3), (2, 4))
        assert a.apply([1, Fraction(1, 2)]) == [2, 5]

    @given(st.integers(1, 7), st.booleans(), st.randoms(use_true_random=False))
    def test_product_matches_triple_sum(self, dim, rational, rnd):
        def entry():
            if rnd.random() < 0.4:
                return 0
            if rational:
                return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
            return rnd.randint(-9, 9)

        a = [[entry() for _ in range(dim)] for _ in range(dim)]
        b = [[entry() for _ in range(dim)] for _ in range(dim)]
        textbook = [
            [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        assert DenseMatrix(a) * DenseMatrix(b) == DenseMatrix(textbook)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseMatrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            DenseMatrix([[1, 2], [3, 4]]) * DenseMatrix([[1]])
