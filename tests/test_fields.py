import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinfields.fields import (
    FieldSystem,
    build_system,
    decompose,
    g_set,
    level_field,
    lmult_field,
    pair_system,
    sigma,
    system_from_json,
    system_to_json,
)
from spinfields.sigperm import (
    block_ext,
    conj_base,
    conj_level,
    conj_total,
    diag_ext,
    identity,
    to_dense,
)
from spinfields.spin9 import complex_structure, complex_structure_pair, generator
from spinfields.verify import verify_system

import golden


def as_tuple(m):
    return tuple(map(tuple, m))


def rows(a):
    return to_dense(a).rows


class TestDecompose:
    def test_examples(self):
        d = decompose(16)
        assert (d.k, d.p, d.q) == (0, 0, 1)
        d = decompose(512)
        assert (d.k, d.p, d.q) == (0, 1, 2)
        d = decompose(96)
        assert (d.k, d.p, d.q) == (1, 1, 1)

    def test_reassembly_and_range(self):
        for m in range(1, 3000):
            d = decompose(m)
            assert d.m == m
            assert 0 <= d.p <= 3
            assert m == (2 * d.k + 1) * 2 ** d.p * 16 ** d.q

    def test_positive_required(self):
        with pytest.raises(ValueError):
            decompose(0)


class TestSigma:
    def test_reference_values(self):
        for m, s in golden.SIGMA_TABLE.items():
            assert sigma(m) == s

    def test_odd_is_zero(self):
        for m in (1, 3, 7, 15, 255):
            assert sigma(m) == 0

    def test_cross_check_96(self):
        assert sigma(96) == 9

    def test_formula(self):
        for m in range(1, 2000):
            d = decompose(m)
            assert sigma(m) == 2 ** d.p + 8 * d.q - 1


class TestLevelField:
    def test_level_one_is_diagonal_j(self):
        for q in (1, 2):
            for alpha in (1, 5, 8):
                assert level_field(q, 1, alpha) == diag_ext(
                    complex_structure(alpha), 16 ** (q - 1)
                )

    def test_level_two_matches_transcribed_rows(self):
        for alpha in range(1, 9):
            expect = golden.xy_blocks_to_matrix(golden.LEVEL2_ROWS_256[alpha - 1], 256)
            assert rows(level_field(2, 2, alpha)) == as_tuple(expect)

    def test_stability_under_diagonal_extension(self):
        for alpha in (1, 4, 8):
            assert level_field(3, 2, alpha) == diag_ext(level_field(2, 2, alpha), 16)
            assert level_field(3, 1, alpha) == diag_ext(level_field(1, 1, alpha), 256)

    def test_ranges(self):
        with pytest.raises(ValueError):
            level_field(0, 1, 1)
        with pytest.raises(ValueError):
            level_field(2, 3, 1)
        with pytest.raises(ValueError):
            level_field(2, 1, 9)


class TestGSet:
    def test_empty_for_p_zero(self):
        assert g_set(0) == []

    def test_sizes_and_dims(self):
        for p in range(4):
            gs = g_set(p)
            assert len(gs) == 2 ** p - 1
            assert all(g.dim == 2 ** p for g in gs)

    def test_quaternion_left_multiplications(self):
        gs = g_set(2)
        for g, unit in zip(gs, "ijk"):
            assert rows(g) == as_tuple(golden.LEFT_MULT_H[unit])

    def test_complex_rotation(self):
        (g,) = g_set(1)
        assert rows(g) == ((0, -1), (1, 0))

    def test_octonion_set_gives_hopf_vertical_fields(self):
        # diagonal action on both octonion halves of R^16
        for g, unit in zip(g_set(3), "ijkefgh"):
            half = golden.coord_rows_to_matrix(golden.HOPF_HALF_ROWS[unit], 8)
            expect = golden.diag2(half, half)
            assert rows(diag_ext(g, 2)) == as_tuple(expect)

    def test_range(self):
        with pytest.raises(ValueError):
            g_set(4)


class TestLmultField:
    def test_s31_ninth_field(self):
        (g,) = g_set(1)
        got = lmult_field(0, 1, 1, g)
        expect = golden.xy_blocks_to_matrix(golden.LEFT_FIELDS_32["i"], 32)
        assert rows(got) == as_tuple(expect)

    def test_s63_fields(self):
        for g, unit in zip(g_set(2), "ijk"):
            got = lmult_field(0, 2, 1, g)
            expect = golden.xy_blocks_to_matrix(golden.LEFT_FIELDS_64[unit], 64)
            assert rows(got) == as_tuple(expect)

    def test_s127_fields(self):
        for g, unit in zip(g_set(3), "ijkefgh"):
            got = lmult_field(0, 3, 1, g)
            expect = golden.sed_blocks_conj_to_matrix(
                golden.LEFT_FIELDS_128[unit], 128
            )
            assert rows(got) == as_tuple(expect)

    def test_q1_reduces_to_plain_conjugated_block(self):
        # at q = 1 the conjugation factor collapses to conj_base(1)
        for p in (1, 2, 3):
            for g in g_set(p):
                expect = diag_ext(conj_base(1), 2 ** p) * block_ext(g, 16)
                assert lmult_field(0, p, 1, g) == expect

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            lmult_field(0, 2, 1, g_set(1)[0])
        with pytest.raises(ValueError):
            lmult_field(0, 1, 0, g_set(1)[0])


class TestBuildSystem:
    def test_s15_matches_transcribed_rows(self):
        sys16 = build_system(16)
        assert len(sys16) == 8
        for f, row in zip(sys16.fields, golden.J_ROWS_16):
            assert rows(f.matrix) == as_tuple(golden.coord_rows_to_matrix(row, 16))

    def test_s31_matches_displays(self):
        sys32 = build_system(32)
        assert sys32.labels() == [f"B(1,{a})" for a in range(1, 9)] + ["L(i)"]
        for f, row in zip(sys32.fields, golden.J_ROWS_16):
            expect = golden.dense_diag_ext(golden.coord_rows_to_matrix(row, 16), 2)
            assert rows(f.matrix) == as_tuple(expect)
        expect = golden.xy_blocks_to_matrix(golden.LEFT_FIELDS_32["i"], 32)
        assert rows(sys32.fields[8].matrix) == as_tuple(expect)

    def test_s63_matches_displays(self):
        sys64 = build_system(64)
        assert len(sys64) == 11
        for f, row in zip(sys64.fields, golden.J_ROWS_16):
            expect = golden.dense_diag_ext(golden.coord_rows_to_matrix(row, 16), 4)
            assert rows(f.matrix) == as_tuple(expect)
        for f, unit in zip(sys64.fields[8:], "ijk"):
            assert f.label == f"L({unit})"
            expect = golden.xy_blocks_to_matrix(golden.LEFT_FIELDS_64[unit], 64)
            assert rows(f.matrix) == as_tuple(expect)

    def test_s127_matches_displays(self):
        sys128 = build_system(128)
        assert len(sys128) == 15
        for f, row in zip(sys128.fields, golden.J_ROWS_16):
            expect = golden.dense_diag_ext(golden.coord_rows_to_matrix(row, 16), 8)
            assert rows(f.matrix) == as_tuple(expect)
        for f, unit in zip(sys128.fields[8:], "ijkefgh"):
            assert f.label == f"L({unit})"
            expect = golden.sed_blocks_conj_to_matrix(
                golden.LEFT_FIELDS_128[unit], 128
            )
            assert rows(f.matrix) == as_tuple(expect)

    def test_s255_matches_transcribed_rows(self):
        sys256 = build_system(256)
        assert len(sys256) == 16
        for f, row in zip(sys256.fields[:8], golden.J_ROWS_16):
            expect = golden.dense_diag_ext(golden.coord_rows_to_matrix(row, 16), 16)
            assert rows(f.matrix) == as_tuple(expect)
        for f, row in zip(sys256.fields[8:], golden.LEVEL2_ROWS_256):
            assert rows(f.matrix) == as_tuple(golden.xy_blocks_to_matrix(row, 256))

    def test_s511_structure(self):
        sys512 = build_system(512)
        assert len(sys512) == 17
        assert sys512.labels() == (
            [f"B(1,{a})" for a in range(1, 9)]
            + [f"B(2,{a})" for a in range(1, 9)]
            + ["L(i)"]
        )
        for alpha in range(1, 9):
            assert sys512.fields[alpha - 1].matrix == diag_ext(
                complex_structure(alpha), 32
            )
            assert sys512.fields[7 + alpha].matrix == diag_ext(
                level_field(2, 2, alpha), 2
            )

    def test_odd_m_empty(self):
        assert len(build_system(15)) == 0
        assert len(build_system(1)) == 0

    def test_q_zero_dimensions(self):
        # m = 2, 4, 8: the classical complex/quaternion/octonion actions
        assert [f.label for f in build_system(2).fields] == ["L(i)"]
        assert rows(build_system(2).fields[0].matrix) == ((0, -1), (1, 0))
        sys8 = build_system(8)
        assert len(sys8) == 7
        sys24 = build_system(24)
        assert len(sys24) == 7
        for f, g in zip(sys24.fields, g_set(3)):
            assert f.matrix == diag_ext(g, 3)

    def test_field_count_matches_sigma(self):
        for m in list(range(2, 130, 2)) + [256, 512, 768, 2560]:
            assert len(build_system(m)) == sigma(m)

    def test_all_even_dimensions_verify(self):
        for m in list(range(2, 130, 2)) + [160, 768, 2560]:
            report = verify_system(build_system(m))
            assert report.passed, (m, report.failures[:3])


class TestPairSystem:
    def test_beta_nine_recovers_default(self):
        assert pair_system(16, 9) == build_system(16)
        assert pair_system(256, 9) == build_system(256)

    def test_all_beta_verify_at_16(self):
        for beta in range(1, 10):
            report = verify_system(pair_system(16, beta))
            assert report.passed, (beta, report.failures[:3])

    def test_all_beta_verify_at_256(self):
        for beta in range(1, 10):
            report = verify_system(pair_system(256, beta))
            assert report.passed, (beta, report.failures[:3])

    def test_words_equal_diag_block_assembly(self):
        # diag/block assembly, with j_a = +-I_min I_max signed by index order
        for beta in range(1, 10):
            pairs = [
                (
                    a,
                    complex_structure_pair(a, beta)
                    if a < beta
                    else -complex_structure_pair(beta, a),
                )
                for a in range(1, 10)
                if a != beta
            ]
            conj = diag_ext(generator(beta), 16)
            expected = [(f"B(1,{a})", diag_ext(j, 16)) for a, j in pairs] + [
                (f"B(2,{a})", conj * block_ext(j, 16)) for a, j in pairs
            ]
            sys_ = pair_system(256, beta)
            assert [(f.label, f.matrix) for f in sys_.fields] == expected, beta
            assert pair_system(16, beta).matrices() == [j for _, j in pairs]

    def test_unsupported_m(self):
        with pytest.raises(ValueError):
            pair_system(32, 1)
        with pytest.raises(ValueError):
            pair_system(16, 0)


class TestConjugationLemmas:
    """The commutation/anticommutation facts behind the construction,
    checked exactly for q = 2, 3 and all t, alpha."""

    QS = (2, 3)

    def test_low_levels_commute_with_top_block(self):
        for q in self.QS:
            for t in range(1, q):
                for alpha in (1, 3, 8):
                    b = level_field(q, t, alpha)
                    for beta in (1, 5, 8):
                        blk = block_ext(complex_structure(beta), 16 ** (q - 1))
                        assert b * blk == blk * b

    def test_conj_level_commutes_with_top_block(self):
        for q in self.QS:
            for t in range(1, q):
                c = conj_level(q, t)
                for alpha in range(1, 9):
                    blk = block_ext(complex_structure(alpha), 16 ** (q - 1))
                    assert c * blk == blk * c

    def test_conj_level_anticommutes_with_same_level_field(self):
        for q in self.QS:
            for t in range(1, q):
                c = conj_level(q, t)
                for alpha in range(1, 9):
                    b = level_field(q, t, alpha)
                    assert (c * b) == -(b * c)

    def test_conj_level_commutes_with_other_level_field(self):
        for q in self.QS:
            for s in range(1, q):
                c = conj_level(q, s)
                for t in range(1, q + 1):
                    if s == t:
                        continue
                    for alpha in range(1, 9):
                        b = level_field(q, t, alpha)
                        assert c * b == b * c

    def test_conj_level_is_involution(self):
        for q in self.QS:
            for t in range(1, q):
                c = conj_level(q, t)
                assert c * c == identity(16 ** q)

    def test_conj_total_anticommutes_with_lower_level_fields(self):
        for q in self.QS:
            ct = conj_total(q)
            for t in range(1, q):
                for alpha in range(1, 9):
                    b = level_field(q, t, alpha)
                    assert (ct * b) == -(b * ct)

    def test_full_conjugation_anticommutes_with_every_level(self):
        for q in (1, 2, 3):
            cc = conj_total(q) * conj_base(q)
            for t in range(1, q + 1):
                for alpha in range(1, 9):
                    b = level_field(q, t, alpha)
                    assert (b * cc) == -(cc * b)


class TestNegativeWitness:
    """Dropping the conj_base factor from the left-multiplication field at
    m = 512 must break anticommutation with level-2 fields only."""

    def _uncorrected(self):
        (g,) = g_set(1)
        return diag_ext(conj_total(2), 2) * block_ext(g, 256)

    def test_uncorrected_passes_level_one(self):
        bad = self._uncorrected()
        for alpha in range(1, 9):
            lvl1 = diag_ext(level_field(2, 1, alpha), 2)
            assert bad.anticommutes(lvl1)

    def test_uncorrected_fails_some_level_two(self):
        bad = self._uncorrected()
        witnesses = []
        for alpha in range(1, 9):
            lvl2 = diag_ext(level_field(2, 2, alpha), 2)
            if not bad.anticommutes(lvl2):
                witnesses.append(alpha)
        assert witnesses, "expected at least one level-2 witness"

    def test_corrected_passes_everything(self):
        (g,) = g_set(1)
        good = lmult_field(0, 1, 2, g)
        for t in (1, 2):
            for alpha in range(1, 9):
                lvl = diag_ext(level_field(2, t, alpha), 2)
                assert good.anticommutes(lvl)


class TestSerialization:
    def test_json_roundtrip(self):
        sys32 = build_system(32)
        text = json.dumps(system_to_json(sys32))
        assert system_from_json(json.loads(text)) == sys32

    def test_json_shape(self):
        obj = system_to_json(build_system(16))
        assert obj["m"] == 16 and obj["sigma"] == 8
        assert obj["decomposition"] == {"k": 0, "p": 0, "q": 1}
        assert [f["label"] for f in obj["fields"]] == [
            f"B(1,{a})" for a in range(1, 9)
        ]
        assert obj["fields"][0]["matrix"]["dim"] == 16

    def test_json_deterministic(self):
        a = json.dumps(system_to_json(build_system(96)))
        b = json.dumps(system_to_json(build_system(96)))
        assert a == b


#: any value json.loads can return, with the keys of the sparse format likely
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["m", "fields", "label", "matrix", "dim", "cols", "row", "sign"]
        )
        | st.text(max_size=3),
        inner,
        max_size=5,
    ),
    max_leaves=12,
)


class TestParseErrors:
    """system_from_json either returns a system or raises ValueError with
    a one-line message; never KeyError, TypeError or a wrong-sized field."""

    def raises(self, obj, match):
        with pytest.raises(ValueError, match=match) as exc:
            system_from_json(obj)
        assert len(str(exc.value).splitlines()) == 1

    def valid(self):
        return system_to_json(build_system(4))

    def test_bool_sign_rejected(self):
        obj = self.valid()
        obj["fields"][0]["matrix"]["cols"][0]["sign"] = True
        self.raises(obj, "'sign' must be int, got bool")

    def test_float_row_rejected(self):
        obj = self.valid()
        obj["fields"][1]["matrix"]["cols"][2]["row"] = 1.0
        self.raises(obj, "column 2: 'row' must be int, got float")

    def test_missing_cols(self):
        obj = self.valid()
        del obj["fields"][0]["matrix"]["cols"]
        self.raises(obj, "missing key 'cols'")

    def test_field_dim_must_equal_m(self):
        obj = self.valid()
        other = system_to_json(build_system(2))
        obj["fields"][2]["matrix"] = other["fields"][0]["matrix"]
        self.raises(obj, "field 2: dim 2 != m = 4")

    def test_bool_and_nonpositive_m(self):
        for m in (True, 0, -4):
            obj = self.valid()
            obj["m"] = m
            self.raises(obj, "system: ")

    @given(JSON_VALUES)
    def test_any_json_value(self, obj):
        try:
            system = system_from_json(obj)
        except ValueError as e:
            assert len(str(e).splitlines()) == 1
            return
        assert isinstance(system, FieldSystem)

    @given(st.data())
    def test_any_one_edit_of_a_valid_system(self, data):
        m = data.draw(st.sampled_from([2, 4, 16]))
        obj = system_to_json(build_system(m))
        parent, key, node = None, None, obj
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = data.draw(st.sampled_from(keys))
            parent, node = node, node[key]
        if parent is None:
            obj = data.draw(JSON_VALUES)
        elif isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES)
        try:
            system = system_from_json(obj)
        except ValueError as e:
            assert len(str(e).splitlines()) == 1
            return
        assert all(f.matrix.dim == system.m for f in system.fields)


class TestPinnedJson:
    """SHA-256 of `fields M --format sparse-json`, taken from the
    diag/block construction this module replaced; they cover odd multiples
    (24, 96, 768, 1536, 6144) with q = 0, 1, 2 and q = 3 at 4096."""

    DIGESTS = {
        24: "73aa37945c6477b791cb86e7e400a4ff86dd2db853ae117a2752f64f8304090f",
        96: "f518f5c59b34658b5bbe003d08757acac0193e4bd05cc0d916b8acf3f2917718",
        768: "af1eb8f8abc845df3332e660fe35da9a5faeed126f0ccdc1e0d80d3b094c880a",
        1536: "6a643537cc01288d3c97b269b3b7e1531dc865675e1b79650fa445bd86eb07fb",
        4096: "c4e185517c6fe345ad9fa56c9372185d99f2c7d12aecb9a15a1f70fad665c7a9",
        6144: "c5d43fbe87e2de78b1ba12da5bd8623311882d8c75cfa48007e724d6ddaf36a3",
    }

    def test_sparse_json_digests(self):
        for m, digest in self.DIGESTS.items():
            text = json.dumps(system_to_json(build_system(m)), indent=2) + "\n"
            assert hashlib.sha256(text.encode()).hexdigest() == digest, m
