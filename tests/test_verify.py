from fractions import Fraction

import pytest

from spinfields.fields import Field, FieldSystem, build_system, level_field, sigma
from spinfields.sigperm import SignedPerm, identity
from spinfields.verify import (
    VerifyReport,
    dense_check_vector,
    gram_check,
    oracle_compare,
    sample_normals,
    tangency_check,
    verify_system,
)


def tamper(sys, index, matrix):
    fields = list(sys.fields)
    fields[index] = Field(fields[index].label, matrix)
    return FieldSystem(sys.m, tuple(fields))


class TestVerifySystem:
    def test_s15_passes(self):
        report = verify_system(build_system(16))
        assert report.passed
        assert report.n_fields == 8
        assert report.pairs_checked == 28
        assert report.mode == "exhaustive"
        assert "PASS" in report.summary()

    def test_s255_pair_count(self):
        report = verify_system(build_system(256))
        assert report.passed
        assert report.pairs_checked == 120

    def test_exhaustive_pair_count_formula(self):
        for m in (32, 64, 128, 512):
            report = verify_system(build_system(m))
            s = sigma(m)
            assert report.pairs_checked == s * (s - 1) // 2

    def test_identity_field_fails_skewness(self):
        bad = tamper(build_system(16), 3, identity(16))
        report = verify_system(bad)
        assert not report.passed
        assert any("field 3" in f and "skew" in f for f in report.failures)

    def test_duplicate_field_fails_anticommutation(self):
        sys16 = build_system(16)
        bad = tamper(sys16, 1, sys16.fields[0].matrix)
        report = verify_system(bad)
        assert not report.passed
        assert any("0" in f and "anticommute" in f for f in report.failures)
        # the duplicated matrix itself is still skew with square -Id
        assert not any("skew" in f for f in report.failures)

    def test_report_json(self):
        report = verify_system(build_system(32))
        obj = report.to_json()
        assert obj["passed"] is True
        assert obj["m"] == 32
        assert obj["pairs_total"] == 36

    def test_empty_system_passes(self):
        report = verify_system(build_system(15))
        assert report.passed
        assert report.n_fields == 0


class TestVectorChecks:
    def test_basis_normal(self):
        sys16 = build_system(16)
        n = tuple([1] + [0] * 15)
        assert tangency_check(sys16, n)
        assert gram_check(sys16, n)

    def test_rational_normal(self):
        sys16 = build_system(16)
        n = [Fraction(k + 1, 3) for k in range(16)]
        assert tangency_check(sys16, n)
        assert gram_check(sys16, n)

    def test_first_field_rotates_halves(self):
        sys16 = build_system(16)
        x = list(range(1, 9))
        y = list(range(9, 17))
        jn = sys16.fields[0].matrix.apply(x + y)
        assert jn == [-v for v in y] + x
        assert sum(a * b for a, b in zip(jn, x + y)) == 0

    def test_large_dimension(self):
        sys512 = build_system(512)
        for n in sample_normals(512, 3, seed=1):
            assert tangency_check(sys512, n)
            assert gram_check(sys512, n)

    def test_gram_detects_duplicates(self):
        sys16 = build_system(16)
        bad = tamper(sys16, 1, sys16.fields[0].matrix)
        n = sample_normals(16, 1, seed=2)[0]
        assert not gram_check(bad, n)

    def test_zero_vector_rejected(self):
        sys16 = build_system(16)
        with pytest.raises(ValueError):
            tangency_check(sys16, [0] * 16)
        with pytest.raises(ValueError):
            gram_check(sys16, [0] * 16)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tangency_check(build_system(16), [1] * 8)

    def test_matrix_relations_imply_vector_relations(self):
        # both asserted independently, not inferred from one another
        for m in (16, 32, 48, 96):
            sys_ = build_system(m)
            assert verify_system(sys_).passed
            for n in sample_normals(m, 5, seed=3):
                assert tangency_check(sys_, n)
                assert gram_check(sys_, n)


class TestSampleNormals:
    def test_deterministic(self):
        assert sample_normals(16, 5, seed=0) == sample_normals(16, 5, seed=0)

    def test_seed_changes_output(self):
        assert sample_normals(16, 5, seed=0) != sample_normals(16, 5, seed=1)

    def test_shape_and_bounds(self):
        vs = sample_normals(16, 3, seed=0)
        assert len(vs) == 3
        for v in vs:
            assert len(v) == 16
            assert any(v)
            assert all(-9 <= c <= 9 for c in v)

    def test_pinned_stream(self):
        # frozen output guards cross-platform reproducibility
        assert sample_normals(4, 2, seed=0) == [(-4, 9, -4, 2), (-3, 2, 7, 5)]

    def test_count_required(self):
        with pytest.raises(ValueError):
            sample_normals(16, 0, seed=0)


class TestOracle:
    def test_identity(self):
        assert oracle_compare(identity(16))

    def test_level_field(self):
        assert oracle_compare(level_field(2, 2, 5))

    def test_random_perms(self):
        import random

        rng = random.Random(4)
        for _ in range(20):
            dim = rng.randint(1, 12)
            image = list(range(dim))
            rng.shuffle(image)
            sign = [rng.choice((1, -1)) for _ in range(dim)]
            a = SignedPerm(dim, tuple(image), tuple(sign))
            assert oracle_compare(a)
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(dim)]
            assert dense_check_vector(a, v)

    def test_every_field_of_s255_system(self):
        for f in build_system(256).fields:
            assert oracle_compare(f.matrix), f.label

    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            oracle_compare(identity(512))
        with pytest.raises(ValueError):
            dense_check_vector(identity(512), [1] * 512)


def test_report_failures_ordered_by_index_pair():
    sys16 = build_system(16)
    bad = tamper(tamper(sys16, 5, sys16.fields[0].matrix), 3, sys16.fields[0].matrix)
    report = verify_system(bad)
    pair_failures = [f for f in report.failures if "anticommute" in f]
    # (0,3) before (0,5) before (3,5)
    assert "fields 0" in pair_failures[0] and "3 [" in pair_failures[0]
    assert "fields 0" in pair_failures[1] and "5 [" in pair_failures[1]
    assert "fields 3" in pair_failures[2] and "5 [" in pair_failures[2]
    assert not report.passed
