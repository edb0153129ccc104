"""Acceptance suite: every exit criterion, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All algebraic checks are exact; the two timing bounds (1 ms, 10 ms, 60 s) and
the benchmark thresholds are the stated ones.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from spinfields import algebra, cli, fields, sigperm, verify
from spinfields.algebra import CdElement, cd_associator, cd_conj, cd_inner, cd_mul, cd_re
from spinfields.fields import build_system, g_set, level_field, lmult_field, sigma
from spinfields.sigperm import (
    SignedPerm,
    block_ext,
    conj_base,
    conj_level,
    conj_total,
    diag_ext,
    identity,
    to_dense,
)
from spinfields.spin9 import complex_structure
from spinfields.verify import gram_check, sample_normals, tangency_check, verify_system

import golden

DATA = Path(__file__).parent / "data"


def report(ok: bool, name: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag}  {name}{suffix}")
    assert ok, f"{name}{suffix}"


def as_tuple(m):
    return tuple(map(tuple, m))


def test_criterion_1_sigma_reproduction():
    ms = [16, 32, 48, 64, 80, 96, 112, 128, 256, 512, 1024, 2048]
    expected = [8, 9, 8, 11, 8, 9, 8, 15, 16, 17, 19, 23]
    t0 = time.perf_counter()
    got = [sigma(m) for m in ms]
    elapsed = time.perf_counter() - t0
    report(
        got == expected and elapsed < 0.001,
        "criterion 1: sigma values for the reference dimensions",
        f"{elapsed * 1e6:.0f} us",
    )


def test_criterion_2_multiplication_tables():
    ref3 = (DATA / "table_octonions.csv").read_text()
    ref4 = (DATA / "table_sedenions.csv").read_text()
    t0 = time.perf_counter()
    got3 = algebra.mul_table_to_csv(algebra.mul_table(3))
    got4 = algebra.mul_table_to_csv(algebra.mul_table(4))
    elapsed = time.perf_counter() - t0
    report(
        got3 == ref3 and got4 == ref4 and elapsed < 0.010,
        "criterion 2: octonion and sedenion tables serialize byte-identically",
        f"{elapsed * 1e3:.2f} ms",
    )


def test_criterion_3_golden_matrices():
    ok = True
    sys16 = build_system(16)
    for f, row in zip(sys16.fields, golden.J_ROWS_16):
        ok &= to_dense(f.matrix).rows == as_tuple(golden.coord_rows_to_matrix(row, 16))
    sys256 = build_system(256)
    for f, row in zip(sys256.fields[:8], golden.J_ROWS_16):
        expect = golden.dense_diag_ext(golden.coord_rows_to_matrix(row, 16), 16)
        ok &= to_dense(f.matrix).rows == as_tuple(expect)
    for f, row in zip(sys256.fields[8:], golden.LEVEL2_ROWS_256):
        ok &= to_dense(f.matrix).rows == as_tuple(golden.xy_blocks_to_matrix(row, 256))
    for m, copies, lefts, blocks in (
        (32, 2, golden.LEFT_FIELDS_32, "xy"),
        (64, 4, golden.LEFT_FIELDS_64, "xy"),
        (128, 8, golden.LEFT_FIELDS_128, "sed"),
    ):
        sys_m = build_system(m)
        for f, row in zip(sys_m.fields, golden.J_ROWS_16):
            expect = golden.dense_diag_ext(golden.coord_rows_to_matrix(row, 16), copies)
            ok &= to_dense(f.matrix).rows == as_tuple(expect)
        for f, unit in zip(sys_m.fields[8:], "ijkefgh"):
            if blocks == "xy":
                expect = golden.xy_blocks_to_matrix(lefts[unit], m)
            else:
                expect = golden.sed_blocks_conj_to_matrix(lefts[unit], m)
            ok &= f.label == f"L({unit})"
            ok &= to_dense(f.matrix).rows == as_tuple(expect)
    report(ok, "criterion 3: S^15/S^31/S^63/S^127/S^255 systems match the displays")


def test_criterion_4_verification_at_desk_scale():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for m in list(range(2, 513, 2)) + [1024, 2048, 4096, 8192]:
        rep = verify_system(build_system(m))
        s = sigma(m)
        if not (rep.passed and rep.pairs_checked == s * (s - 1) // 2):
            ok = False
            detail = f"m={m}: {rep.failures[:2]}"
            break
    elapsed = time.perf_counter() - t0
    report(
        ok and elapsed < 60.0,
        "criterion 4: exhaustive verification, every even m <= 512 and "
        "m in {1024, 2048, 4096, 8192}",
        detail or f"{elapsed:.1f}s",
    )


def _random_element(rng, level):
    return CdElement(
        level,
        tuple(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for _ in range(1 << level)
        ),
    )


def _random_perm(rng, dim):
    image = list(range(dim))
    rng.shuffle(image)
    return SignedPerm(dim, tuple(image), tuple(rng.choice((1, -1)) for _ in range(dim)))


def test_criterion_5_lemma_suite():
    rng = random.Random(2024)
    ok = True

    # star-algebra identities: 200 samples per level through level 5
    for level in range(6):
        for _ in range(200):
            a = _random_element(rng, level)
            b = _random_element(rng, level)
            c = _random_element(rng, level)
            ok &= cd_conj(cd_mul(a, b)) == cd_mul(cd_conj(b), cd_conj(a))
            ok &= cd_re(cd_associator(a, b, c)) == 0
            ok &= cd_inner(a, b) == sum(x * y for x, y in zip(a.coords, b.coords))
    report(ok, "criterion 5a: conjugation/associator/inner identities, levels <= 5")

    # diag/block operator laws on random signed permutations
    ok = True
    for _ in range(100):
        dim = rng.randint(1, 6)
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_perm(rng, dim)
        b = _random_perm(rng, dim)
        ok &= diag_ext(diag_ext(a, n1), n2) == diag_ext(a, n1 * n2)
        ok &= diag_ext(a, n1) * diag_ext(b, n1) == diag_ext(a * b, n1)
        ok &= block_ext(a, n1) * block_ext(b, n1) == block_ext(a * b, n1)
        c = _random_perm(rng, n1)
        ok &= diag_ext(a, n1) * block_ext(c, dim) == block_ext(c, dim) * diag_ext(a, n1)
        ok &= block_ext(diag_ext(a, n1), n2) == diag_ext(block_ext(a, n2), n1)
    report(ok, "criterion 5b: diag/block extension laws on random signed perms")

    # conjugation lemmas for q in {2, 3}, all t, all alpha
    ok = True
    for q in (2, 3):
        top = [block_ext(complex_structure(al), 16 ** (q - 1)) for al in range(1, 9)]
        for t in range(1, q):
            c = conj_level(q, t)
            ok &= c * c == identity(16 ** q)
            for alpha in range(1, 9):
                b = level_field(q, t, alpha)
                ok &= all(b * blk == blk * b for blk in top)
                ok &= all(c * blk == blk * c for blk in top)
                ok &= (c * b) == -(b * c)
        ct = conj_total(q)
        for t in range(1, q):
            for alpha in range(1, 9):
                b = level_field(q, t, alpha)
                ok &= (ct * b) == -(b * ct)
    for q in (1, 2, 3):
        cc = conj_total(q) * conj_base(q)
        for t in range(1, q + 1):
            for alpha in range(1, 9):
                b = level_field(q, t, alpha)
                ok &= (b * cc) == -(cc * b)
    report(ok, "criterion 5c: conjugation lemmas, q in {2, 3}, all t and alpha")


def test_criterion_6_negative_witness():
    (g,) = g_set(1)
    uncorrected = diag_ext(conj_total(2), 2) * block_ext(g, 256)
    corrected = lmult_field(0, 1, 2, g)
    lvl1 = [diag_ext(level_field(2, 1, a), 2) for a in range(1, 9)]
    lvl2 = [diag_ext(level_field(2, 2, a), 2) for a in range(1, 9)]
    passes_lvl1 = all(uncorrected.anticommutes(b) for b in lvl1)
    witnesses = [a for a, b in enumerate(lvl2, start=1) if not uncorrected.anticommutes(b)]
    corrected_ok = all(corrected.anticommutes(b) for b in lvl1 + lvl2)
    report(
        passes_lvl1 and bool(witnesses) and corrected_ok,
        "criterion 6: at m=512 the unconjugated left-mult field fails level 2, "
        "the corrected one passes",
        f"witness alphas: {witnesses}",
    )


def test_criterion_7_tangent_frames():
    ok = True
    for m in (16, 32, 256, 512):
        sys_m = build_system(m)
        for n in sample_normals(m, 20, seed=m):
            ok &= tangency_check(sys_m, n)
            ok &= gram_check(sys_m, n)
    report(ok, "criterion 7: tangency and Gram checks, 20 normals per dimension")


def test_criterion_8_zero_divisor():
    e = lambda i: CdElement.basis(4, i)
    z = cd_mul(e(2) - e(11), e(7) + e(14))
    report(z.is_zero(), "criterion 8: (e2 - e11)(e7 + e14) = 0 in the sedenions")


def test_criterion_9_performance():
    res4096 = cli.bench(4096)
    ratio = res4096["ratio_dense_over_sigperm"]
    t1024 = cli.bench(1024)["ops"]["apply_sigperm"]
    t8192 = cli.bench(8192)["ops"]["apply_sigperm"]
    growth = t8192 / t1024
    # linear growth predicts 8x; allow a factor-2 envelope
    ok = ratio >= 50 and growth <= 16.0
    report(
        ok,
        "criterion 9: sparse apply >= 50x dense at m=4096 and linear scaling",
        f"ratio {ratio:.0f}x, growth 1024->8192 {growth:.1f}x",
    )
