"""Exact verification of field systems, plus the dense brute-force oracle.

A system is correct iff every field A is skew with A^2 = -Id and every
unordered pair anticommutes.  On a signed permutation the first two are one
test (A is orthogonal, so A^T = -A iff A^2 = -Id), run once per field; every
one of the sigma (sigma - 1) / 2 pairs is then checked, at every m.  All
checks are combinatorial on the signed-permutation representation, so there
are no tolerances and no false positives: any failure names the field or
pair at fault.

The vector-level checks (tangency and Gram) restate the same facts on a
chosen normal vector N.  They are phrased homogeneously -- <A_i N, A_j N> =
delta_ij <N, N> -- so a rational N needs no square-root normalization.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Sequence

from .fields import FieldSystem, sigma
from .sigperm import Scalar, SignedPerm, from_dense, to_dense

#: dense-oracle cost bound
ORACLE_LIMIT = 256


@dataclass
class VerifyReport:
    """Exact pass/fail ledger for one field system."""

    m: int
    sigma_expected: int
    n_fields: int
    checks_run: int = 0
    pairs_checked: int = 0
    pairs_total: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: every field and every pair is checked; named in the summary and JSON
    mode = "exhaustive"

    @property
    def passed(self) -> bool:
        return not self.failures and self.n_fields == self.sigma_expected

    def summary(self) -> str:
        lines = [
            f"m = {self.m}: {self.n_fields} fields "
            f"(expected sigma = {self.sigma_expected}), mode = {self.mode}",
            f"checks run: {self.checks_run} "
            f"({self.pairs_checked}/{self.pairs_total} anticommutation pairs), "
            f"elapsed {self.elapsed:.3f}s",
        ]
        if self.passed:
            lines.append("PASS")
        else:
            lines.append(f"FAIL ({len(self.failures)} failures)")
            lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "sigma_expected": self.sigma_expected,
            "n_fields": self.n_fields,
            "mode": self.mode,
            "checks_run": self.checks_run,
            "pairs_checked": self.pairs_checked,
            "pairs_total": self.pairs_total,
            "failures": list(self.failures),
            "elapsed": self.elapsed,
            "passed": self.passed,
        }


def verify_system(sys: FieldSystem) -> VerifyReport:
    """Skewness (= unit square) of every field and anticommutation of every
    pair, exactly.  Failures are data, not errors."""
    n = len(sys.fields)
    report = VerifyReport(
        m=sys.m,
        sigma_expected=sigma(sys.m),
        n_fields=n,
        pairs_total=n * (n - 1) // 2,
    )
    t0 = time.perf_counter()
    for i, f in enumerate(sys.fields):
        report.checks_run += 1
        if not f.matrix.is_skew():
            report.failures.append(
                f"field {i} [{f.label}] is not skew (its square is not -Id)"
            )
    # pairs come in index order, so failures come out ordered
    for i in range(n):
        for j in range(i + 1, n):
            report.checks_run += 1
            report.pairs_checked += 1
            if not sys.fields[i].matrix.anticommutes(sys.fields[j].matrix):
                report.failures.append(
                    f"fields {i} [{sys.fields[i].label}] and "
                    f"{j} [{sys.fields[j].label}] do not anticommute"
                )
    report.elapsed = time.perf_counter() - t0
    return report


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    return sum(x * y for x, y in zip(u, v))


def _check_normal(sys: FieldSystem, normal: Sequence[Scalar]) -> None:
    if len(normal) != sys.m:
        raise ValueError(f"normal vector length {len(normal)} != m = {sys.m}")
    if not any(normal):
        raise ValueError("normal vector must be nonzero")


def tangency_check(sys: FieldSystem, normal: Sequence[Scalar]) -> bool:
    """<A_i N, N> = 0 exactly for every field."""
    _check_normal(sys, normal)
    return all(_dot(f.matrix.apply(normal), normal) == 0 for f in sys.fields)


def gram_check(sys: FieldSystem, normal: Sequence[Scalar]) -> bool:
    """<A_i N, A_j N> = delta_ij <N, N> exactly; orthonormality for unit N."""
    _check_normal(sys, normal)
    nn = _dot(normal, normal)
    frame = [f.matrix.apply(normal) for f in sys.fields]
    for i, u in enumerate(frame):
        for j in range(i, len(frame)):
            expected = nn if i == j else 0
            if _dot(u, frame[j]) != expected:
                return False
    return True


def sample_normals(m: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Deterministic nonzero integer vectors with coordinates in [-9, 9].

    The same (m, count, seed) always yields the same vectors, on every
    platform.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = random.Random(f"normals:{m}:{count}:{seed}")
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-9, 9) for _ in range(m))
        if any(v):
            out.append(v)
    return out


def oracle_compare(a: SignedPerm) -> bool:
    """Recompute kernel results densely: round-trip, transpose and products."""
    if a.dim > ORACLE_LIMIT:
        raise ValueError(
            f"dense oracle is bounded at dimension {ORACLE_LIMIT}, got {a.dim}"
        )
    d = to_dense(a)
    if from_dense(d) != a:
        return False
    if to_dense(a.transpose()) != d.transpose():
        return False
    if to_dense(a * a) != d * d:
        return False
    if to_dense(a * a.transpose()) != d * d.transpose():
        return False
    return True


def dense_check_vector(a: SignedPerm, v: Sequence[Scalar]) -> bool:
    """apply() against the dense matrix-vector product."""
    if a.dim > ORACLE_LIMIT:
        raise ValueError(
            f"dense oracle is bounded at dimension {ORACLE_LIMIT}, got {a.dim}"
        )
    return a.apply(v) == to_dense(a).apply(v)
