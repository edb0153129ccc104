"""Command-line surface: construction, verification, tables, benchmarks.

Exit codes: 0 success / verification pass, 1 verification failure, 2 usage
or input error.  Rationals in vector files are integer or "a/b" tokens, one
per line; decimals and exponents are rejected to keep everything exact.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import algebra, fields, sigperm, verify

#: bound on m for the quadratic dense paths: dense-CSV fields and bench
DENSE_LIMIT = 4096


class InputError(Exception):
    """Bad user input outside argparse's reach (files, ranges)."""


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write output file: {e}") from e


#: an integer or a fraction a/b; no decimals, exponents or underscores
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(token: str) -> Fraction:
    token = token.strip()
    if not _RATIONAL.fullmatch(token):
        raise ValueError("expected an integer or a/b")
    return Fraction(token)


def read_vector_file(path: str, m: int) -> list[Fraction]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise InputError(f"cannot read vector file: {e}") from e
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            values.append(_parse_rational(line))
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(
                f"{path}: line {lineno}: not a rational: {line.strip()!r} ({e})"
            ) from e
    if len(values) != m:
        raise InputError(
            f"{path}: expected {m} coordinates, found {len(values)}"
        )
    return values


def cmd_sigma(args: argparse.Namespace) -> int:
    d = fields.decompose(args.m)
    print(
        f"sigma({args.m}) = {fields.sigma(args.m)}, "
        f"decomposition k={d.k} p={d.p} q={d.q}"
    )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    d = fields.decompose(args.m)
    print(f"{args.m} = (2*{d.k}+1) * 2^{d.p} * 16^{d.q}")
    return 0


def cmd_fields(args: argparse.Namespace) -> int:
    if args.format == "dense-csv" and args.m > DENSE_LIMIT:
        raise InputError(
            f"dense CSV is bounded at m = {DENSE_LIMIT} "
            f"(quadratic output); got m = {args.m}"
        )
    sys_ = fields.build_system(args.m)
    if args.m % 2:
        print(f"note: m = {args.m} is odd, sigma = 0; empty system", file=sys.stderr)
    if args.format == "sparse-json":
        text = json.dumps(fields.system_to_json(sys_), indent=2) + "\n"
    elif args.format == "dense-csv":
        parts = []
        for f in sys_.fields:
            parts.append(f"# {f.label}\n{sigperm.to_dense_csv(f.matrix)}")
        text = "".join(parts)
    else:
        lines = [f"{f.label}: {sigperm.display(f.matrix)}" for f in sys_.fields]
        text = "\n".join(lines) + ("\n" if lines else "")
    _write_out(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.oracle and args.m > verify.ORACLE_LIMIT:
        raise InputError(
            f"--oracle is bounded at m = {verify.ORACLE_LIMIT} "
            f"(quadratic dense recomputation); got m = {args.m}"
        )
    sys_ = fields.build_system(args.m)
    report = verify.verify_system(sys_)
    print(report.summary())
    if args.oracle:
        bad = [
            f.label for f in sys_.fields if not verify.oracle_compare(f.matrix)
        ]
        if bad:
            print(f"oracle FAIL: {', '.join(bad)}")
            return 1
        print(f"oracle: {len(sys_.fields)} fields recomputed densely, all agree")
    return 0 if report.passed else 1


def cmd_multable(args: argparse.Namespace) -> int:
    table = algebra.mul_table(args.level)
    if args.format == "sparse-json":
        text = json.dumps(algebra.mul_table_to_json(table), indent=2) + "\n"
    elif args.format == "dense-csv":
        text = algebra.mul_table_to_csv(table)
    else:
        text = algebra.mul_table_display(table)
    _write_out(text, args.out)
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    normal = read_vector_file(args.vector, args.m)
    sys_ = fields.build_system(args.m)
    rows = [(f.label, f.matrix.apply(normal)) for f in sys_.fields]
    if args.format == "sparse-json":
        obj = {
            "m": args.m,
            "frame": [
                {"label": label, "coords": [str(c) for c in v]}
                for label, v in rows
            ],
        }
        text = json.dumps(obj, indent=2) + "\n"
    elif args.format == "dense-csv":
        text = "".join(",".join(str(c) for c in v) + "\n" for _, v in rows)
    else:
        text = "".join(
            f"{label}\t{' '.join(str(c) for c in v)}\n" for label, v in rows
        )
    _write_out(text, args.out)
    return 0


def _best_time(fn, reps: int, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def bench(m: int, reps: int | None = None) -> dict:
    """Per-operation wall times for sparse vs dense application at size m."""
    if reps is not None and reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    sys_ = fields.build_system(m)
    if not sys_.fields:
        raise InputError(f"no fields to benchmark at odd m = {m}")
    a = sys_.fields[0].matrix
    b = sys_.fields[-1].matrix
    v = list(range(1, m + 1))
    if reps is None:
        reps = max(1, 200_000 // m)
    results = {"m": m, "reps": reps, "ops": {}}
    results["ops"]["apply_sigperm"] = _best_time(lambda: a.apply(v), reps)
    results["ops"]["compose_sigperm"] = _best_time(lambda: a * b, reps)
    if m <= DENSE_LIMIT:
        dense = sigperm.to_dense(a)
        dense_reps = 1 if m > 512 else max(1, reps // 100)
        results["ops"]["apply_dense"] = _best_time(
            lambda: dense.apply(v), dense_reps, repeat=2 if m > 512 else 3
        )
        results["ratio_dense_over_sigperm"] = (
            results["ops"]["apply_dense"] / results["ops"]["apply_sigperm"]
        )
    return results


def cmd_bench(args: argparse.Namespace) -> int:
    res = bench(args.m, args.reps)
    print(f"m = {res['m']}, reps = {res['reps']}")
    for op, t in res["ops"].items():
        print(f"{op:>16}: {t * 1e6:12.3f} us/op")
    if "ratio_dense_over_sigperm" in res:
        print(f"dense/sigperm apply ratio: {res['ratio_dense_over_sigperm']:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfields",
        description=(
            "Exact maximal systems of orthonormal tangent vector fields on "
            "spheres, as signed-permutation matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="display"):
        p.add_argument(
            "--format",
            choices=["sparse-json", "dense-csv", "display"],
            default=default,
        )
        p.add_argument("--out", default=None, help="write to file instead of stdout")

    p = sub.add_parser("sigma", help="sigma(m) and the (k, p, q) decomposition")
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("decompose", help="m = (2k+1) 2^p 16^q")
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("fields", help="construct the maximal system on S^(m-1)")
    p.add_argument("m", type=int)
    add_format(p, default="sparse-json")
    p.set_defaults(fn=cmd_fields)

    p = sub.add_parser("verify", help="exact verification of the system at m")
    p.add_argument("m", type=int)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also recompute every field with the dense oracle (m <= 256)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("multable", help="basis multiplication table at a level")
    p.add_argument("level", type=int)
    add_format(p, default="dense-csv")
    p.set_defaults(fn=cmd_multable)

    p = sub.add_parser("apply", help="tangent frame at a normal vector")
    p.add_argument("m", type=int)
    p.add_argument("--vector", required=True, help="file with one rational per line")
    add_format(p, default="display")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("bench", help="sparse vs dense timing at size m")
    p.add_argument("m", type=int)
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
