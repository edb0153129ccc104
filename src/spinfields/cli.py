"""Command-line surface: construction, verification, tables, benchmarks.

Exit codes: 0 success / verification pass, 1 verification failure, 2 usage
or input error.  Rationals in vector files are integer or "a/b" tokens, one
per line; decimals and exponents are rejected to keep everything exact.

``fields`` and ``apply`` stream their output, one chunk per field or frame
row, with the bytes of the whole-object formatting (json.dumps(obj,
indent=2) for sparse JSON) but without building the object or the text.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from . import algebra, fields, sigperm, verify

#: bound on m for the quadratic dense paths: dense-CSV fields and bench
DENSE_LIMIT = 4096


class InputError(Exception):
    """Bad user input outside argparse's reach (files, ranges)."""


def _write_out(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its chunks in order, to stdout or to the file out."""
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with Path(out).open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as e:
        raise InputError(f"cannot write output file: {e}") from e


# Sparse JSON is written as the exact text of json.dumps(obj, indent=2) + "\n"
# for the objects of fields.system_to_json and of the apply frame, one chunk
# per field or frame row, from these templates.  Labels go through
# json.dumps; coordinate texts are str() of a Fraction, which needs no escape.
_SYSTEM = (
    '{\n  "m": %d,\n  "sigma": %d,\n'
    '  "decomposition": {\n    "k": %d,\n    "p": %d,\n    "q": %d\n  },\n'
    '  "fields": '
)
_FIELD = (
    '    {\n      "label": %s,\n      "matrix": {\n        "dim": %d,\n'
    '        "cols": [\n%s\n        ]\n      }\n    }'
)
_COL = '          {\n            "row": %d,\n            "sign": %d\n          }'
_FRAME = '{\n  "m": %d,\n  "frame": '
_ROW = '    {\n      "label": %s,\n      "coords": [\n        "%s"\n      ]\n    }'


def _json_chunks(head: str, items: Iterable[str]) -> Iterator[str]:
    """An indent=2 object whose last key holds the list of items: head is
    the text up to that list, each item is laid out at depth 2."""
    yield head + "["
    sep = "\n"
    for item in items:
        yield sep + item
        sep = ",\n"
    yield ("\n  ]" if sep == ",\n" else "]") + "\n}\n"


def _system_chunks(sys_: fields.FieldSystem) -> Iterator[str]:
    d = fields.decompose(sys_.m)
    head = _SYSTEM % (sys_.m, fields.sigma(sys_.m), d.k, d.p, d.q)
    return _json_chunks(head, (
        _FIELD % (
            json.dumps(f.label),
            f.matrix.dim,
            ",\n".join(map(_COL.__mod__, zip(f.matrix.image, f.matrix.sign))),
        )
        for f in sys_.fields
    ))


def _frame_rows(
    normal: list[Fraction], sys_: fields.FieldSystem
) -> Iterator[tuple[str, list[str]]]:
    """Each field's frame row at normal, as coordinate texts.  Every
    coordinate is +normal[j] or -normal[j], so apply runs on the signed
    positions 1..m and each position picks its text from a table of 2m + 1."""
    m = len(normal)
    texts = [""] * (2 * m + 1)
    for j, x in enumerate(normal, start=1):
        texts[j] = str(x)
        texts[-j] = str(-x)
    positions = range(1, m + 1)
    for f in sys_.fields:
        yield f.label, list(map(texts.__getitem__, f.matrix.apply(positions)))


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
        chunks = _system_chunks(sys_)
    elif args.format == "dense-csv":
        chunks = (
            f"# {f.label}\n{sigperm.to_dense_csv(f.matrix)}" for f in sys_.fields
        )
    else:
        chunks = (f"{f.label}: {sigperm.display(f.matrix)}\n" for f in sys_.fields)
    _write_out(chunks, args.out)
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
    rows = _frame_rows(normal, sys_)
    if args.format == "sparse-json":
        chunks = _json_chunks(_FRAME % args.m, (
            _ROW % (json.dumps(label), '",\n        "'.join(row))
            for label, row in rows
        ))
    elif args.format == "dense-csv":
        chunks = (",".join(row) + "\n" for _, row in rows)
    else:
        chunks = (f"{label}\t{' '.join(row)}\n" for label, row in rows)
    _write_out(chunks, args.out)
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
