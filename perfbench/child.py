#!/usr/bin/env python3
"""One request of the spinfields benchmark, run in a fresh interpreter.

    python3 perfbench/child.py traced --req ID --spans FILE -- ARGS...
    python3 perfbench/child.py diag --req ID --spans FILE -- ARGS...

ARGS is a spinfields command line (``verify 24576``, ``fields 12288
--format sparse-json --out F``, ...).  Untraced requests go straight to
``python -m spinfields``, not through this file.

  traced  puts span wrappers around the public functions the CLI command
          calls, then calls ``spinfields.cli.main(ARGS)`` unchanged.
          Outputs and the exit code are the CLI's.
  diag    times, each on its own, the cold Spin(9) and left-multiplication
          caches, a warm rebuild of the system and the sigperm primitives
          that ``verify_system`` is made of.  Prints ``{"ok": ...}``.

Spans (name, start, end, parent index, request id and counts) are kept in
memory and written to --spans as JSON when the request ends.  The package is
imported inside the ``cli.startup`` span, so this file imports nothing from
it at module level.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory spans: name, start, end, parent index and request id."""

    def __init__(self, req: int):
        self.req = req
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Yield the span record, so callers can attach counts to it."""
        rec = {"name": name, "req": self.req,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Make ``owner.attr`` run inside a span called ``name``.
        ``count(result, *args)`` gives the counts to attach to the span;
        it runs after the span has ended."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.update(count(result, *args))
            return result

        setattr(owner, attr, traced)


def install(t: Tracer) -> None:
    """Span wrappers around the public calls of the CLI commands.  The
    command's own span, ``cli.command``, has as self time what
    the command does between those calls: formatting its output."""
    from spinfields import cli, fields, verify
    from spinfields.sigperm import SignedPerm

    t.wrap(fields, "build_system", "fields.build_system",
           lambda system, m: {"entries": len(system) * m})
    t.wrap(fields, "system_to_json", "fields.system_to_json")
    t.wrap(verify, "verify_system", "verify.verify_system",
           lambda report, *_: {"n": report.pairs_checked})
    t.wrap(verify.VerifyReport, "summary", "verify.summary")
    t.wrap(SignedPerm, "apply", "sigperm.apply",
           lambda row, *_: {"n": 1, "entries": len(row)})
    t.wrap(cli, "read_vector_file", "cli.read_vector_file")
    t.wrap(cli, "_write_out", "cli.write",
           lambda _, text, out: {"bytes": os.path.getsize(out) if out else len(text.encode())})
    for cmd in ("cmd_verify", "cmd_fields", "cmd_apply"):
        t.wrap(cli, cmd, "cli.command")


def breakdown(t: Tracer, system) -> bool:
    """verify_system's predicates, timed apart: per-field, then pairs."""
    m = system.m
    mats = system.matrices()
    with t.span("sigperm.field_checks") as s:
        results = [a.is_skew() for a in mats]
        results += [a.squares_to_minus_id() for a in mats]
    s["n"] = len(results)
    s["entries"] = len(results) * m
    with t.span("sigperm.pair_checks") as s:
        pairs = [
            mats[i].anticommutes(mats[j])
            for i in range(len(mats))
            for j in range(i + 1, len(mats))
        ]
    s["n"] = len(pairs)
    s["entries"] = 2 * m * len(pairs)
    return all(results) and all(pairs)


def run_diag(t: Tracer, kind: str, m: int) -> int:
    from spinfields import fields, spin9

    with t.span("spin9.generators"):
        for a in range(1, 10):
            spin9.generator(a)
        for a in range(1, 9):
            spin9.complex_structure(a)
    with t.span("algebra.left_mult"):
        for p in range(1, 4):
            fields.g_set(p)
    system = fields.build_system(m)
    with t.span("fields.build_warm") as s:
        warm = fields.build_system(m)
    s["entries"] = len(warm) * m
    ok = warm == system
    if kind == "verify":
        ok = breakdown(t, system) and ok
    print(json.dumps({"ok": ok}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["traced", "diag"])
    ap.add_argument("--req", type=int, default=0)
    ap.add_argument("--spans", default="")
    argv = sys.argv[1:]
    if "--" not in argv:
        ap.error("no request given after --")
    cut = argv.index("--")
    args = ap.parse_args(argv[:cut])
    request = argv[cut + 1:]
    kind, m = request[0], int(request[1])

    t = Tracer(args.req)
    with t.span("request"):
        if args.mode == "diag":
            code = run_diag(t, kind, m)
        else:
            with t.span("cli.startup"):
                import spinfields.cli
            install(t)
            code = spinfields.cli.main(request)
    if args.spans:
        Path(args.spans).write_text(json.dumps(t.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
