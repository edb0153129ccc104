#!/usr/bin/env python3
"""The spinfields benchmark: three workloads, exact output checks, and
end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/`` there and nothing is installed.  Without ``src/spinfields`` it
exits with code 2 and prints no result.

Load is one client in a closed loop: one request at a time, each request in
a fresh child process, and no threads.  The workload's requests run in turn,
each at least twice, and more while the next would end within --seconds of
measured request time; checks run between requests and are not timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several fresh interpreters that import the package and build the
m = 16 system), the wall time of one pass over the requests (the sum of each
request's median wall time) and the peak RSS of the largest request, where
each child's RSS comes from its own rusage.  The two times are scaled to a
fixed host speed by a reference launched beside the set-up launches (see
REF_CODE); the measured times are in the report.

``--trace 1`` runs one untraced pass, then traced passes that run each
request unchanged with span wrappers around the public functions it calls
(see child.py), each followed by a diagnostic pass, and reports the
per-layer metrics of BENCHMARK.json.

Standard output is a human-readable report, then one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The spans of a traced
run are written to ``perfbench/.work/<workload>/spans-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import operator
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"
PY = sys.executable

#: every run must end, children included, well inside 180 s
RUN_DEADLINE_S = 170
#: set-up and reference launches before each request and after the last;
#: spread over the run, so that they see the host as the requests do
SETUP_PER_REQUEST = 3
#: a fresh interpreter times its own import of the package and the m = 16
#: build that fills the Spin(9) caches; interpreter start-up is left out
SETUP_CODE = (
    "import time; t = time.perf_counter(); import spinfields; "
    "spinfields.build_system(16); print(repr(time.perf_counter() - t))"
)
#: Fixed work of the same kind as SETUP_CODE that imports nothing of the
#: package: standard-library imports and allocating pure Python.  A shared
#: host can run 1.5x faster or slower for minutes, and so for whole runs
#: (set-up launches and requests alike).  Times are therefore reported at
#: the host speed at which this code takes REF_NOMINAL_S: wall_s scaled by
#: the mean reference time of the run, since a request of seconds averages
#: over the host's speed as the mean does, and setup_s by the median, as
#: set-up is itself the median of launches like these.
REF_CODE = """\
import time
t = time.perf_counter()
import argparse, dataclasses, decimal, fractions, json, statistics
rows = [tuple((i * j) % 97 for j in range(64)) for i in range(1500)]
table = {}
for r in rows:
    table[r[:3]] = table.get(r[:3], 0) + sum(r)
text = json.dumps(sorted(table.values()))
print(repr(time.perf_counter() - t))
"""
REF_NOMINAL_S = 0.033
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

WORKLOADS = ("verify-large", "emit-fields", "frame-exact")
FRAME_M = 65536


def hurwitz_radon(m: int) -> int:
    """sigma(m) = 2^p + 8q - 1 for m = (2k+1) 2^p 16^q, 0 for odd m.

    Computed here, not by the package, so the checks do not trust it."""
    if m % 2:
        return 0
    q, p = divmod((m & -m).bit_length() - 1, 4)
    return 2**p + 8 * q - 1


@dataclass(frozen=True)
class Request:
    """One request of a workload: a spinfields command at one m."""

    kind: str  # "verify" | "fields" | "apply"
    m: int
    vector: str = ""  # input file, for "apply"

    def out(self, work: Path) -> Path | None:
        if self.kind == "fields":
            return work / f"fields-{self.m}.json"
        if self.kind == "apply":
            return work / f"frame-{Path(self.vector).stem}.json"
        return None

    def counts(self) -> dict[str, int]:
        """Exact operation counts of one request, from the formula for sigma.
        Traced passes check entries_built, pairs and apply_moves against
        their spans (OBSERVED_COUNTS); entries_composed is derived only."""
        m, s = self.m, hurwitz_radon(self.m)
        verify, apply = self.kind == "verify", self.kind == "apply"
        return {
            "entries_built": s * m,
            "pairs": s * (s - 1) // 2 if verify else 0,
            "entries_composed": s * (s - 1) * m if verify else 0,  # 2m per pair
            "apply_moves": s * m if apply else 0,
            "coords_out": s * m if apply else 0,
        }

    def args(self, work: Path) -> list[str]:
        """The request as a spinfields command line."""
        cmd = [self.kind, str(self.m)]
        if self.kind == "apply":
            cmd += ["--vector", self.vector]
        out = self.out(work)
        if out is not None:
            cmd += ["--format", "sparse-json", "--out", str(out)]
        return cmd

    def argv(self, mode: str, work: Path, req_id: int = 0, spans: Path | None = None) -> list[str]:
        """The child's command line; mode "cli" is the user-facing command."""
        if mode == "cli":
            return [PY, "-m", "spinfields", *self.args(work)]
        return [PY, str(CHILD), mode, "--req", str(req_id), "--spans", str(spans),
                "--", *self.args(work)]


def write_vectors(work: Path, seed: int) -> tuple[Path, Path]:
    """A seeded integer normal and a seeded normal of mixed-denominator
    rationals, both of length FRAME_M."""
    rng = random.Random(f"frame-exact:{seed}")
    ints = [rng.randint(-999, 999) for _ in range(FRAME_M)]
    ints[0] = ints[0] or 1
    dens = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 25, 36, 49, 97, 100, 128)
    rats = []
    for _ in range(FRAME_M):
        a, b = rng.randint(-999, 999), rng.choice(dens)
        rats.append(f"{a}" if b == 1 else f"{a}/{b}")
    rats[0] = "1/3"
    paths = (work / "normal-int.txt", work / "normal-rational.txt")
    paths[0].write_text("".join(f"{x}\n" for x in ints), encoding="utf-8")
    paths[1].write_text("".join(f"{x}\n" for x in rats), encoding="utf-8")
    return paths


def make_requests(workload: str, seed: int, work: Path) -> list[Request]:
    """The requests of one pass.  Where the workload has no generated
    input, the seed sets the order of its requests."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-large":
        reqs = [Request("verify", 24576), Request("verify", 32768)]
    elif workload == "emit-fields":
        reqs = [Request("fields", 12288), Request("fields", 16384)]
    elif workload == "frame-exact":
        reqs = [Request("apply", FRAME_M, str(p)) for p in write_vectors(work, seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


# --- child processes ------------------------------------------------------


def run_child(argv: list[str], stdout: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MiB).

    The RSS is the child's own ``ru_maxrss`` from ``wait4`` on its pid, not
    ``RUSAGE_CHILDREN``, which is the maximum over every child reaped so far.
    """
    with open(stdout, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, cwd=ROOT, env=CHILD_ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


@dataclass
class Done:
    """A finished request and what the checks need of it."""

    req: Request
    mode: str
    code: int
    rss_mib: float
    stdout: bytes
    out: Path | None = None  # the output file, if the request writes one
    bytes_out: int = 0
    digest: str = ""  # SHA-256 of the output file


@dataclass
class Pass:
    mode: str
    wall: float
    done: list[Done]
    failed: int
    spans: list[dict] = field(default_factory=list)

    @property
    def rss_mib(self) -> float:
        return max(d.rss_mib for d in self.done)


def sha256_file(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


def run_pass(reqs: list[Request], mode: str, work: Path, checker: Checker,
             req_id: int = 0) -> Pass:
    """One pass over the requests, then untimed checks of every output.
    The pass's wall time is the sum of its children's."""
    runs = []
    for i, req in enumerate(reqs):
        spans = work / f"spans-{i}.json" if mode in ("traced", "diag") else None
        stdout = work / f"stdout-{i}.txt"
        argv = req.argv(mode, work, req_id + i, spans)
        for stale in (spans, req.out(work)):
            if stale is not None:
                stale.unlink(missing_ok=True)
        runs.append((req, stdout, spans, run_child(argv, stdout)))
    wall = sum(wall for *_, (_, wall, _) in runs)

    done, all_spans = [], []
    for req, stdout, spans, (code, _, rss) in runs:
        d = Done(req, mode, code, rss, stdout.read_bytes())
        out = req.out(work)
        if mode != "diag" and out is not None and out.exists():
            d.out = out
            d.digest, d.bytes_out = sha256_file(out)
        if spans is not None and spans.exists():
            all_spans.extend(json.loads(spans.read_text(encoding="utf-8")))
        done.append(d)
    return Pass(mode, wall, done, count_failures(done, checker), all_spans)


def count_failures(done: list[Done], checker: Checker) -> int:
    return sum(not checker.ok(d) for d in done)


# --- correctness ----------------------------------------------------------

_PAIRS = re.compile(rb"checks run: \d+ \((\d+)/(\d+) anticommutation pairs\)")
_FIELDS = re.compile(rb"^m = (\d+): (\d+) fields ", re.M)


class Checker:
    """Exact checks of each request's output.

    * verify: exit 0, ``PASS``, sigma fields and all sigma(sigma-1)/2 pairs;
    * fields: the SHA-256 of the file equals the recorded digest;
    * apply: every row equals the package's ``apply`` of the normal, and is
      tangent to it, exactly.  A verified output's digest is remembered, so
      later passes compare digests;
    * diag: the primitives all returned true.
    """

    def __init__(self, digests: dict[int, str]):
        self.digests = digests
        self.frames: dict[str, str] = {}  # vector file -> verified digest

    def ok(self, d: Done) -> bool:
        if d.code != 0:
            return False
        if d.mode == "diag":
            return d.stdout.strip() == b'{"ok": true}'
        kind = d.req.kind
        if kind == "verify":
            return self._verify_ok(d)
        if kind == "fields":
            return d.digest == self.digests.get(d.req.m)
        return self._frame_ok(d)

    @staticmethod
    def _verify_ok(d: Done) -> bool:
        s = hurwitz_radon(d.req.m)
        pairs = _PAIRS.search(d.stdout)
        head = _FIELDS.search(d.stdout)
        lines = d.stdout.split()
        return (
            bool(lines) and lines[-1] == b"PASS"
            and head is not None
            and head.groups() == (b"%d" % d.req.m, b"%d" % s)
            and pairs is not None
            and int(pairs[1]) == int(pairs[2]) == s * (s - 1) // 2
        )

    def _frame_ok(self, d: Done) -> bool:
        vector = d.req.vector
        if vector in self.frames:
            return d.digest == self.frames[vector]
        if d.out is not None and check_frame(d.out, Path(vector), d.req.m):
            self.frames[vector] = d.digest
            return True
        return False


def check_frame(out: Path, vector: Path, m: int) -> bool:
    """Each row of the sparse-JSON frame equals the package's ``apply`` of
    the normal N, and <row, N> = 0, exactly.

    Rows are compared as integers scaled by the common denominator L of N:
    ``apply`` is linear, so apply(L N) = L apply(N).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spinfields import build_system

    normal = [Fraction(t) for t in vector.read_text(encoding="utf-8").split()]
    scale = math.lcm(*(x.denominator for x in normal))
    scaled = [int(x * scale) for x in normal]
    value = {}
    for x, s in zip(normal, scaled):
        value[str(x)] = s
        value[str(-x)] = -s
    system = build_system(m)
    try:
        obj = json.loads(out.read_bytes())
        if obj["m"] != m or not len(obj["frame"]) == len(system) == hurwitz_radon(m):
            return False
        for f, row in zip(system.fields, obj["frame"]):
            coords = row["coords"]
            if row["label"] != f.label or len(coords) != m:
                return False
            got = [value[c] if c in value else _scaled(c, scale) for c in coords]
            expected = f.matrix.apply(scaled)
            if got != expected or sum(map(operator.mul, expected, scaled)) != 0:
                return False
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return True


def _scaled(token: object, scale: int) -> int | None:
    """scale * token as an integer, or None if it is not one."""
    try:
        x = Fraction(token) * scale
    except (TypeError, ValueError, ZeroDivisionError):
        return None
    return x.numerator if x.denominator == 1 else None


def load_digests() -> dict[int, str]:
    data = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    return {int(m): h for m, h in data["fields_sha256"].items()}


# --- measurement ----------------------------------------------------------


def measure(step, seconds: float, at_least: int, spent: float = 0.0) -> list[list[Pass]]:
    """Call ``step`` at least ``at_least`` times, then until the next call
    would take the measured time (the walls of the passes it returns) past
    ``seconds``."""
    out = []
    while True:
        passes = step()
        out.append(passes)
        wall = sum(p.wall for p in passes)
        spent += wall
        if len(out) >= at_least and spent + wall > seconds:
            return out


def time_code(work: Path, source: str, times: list[float]) -> bool:
    """Run ``source`` in a fresh interpreter and append the time it prints
    to ``times``.  True if the launch failed."""
    out = work / "stdout-launch.txt"
    code, _, _ = run_child([PY, "-c", source], out)
    try:
        if code != 0:
            raise ValueError(f"exit code {code}")
        times.append(float(out.read_text(encoding="utf-8")))
    except ValueError:
        return True
    return False


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: total duration, total self time (duration minus the
    time its child spans cover) and summed counts."""
    by_req: dict[int, list[dict]] = {}
    for s in spans:
        by_req.setdefault(s["req"], []).append(s)
    agg: dict[str, dict[str, float]] = {}
    for ss in by_req.values():
        own = [s["end"] - s["start"] for s in ss]
        for s in ss:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        for s, self_time in zip(ss, own):
            a = agg.setdefault(s["name"], dict.fromkeys(
                ("s", "self", "n", "entries", "bytes", "products"), 0))
            a["s"] += s["end"] - s["start"]
            a["self"] += self_time
            for k in ("n", "entries", "bytes", "products"):
                a[k] += s.get(k, 0)
    return agg


def layer_metrics(traced: Pass, diag: Pass, ref_wall: float) -> dict[str, float]:
    t = aggregate(traced.spans)
    g = aggregate(diag.spans)
    both = {**t, **g}  # apart from "request", the two passes share no span name

    def get(name: str, key: str = "s") -> float:
        return both.get(name, {}).get(key, 0)

    def ns_per(name: str) -> float:
        e = get(name, "entries")
        return 1e9 * get(name) / e if e else 0.0

    covered = sum(a["self"] for name, a in t.items() if name != "request")
    return {
        "cli.startup_s": get("cli.startup"),
        "spin9.generators_s": get("spin9.generators"),
        "algebra.left_mult_s": get("algebra.left_mult"),
        "fields.build_s": get("fields.build_system"),
        "fields.build_warm_s": get("fields.build_warm"),
        "fields.entries": get("fields.build_system", "entries"),
        "verify.verify_system_s": get("verify.verify_system"),
        "sigperm.field_checks_s": get("sigperm.field_checks"),
        "sigperm.field_checks": get("sigperm.field_checks", "n"),
        "sigperm.pair_checks_s": get("sigperm.pair_checks"),
        "sigperm.pairs": get("sigperm.pair_checks", "n"),
        "sigperm.pair_ns_per_entry": ns_per("sigperm.pair_checks"),
        "sigperm.apply_s": get("sigperm.apply"),
        "sigperm.apply_calls": get("sigperm.apply", "n"),
        "sigperm.apply_ns_per_entry": ns_per("sigperm.apply"),
        "fields.to_json_s": get("fields.system_to_json"),
        "cli.format_s": get("cli.command", "self"),
        "cli.write_s": get("cli.write"),
        "cli.bytes_out": get("cli.write", "bytes"),
        "cli.read_vector_s": get("cli.read_vector_file"),
        "trace.coverage": covered / traced.wall,
        "trace.overhead_ratio": traced.wall / ref_wall,
    }


def shares(p: Pass) -> dict[str, float]:
    """Self time of each span name as a share of the pass's wall time."""
    return {
        name: round(a["self"] / p.wall, 4)
        for name, a in sorted(aggregate(p.spans).items(), key=lambda kv: -kv[1]["self"])
        if name != "request"
    }


def conditions(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy_importable": find_spec("numpy") is not None,
        "load": "closed loop, 1 client",
    }


def pass_counts(reqs: list[Request]) -> dict[str, int]:
    return {k: sum(r.counts()[k] for r in reqs) for k in reqs[0].counts()}


#: counts the spans of a traced pass must match exactly: (span, key, count)
OBSERVED_COUNTS = (
    ("fields.build_system", "entries", "entries_built"),
    ("verify.verify_system", "n", "pairs"),
    ("sigperm.apply", "entries", "apply_moves"),
)


def count_mismatches(traced: Pass, counts: dict[str, int]) -> list[str]:
    """The counts that the traced pass's spans show the program did not do."""
    agg = aggregate(traced.spans)
    return [c for name, key, c in OBSERVED_COUNTS if agg.get(name, {}).get(key, 0) != counts[c]]


def untraced_run(workload: str, reqs: list[Request], work: Path, checker: Checker,
                 seconds: float, seed: int) -> tuple[dict, dict, int, int]:
    setup: list[float] = []
    ref: list[float] = []
    launches = failed = 0

    def time_launches(n: int) -> None:
        nonlocal launches, failed
        for _ in range(n):
            launches += 2
            failed += time_code(work, SETUP_CODE, setup)
            failed += time_code(work, REF_CODE, ref)

    launches += 1  # untimed: the first may write bytecode
    failed += time_code(work, SETUP_CODE, [])

    # The requests run in turn, each at least twice.  A request's wall time
    # and RSS are medians over its runs; a pass is their sum and maximum.
    runs: list[list[Pass]] = [[] for _ in reqs]
    spent = 0.0
    for n in itertools.count():
        mine = runs[n % len(reqs)]
        if n >= 2 * len(reqs) and spent + mine[-1].wall > seconds:
            break
        time_launches(SETUP_PER_REQUEST)
        mine.append(run_pass([reqs[n % len(reqs)]], "cli", work, checker))
        spent += mine[-1].wall
    time_launches(SETUP_PER_REQUEST)
    raw_wall = sum(statistics.median(p.wall for p in r) for r in runs)
    # infinite times if every launch failed; the run is then not correct
    raw_setup = statistics.median(setup) if setup else math.inf
    ref_mean, ref_median = (statistics.mean(ref), statistics.median(ref)) if ref else (0, 0)
    wall = REF_NOMINAL_S * raw_wall / ref_mean if ref else math.inf
    metrics = {
        "setup_s": REF_NOMINAL_S * raw_setup / ref_median if ref else math.inf,
        "wall_s": wall,
        "peak_rss_mb": max(statistics.median(p.rss_mib for p in r) for r in runs),
    }
    counts = pass_counts(reqs)
    counts["bytes_out"] = sum(r[-1].done[0].bytes_out for r in runs)
    done = [p for r in runs for p in r]
    attempted = launches + len(done)
    failed += sum(p.failed for p in done)
    # the issue's workload-specific throughputs; fail_ratio is failed/attempted
    named = {"fail_ratio": [failed / attempted, "1"]}
    if workload == "verify-large":
        named["pairs_per_s"] = [counts["pairs"] / wall, "1/s"]
    if workload == "emit-fields":
        named["json_mb_per_s"] = [counts["bytes_out"] / 1e6 / wall, "MB/s"]
    if workload == "frame-exact":
        named["coords_per_s"] = [counts["coords_out"] / wall, "1/s"]
    report = {
        "requests": [" ".join(r.args(work)) for r in reqs],
        "request_walls_s": [[p.wall for p in r] for r in runs],
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "ref_mean_s": ref_mean,
        "ref_median_s": ref_median,
        "setup_times_s": setup,
        "ref_times_s": ref,
        "counts_per_pass": counts,
        "named": named,
    }
    return metrics, report, attempted, failed


def traced_run(workload: str, reqs: list[Request], work: Path, checker: Checker,
               seconds: float, seed: int) -> tuple[dict, dict, int, int]:
    ref = run_pass(reqs, "cli", work, checker)
    next_id = itertools.count(0, 1000)  # request ids of a pass are id + index

    def step() -> list[Pass]:
        traced = run_pass(reqs, "traced", work, checker, next(next_id))
        diag = run_pass(reqs, "diag", work, checker, next(next_id))
        return [traced, diag]

    reps = measure(step, seconds, at_least=1, spent=ref.wall)
    per_rep = [layer_metrics(t, d, ref.wall) for t, d in reps]
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    counts = pass_counts(reqs)
    mismatches = [count_mismatches(t, counts) for t, _ in reps]
    spans_file = work / f"spans-seed{seed}.json"
    spans_file.write_text(json.dumps([
        dict(s, mode=p.mode) for t, d in reps for p in (t, d) for s in p.spans
    ]), encoding="utf-8")
    report = {
        "untraced_wall_s": ref.wall,
        "traced_walls_s": [t.wall for t, _ in reps],
        "diag_walls_s": [d.wall for _, d in reps],
        "counts_per_pass": counts,
        "count_mismatches": mismatches,
        "shares_of_traced_wall": shares(reps[0][0]),
        "shares_of_diag_wall": shares(reps[0][1]),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    passes = [ref] + [p for rep in reps for p in rep]
    # each traced pass is also a check that its spans show the exact counts
    attempted = sum(len(p.done) for p in passes) + len(reps)
    failed = sum(p.failed for p in passes) + sum(map(bool, mismatches))
    return metrics, report, attempted, failed


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # run_child kills its child on the way out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spinfields" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'spinfields'}; "
              "run from the root of a spinfields checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(RUN_DEADLINE_S)
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    reqs = make_requests(args.workload, args.seed, work)
    checker = Checker(load_digests())
    run = traced_run if args.trace else untraced_run
    metrics, report, attempted, failed = run(
        args.workload, reqs, work, checker, args.seconds, args.seed)
    signal.alarm(0)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("conditions: " + json.dumps(conditions(args.seed)))
    for m in declared:
        print(f"  {m['name']:<28} {metrics[m['name']]:>16.6g} {m['unit']}")
    for name, (value, unit) in report.get("named", {}).items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
