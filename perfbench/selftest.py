#!/usr/bin/env python3
"""Self-tests of the benchmark harness itself, not of spinfields.

    python3 perfbench/selftest.py

Run from the root of a source checkout, like run.py.  Takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))
import spinfields  # noqa: E402
from spinfields.fields import system_to_json  # noqa: E402

WORK = bench.WORK / "selftest"


def setUpModule():
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)


class PeakRss(unittest.TestCase):
    def test_small_child_after_large_reads_small(self):
        big = [bench.PY, "-c", "b = b'x' * (300 << 20)"]
        code, _, big_rss = bench.run_child(big, WORK / "out.txt")
        self.assertEqual(code, 0)
        self.assertGreater(big_rss, 300)
        code, _, small_rss = bench.run_child([bench.PY, "-c", "pass"], WORK / "out.txt")
        self.assertEqual(code, 0)
        self.assertLess(small_rss, 50)
        # what RUSAGE_CHILDREN would have reported for the small child
        since_start = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        self.assertGreater(since_start, 300)


class Checks(unittest.TestCase):
    def test_tampered_digest_counts_as_failure(self):
        req = bench.Request("fields", 16)
        text = json.dumps(system_to_json(spinfields.build_system(16)), indent=2) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        tampered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        for mode in ("cli", "traced"):
            honest = bench.run_pass([req], mode, WORK, bench.Checker({16: digest}))
            self.assertEqual(honest.failed, 0, mode)
            bad = bench.run_pass([req], mode, WORK, bench.Checker({16: tampered}))
            self.assertEqual(bad.failed, 1, mode)

    def test_tampered_frame_counts_as_failure(self):
        m = 256
        vector = WORK / "normal.txt"
        vector.write_text("".join(f"{(7 * i) % 23 - 11}/{1 + i % 5}\n" for i in range(m)))
        req = bench.Request("apply", m, str(vector))
        p = bench.run_pass([req], "cli", WORK, bench.Checker({}))
        self.assertEqual((len(p.done), p.failed), (1, 0))

        out = req.out(WORK)
        obj = json.loads(out.read_text())
        row = obj["frame"][3]["coords"]
        row[5] = str(Fraction(row[5]) + 1)
        out.write_text(json.dumps(obj, indent=2) + "\n")
        d = p.done[0]
        d.digest, d.bytes_out = bench.sha256_file(out)
        self.assertEqual(bench.count_failures([d], bench.Checker({})), 1)

        # a remembered verified digest also rejects the tampered bytes
        checker = bench.Checker({})
        honest = bench.run_pass([req], "cli", WORK, checker)
        self.assertEqual(honest.failed, 0)
        self.assertEqual(bench.count_failures([d], checker), 1)

        obj = json.loads(out.read_text())  # the honest output, one row short
        del obj["frame"][-1]
        out.write_text(json.dumps(obj, indent=2) + "\n")
        d.digest, d.bytes_out = bench.sha256_file(out)
        self.assertEqual(bench.count_failures([d], bench.Checker({})), 1)

    def test_verify_check_wants_every_pair(self):
        req = bench.Request("verify", 4096)
        p = bench.run_pass([req], "cli", WORK, bench.Checker({}))
        self.assertEqual(p.failed, 0)
        d = p.done[0]
        d.stdout = d.stdout.replace(b"(276/276", b"(275/276")
        self.assertEqual(bench.count_failures([d], bench.Checker({})), 1)


class Failures(unittest.TestCase):
    def test_package_that_does_not_import_is_not_correct(self):
        env, per_request = bench.CHILD_ENV, bench.SETUP_PER_REQUEST
        bench.CHILD_ENV = dict(env, PYTHONPATH=str(WORK / "no-such-dir"))
        bench.SETUP_PER_REQUEST = 2
        try:
            reqs = [bench.Request("verify", 16)]
            metrics, _, attempted, failed = bench.untraced_run(
                "verify-large", reqs, WORK, bench.Checker({}), 0.0, 1)
        finally:
            bench.CHILD_ENV, bench.SETUP_PER_REQUEST = env, per_request
        self.assertEqual(metrics["setup_s"], float("inf"))
        # 1 + 2 + 2 + 2 failed set-up launches, 2 + 2 + 2 reference
        # launches and two failed runs of one request
        self.assertEqual((attempted, failed), (15, 9))

    def test_traced_spans_must_show_every_pair_and_entry(self):
        reqs = [bench.Request("verify", 256)]
        counts = bench.pass_counts(reqs)
        p = bench.run_pass(reqs, "traced", WORK, bench.Checker({}))
        self.assertEqual(p.failed, 0)
        self.assertEqual(bench.count_mismatches(p, counts), [])
        for s in p.spans:
            if s["name"] == "verify.verify_system":
                s["n"] -= 1
        self.assertEqual(bench.count_mismatches(p, counts), ["pairs"])


class Counts(unittest.TestCase):
    def test_sigma_agrees_with_package(self):
        for m in range(1, 4097):
            self.assertEqual(bench.hurwitz_radon(m), 0 if m % 2 else spinfields.sigma(m))

    def test_workload_counts(self):
        verify = bench.pass_counts(bench.make_requests("verify-large", 1, WORK))
        self.assertEqual(verify["pairs"], 25 * 24 // 2 + 31 * 30 // 2)
        self.assertEqual(verify["entries_built"], 25 * 24576 + 31 * 32768)
        frame = bench.pass_counts(bench.make_requests("frame-exact", 1, WORK))
        self.assertEqual(frame["apply_moves"], 2 * 32 * 65536)

    def test_recorded_digests_cover_emit_fields(self):
        sizes = {r.m for r in bench.make_requests("emit-fields", 1, WORK)}
        self.assertEqual(set(bench.load_digests()), sizes)


if __name__ == "__main__":
    unittest.main()
