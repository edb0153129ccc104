import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from spinfields import fields
from spinfields.cli import _write_out, main

import golden


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSigma:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "sigma", 16)
        assert code == 0
        assert out == "sigma(16) = 8, decomposition k=0 p=0 q=1\n"

    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "sigma", 1024)
        assert code == 0
        assert out.startswith("sigma(1024) = 19")

    def test_odd(self, capsys):
        code, out, _ = run(capsys, "sigma", 7)
        assert code == 0
        assert out.startswith("sigma(7) = 0")

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", 96)
        assert code == 0
        assert out == "96 = (2*1+1) * 2^1 * 16^1\n"

    def test_usage_error_non_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sigma", "sixteen"])
        assert exc.value.code == 2

    def test_nonpositive(self, capsys):
        code, _, err = run(capsys, "sigma", 0)
        assert code == 2
        assert "error" in err


class TestFields:
    def test_sparse_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "fields", 32, "--format", "sparse-json")
        assert code == 0
        parsed = fields.system_from_json(json.loads(out))
        assert parsed == fields.build_system(32)

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "fields", 48, "--format", "sparse-json")
        _, out2, _ = run(capsys, "fields", 48, "--format", "sparse-json")
        assert out1 == out2

    def test_display(self, capsys):
        code, out, _ = run(capsys, "fields", 16, "--format", "display")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("B(1,1): (-s9, -s10,")

    def test_dense_csv(self, capsys):
        code, out, _ = run(capsys, "fields", 2, "--format", "dense-csv")
        assert code == 0
        assert out == "# L(i)\n0,-1\n1,0\n"

    def test_dense_csv_bound(self, capsys):
        # sigma(4098) = 1, so a missing guard costs one 4098^2 matrix
        code, out, err = run(capsys, "fields", 4098, "--format", "dense-csv")
        assert code == 2
        assert out == ""
        assert err.startswith("error: dense CSV is bounded at m = 4096")
        assert len(err.splitlines()) == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "sys.json"
        code, out, _ = run(capsys, "fields", 16, "--out", target)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["m"] == 16

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        for args in (("fields", 16), ("multable", 2)):
            code, out, err = run(capsys, *args, "--out", target)
            assert code == 2
            assert out == ""
            assert err.startswith("error: cannot write output file:")
            assert len(err.splitlines()) == 1

    def test_odd_notice(self, capsys):
        code, out, err = run(capsys, "fields", 9)
        assert code == 0
        assert "odd" in err
        assert json.loads(out)["fields"] == []


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", 512)
        assert code == 0
        assert "PASS" in out

    def test_with_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", 16, "--oracle")
        assert code == 0
        assert "oracle" in out

    def test_oracle_bound(self, capsys):
        code, out, err = run(capsys, "verify", 512, "--oracle")
        assert code == 2
        assert "oracle" in err
        assert out == ""

    def test_removed_sampling_flags_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "256", "--sampled"])
        assert exc.value.code == 2

    def test_summary_shape(self, capsys):
        code, out, _ = run(capsys, "verify", 96)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m = 96: 9 fields (expected sigma = 9), mode = exhaustive"
        assert lines[1].startswith("checks run: 45 (36/36 anticommutation pairs)")
        assert lines[2] == "PASS"


class TestMultable:
    def test_csv_matches_fixture(self, capsys):
        data = Path(__file__).parent / "data"
        for level, name in ((3, "table_octonions.csv"), (4, "table_sedenions.csv")):
            code, out, _ = run(capsys, "multable", level, "--format", "dense-csv")
            assert code == 0
            assert out == (data / name).read_text()

    def test_json(self, capsys):
        code, out, _ = run(capsys, "multable", 2, "--format", "sparse-json")
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 4
        assert obj["entries"][1][2] == {"index": 3, "sign": 1}

    def test_display(self, capsys):
        code, out, _ = run(capsys, "multable", 1, "--format", "display")
        assert code == 0
        assert "e1" in out

    def test_cap(self, capsys):
        code, _, err = run(capsys, "multable", 9)
        assert code == 2
        assert "capped" in err


class TestApply:
    def write_vector(self, tmp_path, coords):
        f = tmp_path / "n.txt"
        f.write_text("".join(f"{c}\n" for c in coords))
        return f

    def test_basis_vector_gives_first_columns(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, [1] + [0] * 15)
        code, out, _ = run(capsys, "apply", 16, "--vector", f)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        for line, row in zip(lines, golden.J_ROWS_16):
            label, coords = line.split("\t")
            got = [int(c) for c in coords.split()]
            matrix = golden.coord_rows_to_matrix(row, 16)
            assert got == [matrix[r][0] for r in range(16)]

    def test_rational_tokens(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, ["1/2", "-3"] + ["0"] * 14)
        code, out, _ = run(capsys, "apply", 16, "--vector", f)
        assert code == 0
        assert "1/2" in out

    def test_csv_format(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, [1] + [0] * 15)
        code, out, _ = run(capsys, "apply", 16, "--vector", f, "--format", "dense-csv")
        assert code == 0
        assert len(out.splitlines()) == 8

    def test_json_format(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, [1, 0])
        code, out, _ = run(capsys, "apply", 2, "--vector", f, "--format", "sparse-json")
        assert code == 0
        obj = json.loads(out)
        assert obj["frame"][0] == {"label": "L(i)", "coords": ["0", "1"]}

    def test_decimal_rejected_with_line_number(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, ["1", "2.5"] + ["0"] * 14)
        code, _, err = run(capsys, "apply", 16, "--vector", f)
        assert code == 2
        assert "line 2" in err

    def test_garbage_token(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, ["1", "x"] + ["0"] * 14)
        code, _, err = run(capsys, "apply", 16, "--vector", f)
        assert code == 2
        assert "line 2" in err

    def test_exponent_rejected_with_line_number(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, ["1", "-37/12", "1e-3"] + ["0"] * 13)
        code, _, err = run(capsys, "apply", 16, "--vector", f)
        assert code == 2
        assert "line 3" in err and "1e-3" in err

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, [1] + [0] * 15)
        out_path = tmp_path / "missing-dir" / "frame.txt"
        code, _, err = run(capsys, "apply", 16, "--vector", f, "--out", out_path)
        assert code == 2
        assert err.startswith("error: cannot write output file:")

    def test_wrong_count(self, capsys, tmp_path):
        f = self.write_vector(tmp_path, [1, 2, 3])
        code, _, err = run(capsys, "apply", 16, "--vector", f)
        assert code == 2
        assert "expected 16" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "apply", 16, "--vector", tmp_path / "nope.txt")
        assert code == 2


class TestBench:
    def test_structure(self, capsys):
        code, out, _ = run(capsys, "bench", 32, "--reps", 50)
        assert code == 0
        assert "apply_sigperm" in out
        assert "compose_sigperm" in out
        assert "apply_dense" in out
        assert "ratio" in out

    def test_sparse_only_above_dense_limit(self, capsys):
        code, out, _ = run(capsys, "bench", 8192, "--reps", 3)
        assert code == 0
        assert "apply_dense" not in out

    def test_small_dimension_ratio_at_least_one(self):
        from spinfields.cli import bench

        res = bench(16)
        assert res["ratio_dense_over_sigperm"] >= 1.0

    def test_odd_rejected(self, capsys):
        code, _, err = run(capsys, "bench", 5)
        assert code == 2

    def test_nonpositive_reps_rejected(self, capsys):
        for reps in (0, -3):
            code, out, err = run(capsys, "bench", 2, "--reps", reps)
            assert code == 2
            assert out == ""
            assert "reps must be >= 1" in err


def reference_frame(m, normal, fmt):
    """apply's output as formatted before it was streamed: a str per
    Fraction coordinate, and json.dumps of the whole frame."""
    rows = [
        (f.label, [str(c) for c in f.matrix.apply(normal)])
        for f in fields.build_system(m).fields
    ]
    if fmt == "sparse-json":
        frame = [{"label": label, "coords": coords} for label, coords in rows]
        return json.dumps({"m": m, "frame": frame}, indent=2) + "\n"
    if fmt == "dense-csv":
        return "".join(",".join(coords) + "\n" for _, coords in rows)
    return "".join(f"{label}\t{' '.join(coords)}\n" for label, coords in rows)


def normal(kind, m):
    rng = random.Random(f"{kind}:{m}")
    if kind == "integer":
        return [Fraction(rng.randint(-10**12, 10**12)) for _ in range(m)]
    if kind == "rational":
        return [Fraction(rng.randint(-999, 999), rng.randint(1, 60)) for _ in range(m)]
    # many zeros, negatives and repeated values
    return [
        Fraction(rng.choice([0, 0, -1, 3, -7]), rng.choice([1, 2, 9])) for _ in range(m)
    ]


def assert_same_text(got, expected):
    """got == expected, reporting the first difference only: pytest's own
    diff of a multi-megabyte string takes minutes."""
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        lo = max(0, at - 40)
        pytest.fail(
            f"texts differ at offset {at} (lengths {len(got)}, {len(expected)}): "
            f"{got[lo:at + 40]!r} != {expected[lo:at + 40]!r}"
        )


class TestStreamedOutput:
    """The CLI writes sparse JSON and frames chunk by chunk; the bytes must
    equal the whole-object formatting they replace."""

    @pytest.mark.parametrize("m", [1, 2, 3, 16, 24, 96, 4096])
    def test_fields_sparse_json_equals_json_dumps(self, capsys, tmp_path, m):
        system = fields.build_system(m)
        expected = json.dumps(fields.system_to_json(system), indent=2) + "\n"
        code, out, _ = run(capsys, "fields", m, "--format", "sparse-json")
        assert code == 0
        assert_same_text(out, expected)
        target = tmp_path / "sys.json"
        code, out, _ = run(capsys, "fields", m, "--out", target)
        assert code == 0 and out == ""
        assert_same_text(target.read_text(encoding="utf-8"), expected)

    @pytest.mark.parametrize("fmt", ["sparse-json", "dense-csv", "display"])
    @pytest.mark.parametrize(
        "kind, m", [("integer", 96), ("rational", 48), ("mixed", 32), ("rational", 7)]
    )
    def test_apply_equals_reference(self, capsys, tmp_path, fmt, kind, m):
        coords = normal(kind, m)
        f = tmp_path / "n.txt"
        f.write_text("".join(f"{c}\n" for c in coords))
        expected = reference_frame(m, coords, fmt)
        code, out, _ = run(capsys, "apply", m, "--vector", f, "--format", fmt)
        assert code == 0
        assert_same_text(out, expected)
        target = tmp_path / "frame.out"
        code, out, _ = run(
            capsys, "apply", m, "--vector", f, "--format", fmt, "--out", target
        )
        assert code == 0 and out == ""
        assert_same_text(target.read_text(encoding="utf-8"), expected)

    def test_write_out_writes_every_chunk(self, capsys, tmp_path):
        chunks = [f"chunk {i},\n" for i in range(1000)]
        _write_out((c for c in chunks), None)
        assert capsys.readouterr().out == "".join(chunks)
        target = tmp_path / "chunks.txt"
        _write_out((c for c in chunks), str(target))
        assert target.read_text(encoding="utf-8") == "".join(chunks)
        _write_out("one string", str(target))
        assert target.read_text(encoding="utf-8") == "one string"


def test_unknown_command_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
