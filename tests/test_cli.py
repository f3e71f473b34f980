import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lorentz_forge import cli
from lorentz_forge.cli import main
from lorentz_forge.fourier import TRIG, WALSH, coeffs_2d
from lorentz_forge.norms import mixed_lebesgue_norm
from lorentz_forge.stepfun import DyadicStep2D, constant_grid, corpus_hash, save_grid
from lorentz_forge.verify import checks


@pytest.fixture()
def const_grid(tmp_path):
    path = tmp_path / "const1.json"
    save_grid(constant_grid(1.0, (3, 3)), path)
    return path


class TestNormCommand:
    def test_lorentz_value(self, const_grid, capsys):
        rc = main(["norm", "--kind", "lorentz", "--p", "2", "2",
                   "--q", "1", "1", "--in", str(const_grid)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(4.0)
        assert "content_hash" in doc and "config" in doc

    def test_grand_theta_zero_equals_lorentz(self, const_grid, capsys):
        rc = main(["norm", "--kind", "grand", "--theta", "0", "0",
                   "--p", "2", "2", "--q", "1", "1", "--in", str(const_grid)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(4.0)
        assert doc["approx_direction"] == "exact"

    def test_inf_exponents_parse(self, const_grid, capsys):
        rc = main(["norm", "--kind", "lorentz", "--p", "2", "2",
                   "--q", "inf", "inf", "--in", str(const_grid)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["norm", "--kind", "lorentz", "--in",
                   str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        {"values": [[1.0]]},                  # no levels
        [[1.0]],                              # not an object
        {"levels": ["a", 1], "values": [[1.0, 1.0]]},
        {"levels": [True, 1], "values": [[1.0, 1.0], [1.0, 1.0]]},
        {"levels": [1.5, 1], "values": [[1.0, 1.0], [1.0, 1.0]]},
        {"levels": [0, 0]},                   # no values
        {"levels": [2], "values": [[1]]},     # one level
        {"levels": [1, 0], "values": [[1, 2], [3]]},  # ragged values
    ])
    @pytest.mark.parametrize("command", [["norm", "--kind", "lorentz"],
                                         ["coeffs", "--K", "1", "1"]])
    def test_malformed_grid_file_exits_2(self, tmp_path, capsys, doc, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main([*command, "--in", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("doc, message", [
        ({"levels": [2], "values": [[1]]}, "levels must be two integers"),
        ({"levels": 3, "values": [[1]]}, "levels must be two integers"),
        ({"levels": [1, 0], "values": [[1, 2], [3]]},
         "values must be a rectangular array of numbers"),
        ({"levels": [0, 0], "values": [["a"]]},
         "values must be a rectangular array of numbers"),
    ])
    def test_malformed_grid_error_names_the_field(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["norm", "--kind", "lorentz", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}" + (
            f", got {doc['levels']!r}\n" if message.startswith("levels") else "\n")

    @pytest.mark.parametrize("command", [["norm", "--kind", "lorentz"],
                                         ["coeffs", "--K", "1", "1"]])
    def test_directory_as_input_exits_2(self, tmp_path, capsys, command):
        rc = main([*command, "--in", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("args", [["--kind", "mixed", "--p", "0", "2"],
                                      ["--kind", "mixed", "--p", "-1", "2"],
                                      ["--kind", "grand", "--theta", "nan", "nan"],
                                      ["--kind", "grand", "--theta", "0.5", "nan"],
                                      ["--kind", "logweight", "--p", "0", "2",
                                       "--theta", "0.5", "0.5"],
                                      ["--kind", "logweight", "--p", "-2", "2",
                                       "--theta", "0.5", "0.5"],
                                      ["--kind", "logweight", "--p", "nan", "2",
                                       "--theta", "0.5", "0.5"],
                                      ["--kind", "logweight", "--theta", "nan", "0.5"],
                                      ["--kind", "p6", "--theta", "0.5", "nan"],
                                      ["--kind", "p6", "--theta", "inf", "0.5"]])
    def test_bad_exponent_or_theta_exits_2(self, const_grid, capsys, args):
        rc = main(["norm", *args, "--in", str(const_grid)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_depth_past_1074_exits_2(self, const_grid, capsys):
        # past 1074 the epsilon grid only repeats 0, and an unbounded depth
        # exhausted memory; a negative depth is the other side of the bound
        for depth in ("1075", "-1"):
            rc = main(["norm", "--kind", "grand", "--theta", "0.5", "0.5",
                       "--J", depth, "--in", str(const_grid)])
            assert rc == 2
            captured = capsys.readouterr()
            # the error names the request field of the flag, not GrandParams'
            assert captured.out == "" and captured.err == \
                f"error: epsJ must be an integer >= 0 and <= 1074, got {depth}\n"

    def test_output_file(self, const_grid, tmp_path):
        out = tmp_path / "norm.json"
        rc = main(["norm", "--kind", "mixed", "--p", "2", "2",
                   "--in", str(const_grid), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.0)

    def test_seq_grand_kind_rejected(self, const_grid):
        # a grid file is never a sequence, so the CLI does not offer seq_grand
        rc = main(["norm", "--kind", "seq_grand", "--in", str(const_grid)])
        assert rc == 2

    def test_csv_format(self, const_grid, capsys):
        rc = main(["norm", "--kind", "lorentz", "--p", "2", "2",
                   "--q", "1", "1", "--in", str(const_grid),
                   "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert "value" in out[0]


class TestCoeffsCommand:
    def test_walsh_dump_with_parseval(self, const_grid, capsys):
        rc = main(["coeffs", "--system", "walsh", "walsh", "--K", "8", "8",
                   "--in", str(const_grid)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["re"][0][0] == pytest.approx(1.0)
        assert doc["parseval_residual"] <= 1e-10
        assert doc["system"] == ["walsh", "walsh"]

    def test_trig_dump(self, const_grid, capsys):
        rc = main(["coeffs", "--system", "trig", "trig", "--K", "3", "3",
                   "--in", str(const_grid)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.asarray(doc["im"]).shape == (3, 3)

    def test_walsh_beyond_resolution_exits_3(self, const_grid):
        rc = main(["coeffs", "--system", "walsh", "walsh", "--K", "64", "64",
                   "--in", str(const_grid)])
        assert rc == 3

    def test_bad_system_exits_2(self, const_grid):
        rc = main(["coeffs", "--system", "hermite", "walsh",
                   "--in", str(const_grid)])
        assert rc == 2

    @pytest.mark.parametrize("system", ["walsh", "trig"])
    @pytest.mark.parametrize("K", [["0", "2"], ["-2", "2"], ["2", "0"]])
    def test_nonpositive_truncation_exits_2(self, const_grid, system, K, capsys):
        rc = main(["coeffs", "--system", system, system, "--K", *K,
                   "--in", str(const_grid)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truncation" in captured.err


def _listed_coeffs_doc(f, system, K):
    """A coefficient document built from nested lists of floats, as
    ``json.dumps`` takes it."""
    sys1, sys2 = (TRIG if name == "trig" else WALSH for name in system)
    a = coeffs_2d(f, sys1, sys2, *K)
    doc = {"config": {"system": system, "K": K}, "content_hash": corpus_hash([f]),
           "system": system, "K": K,
           "re": [[float(x) for x in row] for row in a.entries.real],
           "im": [[float(x) for x in row] for row in a.entries.imag]}
    if system == ["walsh", "walsh"]:
        doc["parseval_residual"] = float(abs(np.sum(np.abs(a.entries) ** 2)
                                             - mixed_lebesgue_norm(f, (2, 2)) ** 2))
    return doc


class TestCoeffsWriter:
    @pytest.fixture()
    def grid(self, tmp_path):
        f = DyadicStep2D((4, 3), np.random.default_rng(14).random((8, 16)))
        path = tmp_path / "grid.json"
        save_grid(f, path)
        return f, path

    @pytest.mark.parametrize("system,K", [(["walsh", "walsh"], [16, 8]),
                                          (["trig", "trig"], [5, 7]),
                                          (["walsh", "trig"], [4, 6]),
                                          (["walsh", "walsh"], [1, 1])])
    def test_json_bytes_match_json_dumps(self, grid, tmp_path, system, K):
        f, path = grid
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--system", *system, "--K", *map(str, K),
                   "--in", str(path), "--out", str(out)])
        assert rc == 0
        want = json.dumps(_listed_coeffs_doc(f, system, K), sort_keys=True, indent=2)
        assert out.read_text() == want + "\n"

    @pytest.mark.parametrize("system", [["walsh", "walsh"], ["trig", "walsh"]])
    def test_csv_matches_listed_repr(self, grid, capsys, system):
        f, path = grid
        rc = main(["coeffs", "--system", *system, "--K", "4", "2",
                   "--in", str(path), "--format", "csv"])
        assert rc == 0
        doc = _listed_coeffs_doc(f, system, [4, 2])
        want = ",".join(doc) + "\n" + ",".join(repr(v) for v in doc.values()) + "\n"
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_matrix_writer_nonfinite_and_signed_zero(self, depth):
        m = np.array([[np.inf, -np.inf, 1e-310], [np.nan, -0.0, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            text = "".join(cli._matrix_json(m, depth))
        want = json.dumps(m.tolist(), indent=2).replace("\n", "\n" + "  " * depth)
        assert text == want
        assert "Infinity" in text and "-0.0" in text and "NaN" in text

    def test_large_values_give_finite_parseval_residual(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_grid(constant_grid(1e160, (3, 3)), path)
        rc = main(["coeffs", "--system", "walsh", "walsh", "--K", "8", "8",
                   "--in", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["re"][0][0] == pytest.approx(1e160)
        assert np.isfinite(doc["parseval_residual"])
        assert doc["parseval_residual"] <= 1e-10 * 1e320

    def test_residual_beyond_float_range_reads_inf(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        save_grid(DyadicStep2D((3, 3), np.random.default_rng(3).random((8, 8)) * 1e300),
                  path)
        rc = main(["coeffs", "--K", "8", "8", "--in", str(path)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["parseval_residual"] == math.inf

    def test_walsh_dump_finite_when_cell_values_sum_past_the_float_range(
            self, tmp_path, capsys):
        path = tmp_path / "sum_overflows.json"
        save_grid(DyadicStep2D((1, 1), [[1.7e308, 1e308], [1.0, 0.0]]), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["coeffs", "--K", "2", "2", "--in", str(path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["re"][0][0] == 6.75e307
        assert all(math.isfinite(x) for row in doc["re"] for x in row)

    def test_parseval_residual_scales_exactly(self, grid):
        f, _ = grid
        a = coeffs_2d(f, WALSH, WALSH, 16, 8)
        r = cli._parseval_residual(f, a.entries)
        assert r > 0
        big = DyadicStep2D(f.levels, f.values * 2.0**520)
        assert cli._parseval_residual(big, a.entries * 2.0**520) == math.ldexp(r, 1040)


def test_cli_import_skips_verification_harness():
    code = ("import sys, lorentz_forge.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('lorentz_forge.verify')))\n"
            "import lorentz_forge.stepfun, lorentz_forge.verify.corpus\n"
            "print(lorentz_forge.verify.corpus.corpus_hash is lorentz_forge.stepfun.corpus_hash)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()
    assert out == ["[]", "True"]


class TestVerifyCommand:
    def test_small_suite_exit_zero(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "karamata", "--seed", "7",
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert (tmp_path / "rep" / "reports.jsonl").exists()
        assert (tmp_path / "rep" / "summary.csv").exists()

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "nosuch", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "interp" in err and "all" in err

    def test_existing_file_as_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["verify", "--suite", "karamata", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_unusable_output_fails_before_any_suite_runs(self, tmp_path, capsys,
                                                          monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("run_suite was called")

        monkeypatch.setattr(checks, "run_suite", never)
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["verify", "--suite", "all", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("level", [["-1", "2"], ["3", "-4"]])
    def test_negative_level_exits_2(self, tmp_path, capsys, level):
        rc = main(["verify", "--suite", "mink", "--level", *level,
                   "--out", str(tmp_path / "rep")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "level" in captured.err

    @pytest.mark.parametrize("suite, flags, name", [
        # numpy's "expected non-negative integer" named no flag, and
        # karamata and hardy ran at any level
        ("karamata", ["--seed", "-1"], "seed"), ("hardy", ["--seed", "-1"], "seed"),
        ("karamata", ["--level", "-1", "2"], "level"),
        ("hardy", ["--level", "3", "-4"], "level")])
    def test_seed_and_level_checked_for_every_suite(self, tmp_path, capsys, suite,
                                                    flags, name):
        rc = main(["verify", "--suite", suite, *flags, "--out", str(tmp_path / "rep")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and f"{name} must be" in captured.err

    def test_reports_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["verify", "--suite", "mink", "--seed", "7",
                     "--out", str(a)]) == 0
        assert main(["verify", "--suite", "mink", "--seed", "7",
                     "--out", str(b)]) == 0
        assert (a / "reports.jsonl").read_bytes() == \
            (b / "reports.jsonl").read_bytes()


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main_args = ["norm", "--help"]
        from lorentz_forge.cli import _build_parser
        _build_parser().parse_args(main_args)
    out = capsys.readouterr().out
    for flag in ("--p", "--q", "--theta", "--J", "--in", "--out",
                 "--format"):
        assert flag in out
