"""End-to-end CLI behavior: formats, determinism, exit codes."""

import json
import math
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treecut as T
from treecut.cli import _json_text, build_parser, main
from treecut.criteria import FAMILIES

import record_golden
from util import REPO_ROOT, listed, subprocess_env


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# small members of every family, as gen/metrics flags
_FAMILY_FLAGS = {
    "segment": ["--n", "5"], "star": ["--n", "5"], "binary": ["--n", "9"],
    "ssym_binary": ["--n", "3"], "cor15": ["--n", "6"], "peres_sousi": ["--n", "2"],
    "gw": ["--n", "5", "--offspring", "geom:0.5", "--seed", "2"],
    "gw_survival": ["--n", "4", "--offspring", "geom:0.4", "--seed", "3"],
    "gw_size": ["--n", "25", "--offspring", "geom:0.5", "--seed", "4"],
    "kesten": ["--n", "5", "--offspring", "geom:0.5", "--seed", "5"],
}


class TestGen:
    def test_segment_canonical_bytes(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "segment", "--n", "3"], capsys)
        assert code == 0
        assert out == "4\n-1 0 1 2\n"

    def test_kesten_negative_depth(self, capsys):
        # used to print a single-vertex tree and exit 0
        code, out, err = run_cli(["gen", "--family", "kesten", "--n", "-2",
                                  "--seed", "1", "--offspring", "geom:0.5"], capsys)
        assert (code, out) == (2, "") and "depth" in err

    def test_random_family_requires_seed(self, capsys):
        code, _, err = run_cli(["gen", "--family", "gw_size", "--n", "10",
                                "--offspring", "geom:0.5"], capsys)
        assert code == 2
        assert "seed" in err
        # one check for gen and sweep, so one message
        code, _, sweep_err = run_cli(["sweep", "--family", "gw_size", "--sizes", "10",
                                      "--offspring", "geom:0.5"], capsys)
        assert code == 2 and sweep_err == err

    def test_peres_sousi_takes_n(self, capsys):
        # --n is k, as in sweep --sizes; the separate --k flag is gone
        code, out, _ = run_cli(["gen", "--family", "peres_sousi", "--n", "2"], capsys)
        assert code == 0 and out == T.to_text(T.peres_sousi(2))

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "peres_sousi", "--k", "2"],
        ["spectrum", "--family", "segment", "--n", "8", "--tol", "1e-6"]],
        ids=["k", "tol"])
    def test_deleted_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("family, law", [("gw", "poisson:nan"),
                                             ("gw", "table:0.5,0.5,nan"),
                                             ("kesten", "poisson:nan")])
    @pytest.mark.parametrize("command", ["gen", "sweep"])
    def test_nan_offspring_law(self, command, family, law, capsys):
        # gen used to print a wrong tree and exit 0; sweep and kesten failed
        # later, with messages about single vertices or bounds
        size = ["--n", "5"] if command == "gen" else ["--sizes", "5"]
        code, out, err = run_cli([command, "--family", family, *size, "--seed", "1",
                                  "--offspring", law], capsys)
        assert (code, out) == (2, "") and "offspring" in err

    def test_oversized_family_member_exits_3(self, capsys):
        # 2^41 - 1 vertices: refused before anything is allocated
        code, out, err = run_cli(["gen", "--family", "ssym_binary", "--n", "40"],
                                 capsys)
        assert (code, out) == (3, "") and "hard cap" in err

    @pytest.mark.parametrize("family, n", [("cor15", "8000000"),
                                           ("cor15", "1000000000000000000"),
                                           ("ssym_binary", "2000000"),
                                           ("peres_sousi", "6")])
    def test_oversized_member_exits_3_before_listing_it(self, family, n, capsys):
        # some 21 million vertices, 10^18, 2^2000001 - 1 and 2^192: refused
        # before cor15 lists its attachments, ssym_binary its degrees, or
        # peres_sousi casts its sizes to int64
        code, out, err = run_cli(["gen", "--family", family, "--n", n], capsys)
        assert (code, out) == (3, "") and "hard cap" in err

    def test_oversized_size_conditioned_member_exits_3(self, capsys):
        # it used to score rejection attempts for 25 million vertices
        code, out, err = run_cli(["gen", "--family", "gw_size", "--n", "25000000",
                                  "--offspring", "geom:0.5", "--seed", "1"], capsys)
        assert (code, out) == (3, "") and "hard cap" in err

    def test_poisson_rate_too_large_exit_code(self, capsys):
        code, _, err = run_cli(["gen", "--family", "gw_size", "--n", "10",
                                "--offspring", "poisson:800", "--seed", "1"],
                               capsys)
        assert code == 2
        assert "poisson" in err

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_gen_to_file_and_round_trip(self, family, tmp_path, capsys):
        flags = ["--family", family] + _FAMILY_FLAGS[family]
        path = tmp_path / "t.txt"
        code, _, _ = run_cli(["gen", *flags, "--out", str(path)], capsys)
        assert code == 0
        code, out1, _ = run_cli(["metrics", str(path)], capsys)
        assert code == 0
        # identical metrics when the family is regenerated directly
        code, out2, _ = run_cli(["metrics", *flags], capsys)
        assert out1 == out2


class TestMix:
    def test_two_path_json(self, tmp_path, capsys):
        path = tmp_path / "p2.txt"
        path.write_text("2\n-1 0\n")
        code, out, _ = run_cli(["mix", str(path), "--eps", "0.25"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "treecut/1"
        assert payload["t_mix"] == pytest.approx(np.log(2) / 2, rel=1e-6)

    def test_curve_csv(self, tmp_path, capsys):
        path = tmp_path / "p3.txt"
        path.write_text("3\n-1 0 1\n")
        code, out, _ = run_cli(["mix", str(path), "--curve", "5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,tv"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(2 / 3, rel=1e-9)

    def test_both_sources_rejected(self, tmp_path, capsys):
        path = tmp_path / "p2.txt"
        path.write_text("2\n-1 0\n")
        code, _, err = run_cli(["mix", str(path), "--family", "segment",
                                "--n", "2"], capsys)
        assert code == 2


class TestSpectrumBounds:
    def test_spectrum_json(self, capsys):
        code, out, _ = run_cli(["spectrum", "--family", "segment", "--n", "2"],
                               capsys)
        payload = json.loads(out)
        assert payload["gap"] == pytest.approx(1.0, abs=1e-10)
        assert payload["method"] == "dense"

    def test_spectrum_iterative_above_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "20")
        expect = 4 * np.sin(np.pi / (2 * 41)) ** 2
        for command in ("spectrum", "bounds"):
            code, out, _ = run_cli([command, "--family", "segment", "--n", "40"],
                                   capsys)
            payload = json.loads(out)
            assert (code, payload["method"]) == (0, "iterative")
            assert payload["gap"] == T.gap_iterative(T.segment(40))
            assert payload["gap"] == pytest.approx(expect, rel=1e-8)

    def test_bounds_schema(self, capsys):
        code, out, _ = run_cli(["bounds", "--family", "segment", "--n", "4"],
                               capsys)
        payload = json.loads(out)
        b = payload["bounds"]
        for key in ("hardy_lower", "cor24", "cor25", "cor26", "tail32",
                    "hardy_interval"):
            assert key in b
        assert b["hardy_lower"] <= payload["t_rel"] * (1 + 1e-9)
        assert payload["t_rel"] <= min(b["cor24"], b["cor25"], b["cor26"],
                                       b["tail32"]) * (1 + 1e-9)
        lo, hi = b["hardy_interval"]
        assert lo * (1 - 1e-9) <= payload["gap"] <= hi * (1 + 1e-9)

    @pytest.mark.parametrize("family, n, method", [("cor15", "256", "partial"),
                                                   ("ssym_binary", "8", "orbits"),
                                                   ("segment", "8", "dense")])
    def test_gap_is_the_sweep_rows(self, family, n, method, capsys):
        # one solver path per number: the printed t_rel is the sweep row's
        flags = ["--family", family, "--n", n]
        _, out, _ = run_cli(["sweep", "--family", family, "--sizes", n], capsys)
        t_rel = json.loads(out)["rows"][0]["t_rel"]
        for command in ("spectrum", "bounds"):
            code, out, _ = run_cli([command] + flags, capsys)
            payload = json.loads(out)
            assert code == 0 and payload["method"] == method
            assert payload["t_rel"] == t_rel == 1.0 / payload["gap"]

    @pytest.mark.parametrize("family, n, cap", [("cor15", "256", None),
                                                ("ssym_binary", "8", None),
                                                ("segment", "8", None),
                                                ("segment", "20", "10")],
                             ids=["partial", "orbits", "dense", "bounded"])
    def test_upper_bounds_are_the_sweep_rows(self, family, n, cap, capsys, monkeypatch):
        # one bound set: the row's t_rel_upper is the least bound printed
        if cap is not None:
            monkeypatch.setenv("TREECUT_MAX_VERTICES", cap)
        _, out, _ = run_cli(["sweep", "--family", family, "--sizes", n], capsys)
        row = json.loads(out)["rows"][0]
        assert row["mode"] == ("exact" if cap is None else "bounded")
        code, out, _ = run_cli(["bounds", "--family", family, "--n", n], capsys)
        b = json.loads(out)["bounds"]
        assert code == 0
        assert min(b["cor24"], b["cor25"], b["cor26"], b["tail32"]) == row["t_rel_upper"]

    def test_full_spectrum_above_cap_exits_3(self, capsys, monkeypatch):
        # it used to exit 0 with the iterative gap and no eigenvalues
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "20")
        code, out, err = run_cli(["spectrum", "--family", "segment", "--n", "40",
                                  "--full"], capsys)
        assert (code, out) == (3, "") and "TREECUT_MAX_VERTICES" in err


class TestBDChain:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(["bdchain", "--degrees", "2,3,3", "--n", "3"],
                               capsys)
        payload = json.loads(out)
        for key in ("rates", "stationary", "gap", "cs_bound", "lift_residual"):
            assert key in payload
        assert payload["lift_residual"] < 1e-8
        assert payload["cs_bound"] <= 1 / payload["gap"]

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(["bdchain", "--degrees", "2,3", "--n", "9"],
                               capsys)
        assert code == 2

    def test_one_solve_per_chain(self, capsys, monkeypatch):
        # bd_spectrum and lift's residual share the chain's one eigh
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        code, out, _ = run_cli(["bdchain", "--degrees", "2,3,3,3", "--n", "5"], capsys)
        assert code == 0 and json.loads(out)["lift_residual"] < 1e-8
        assert calls == [(4, 4)]


class TestSweep:
    def test_comb_two_rows_increasing_ratio(self, capsys):
        code, out, _ = run_cli(["sweep", "--family", "cor15",
                                "--sizes", "64,128"], capsys)
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 2
        assert rows[0]["ratio"] < rows[1]["ratio"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["sweep", "--family", "segment",
                                "--sizes", "8,16", "--format", "csv"], capsys)
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,sites,mode")
        assert len(lines) == 3

    def test_unknown_family_exit_code(self, capsys):
        code, _, err = run_cli(["sweep", "--family", "segment",
                                "--sizes", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "5"])
    def test_bounded_rows_reject_epsilon(self, eps, capsys, monkeypatch):
        # above the cap these printed t_mix_lower nan, -27.5, 0 and 14.40
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "10")
        code, out, err = run_cli(["sweep", "--family", "segment", "--sizes", "20",
                                  "--eps", eps, "--format", "csv"], capsys)
        assert (code, out) == (2, "") and "epsilon" in err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-0.05"])
    def test_threshold_rejected(self, threshold, capsys):
        # nan and inf used to print "threshold": NaN / Infinity, which is
        # not JSON; a threshold <= 0 made the flat verdict unreachable
        code, out, err = run_cli(["sweep", "--family", "segment", "--sizes",
                                  "4,8,16,32", f"--threshold={threshold}"], capsys)
        assert (code, out) == (2, "") and "threshold" in err

    def test_ssym_binary_needs_depth(self, capsys):
        # sizes -1, 0 and 1 used to give three identical 3-vertex rows;
        # no family takes a negative size, so sweep refuses -1 itself
        code, out, err = run_cli(["sweep", "--family", "ssym_binary",
                                  "--sizes=-1,0,1,2"], capsys)
        assert (code, out) == (2, "") and "size must be >= 0, got -1" in err
        code, out, err = run_cli(["sweep", "--family", "ssym_binary",
                                  "--sizes=0,1,2"], capsys)
        assert (code, out) == (2, "") and "depth" in err
        code, out, _ = run_cli(["gen", "--family", "ssym_binary", "--n", "0"], capsys)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("argv", [
        *[["--family", "gw", "--sizes", "4,5,6,7", "--offspring", "geom:0.5", "--seed", str(s)]
          for s in range(1, 6)],
        ["--family", "gw", "--sizes", "4,5,6,7", "--offspring", "poisson:1.5", "--reps", "3",
         "--seed", "1"],
        ["--family", "binary", "--sizes", "1,2,3,4"],
        ["--family", "gw_size", "--sizes", "1,2,3,4", "--offspring", "geom:0.5", "--seed", "1"],
    ])
    def test_single_vertex_member_is_named(self, argv, capsys):
        # these exited 2 with "the spectral gap is undefined for a single
        # vertex", naming no member
        code, out, err = run_cli(["sweep", *argv], capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(f"error: sweep member '{argv[1]}' size [0-9]+ rep [0-9]+ "
                            r"\(stream seed (None|[0-9]+)\) is a single vertex, "
                            "which has no spectral gap\n", err)


class TestStrictIntegers:
    # int() took all of these; the tree format allows only a minus and ASCII digits
    @pytest.mark.parametrize("value", ["1_0", "+5", "\u0663"])
    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "segment", "--n", "{}"],
        ["gen", "--family", "gw", "--n", "4", "--offspring", "geom:0.5", "--seed", "{}"],
        ["bdchain", "--degrees", "2,3", "--n", "{}"],
        ["mix", "--family", "segment", "--n", "4", "--curve", "{}"],
        ["mix", "--family", "segment", "--n", "4", "--start", "{}"],
        ["sweep", "--family", "segment", "--sizes", "4", "--reps", "{}"],
        ["sweep", "--family", "segment", "--sizes", "4", "--jobs", "{}"],
        ["sweep", "--family", "segment", "--sizes", "4,{}"],
        ["bdchain", "--degrees", "2,{}", "--n", "3"],
    ], ids=["gen-n", "gen-seed", "bdchain-n", "mix-curve", "mix-start", "sweep-reps",
            "sweep-jobs", "sweep-sizes", "bdchain-degrees"])
    def test_refused(self, argv, value, capsys):
        argv = [a.replace("{}", value) for a in argv]
        try:
            code, out, err = run_cli(argv, capsys)
        except SystemExit as exc:  # argparse refuses a flag's value
            code, out, err = exc.code, *capsys.readouterr()
        assert (code, out) == (2, "") and value in err

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "--family", "segment", "--n", "{}"], "--n"),
        (["sweep", "--family", "segment", "--sizes", "4,{}"], "--sizes"),
    ], ids=["gen-n", "sweep-sizes"])
    def test_integer_past_digit_limit(self, argv, flag, capsys):
        # int() refuses more than 4300 digits with a ValueError, which argparse
        # reported as "invalid _parse_int value" with every digit echoed
        argv = [a.replace("{}", "1" * 5000) for a in argv]
        try:
            code, out, err = run_cli(argv, capsys)
        except SystemExit as exc:
            code, out, err = exc.code, *capsys.readouterr()
        assert (code, out) == (2, "")
        assert flag in err and len(err) < 300 and "_parse_int" not in err

    def test_whitespace_minus_and_seeds_past_int64(self, capsys):
        code, out, _ = run_cli(["gen", "--family", "segment", "--n", " 3 "], capsys)
        assert (code, out) == (0, T.to_text(T.segment(3)))
        code, out, _ = run_cli(["gen", "--family", "kesten", "--n", "3", "--offspring",
                                "geom:0.5", "--seed", str(2 ** 64 - 1)], capsys)
        assert code == 0 and out
        code, _, err = run_cli(["gen", "--family", "segment", "--n", "-1"], capsys)
        assert code == 2 and "-1" in err


class TestExitCodes:
    def test_malformed_tree_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3\n-1 0\n")
        code, _, err = run_cli(["metrics", str(path)], capsys)
        assert code == 2

    def test_resource_cap_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("TREECUT_MAX_VERTICES", "10")
        code, _, err = run_cli(["mix", "--family", "segment", "--n", "50",
                                "--eps", "0.25"], capsys)
        assert code == 3

    def test_curve_sample_cap(self, capsys):
        # it used to exit 1 with numpy's _ArrayMemoryError from np.linspace
        code, out, err = run_cli(["mix", "--family", "segment", "--n", "3",
                                  "--curve", "1000000000000"], capsys)
        assert (code, out) == (3, "") and "sample count 1000000000000 above the cap" in err

    @pytest.mark.parametrize("rtol", ["0", "-1", "1e-17", "nan"])
    def test_rtol_out_of_range(self, rtol, capsys):
        # these used to hang (0, -1, 1e-17) or print "rtol": NaN (nan)
        code, out, err = run_cli(["mix", "--family", "segment", "--n", "20",
                                  "--rtol", rtol], capsys)
        assert code == 2 and out == ""
        assert "rtol" in err

    @pytest.mark.parametrize("samples", ["0", "1", "-1"])
    def test_curve_needs_two_samples(self, samples, capsys):
        # --curve 0 used to be read as no curve and print the mixing time
        code, out, err = run_cli(["mix", "--family", "segment", "--n", "5",
                                  "--curve", samples], capsys)
        assert (code, out) == (2, "")
        assert f"sample count must be >= 2, got {samples}" in err

    @pytest.mark.parametrize("entry", ["12345678901234567890", "1_0", "+0"])
    def test_malformed_parent_entry(self, entry, tmp_path, capsys):
        # an oversized entry used to escape as OverflowError
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n-1 {entry}\n")
        code, out, _ = run_cli(["metrics", str(path)], capsys)
        assert code == 2 and out == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["metrics", "/nonexistent/tree.txt"], capsys)
        assert code == 2

    @pytest.mark.parametrize("data", [b"2\n-1 \xc3\n", b"\xef\xbb\xbf2\n-1 0\n"],
                             ids=["byte_c3", "utf8_bom"])
    def test_non_ascii_tree_file(self, data, tmp_path, capsys):
        # a TreeFormatError, not a UnicodeDecodeError traceback
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        code, out, err = run_cli(["metrics", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "ASCII" in err

    @pytest.mark.parametrize("flag", ["tree", "--out"])
    def test_directory_path(self, flag, tmp_path, capsys):
        # a directory as the tree file or as --out: IsADirectoryError is an OSError
        argv = ["metrics", "--family", "segment", "--n", "3", "--out", str(tmp_path)]
        if flag == "tree":
            argv = ["metrics", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_readme_commands_parse():
    # every treecut line of the README's shell blocks, continuations joined,
    # parses: a deleted flag cannot linger in the docs
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("treecut ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_byte_identical_runs():
    # determinism across processes, not just within one interpreter
    cmd = [sys.executable, "-m", "treecut", "sweep", "--family", "gw_size",
           "--sizes", "12,18", "--seed", "7", "--offspring", "geom:0.5"]
    a, b = (subprocess.run(cmd, capture_output=True, cwd=REPO_ROOT,
                           env=subprocess_env()) for _ in range(2))
    for proc in (a, b):
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert a.stdout == b.stdout and len(a.stdout) > 0


_GOLDEN = json.loads((REPO_ROOT / "tests" / "fixtures" / "cli_golden.json").read_text("ascii"))


@pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: f"cap{c['cap']} {' '.join(c['argv'])}")
def test_golden_bytes(case, capsys, monkeypatch):
    # frozen stdout, stderr and exit codes of bounds, sweep, metrics (json
    # and text) and gen, at the default dense cap and at 300, where the
    # larger trees are bounded; metrics and gen hold every caller of
    # tree._int_text, from one-digit arrays to 7-digit path loads; mix on
    # bottom pairs, orbit quotients and decompose, a curve, spectrum and
    # bdchain at the default cap
    if case["cap"] is None:
        monkeypatch.delenv("TREECUT_MAX_VERTICES", raising=False)
    else:
        monkeypatch.setenv("TREECUT_MAX_VERTICES", case["cap"])
    assert run_cli(case["argv"], capsys) == (case["code"], case["stdout"], case["stderr"])


def test_golden_recorder_moves_only_numbers_a_little():
    # the re-record tool measures how far each changed number moved, an int
    # past float range too, keeping both texts, and refuses a changed exit
    # code, stderr, text or count of numbers
    case = {"argv": [], "cap": None, "code": 0, "stderr": "",
            "stdout": '{"gap": 0.01812574293986801, "n": 7, "s": "cor15"}\n'}
    moved = dict(case, stdout=case["stdout"].replace("801", "8007"))
    assert record_golden.compare(case, moved) == [
        ("0.01812574293986801", "0.018125742939868007", pytest.approx(2.4e-16, rel=0.1))]
    assert record_golden.compare(case, case) == []
    for change in ({"code": 2}, {"stderr": "warning\n"},
                   {"stdout": case["stdout"].replace("cor15", "cor16")},
                   {"stdout": case["stdout"].replace('"n": 7', '"n": [7, 8]')},
                   {"stdout": case["stdout"].replace('"gap"', '"Gap"')}):
        with pytest.raises(ValueError):
            record_golden.compare(case, dict(case, **change))
    assert record_golden.numeric_moves("x 1.0", "x 1.00000000001")[0][2] > record_golden.MAX_MOVE
    assert record_golden.numeric_moves("9" * 400, "8" * 400) == [
        ("9" * 400, "8" * 400, pytest.approx(1 / 9))]


def stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


_NUMBERS = st.one_of(
    st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 63), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]))
_STRINGS = st.one_of(st.text(), st.sampled_from(
    [", ", "a, b", "[1, 2]", '"quoted"\\\n\t\x00', "\u00e9\u4e2d\U0001f600"]))
_SCALARS = st.one_of(_NUMBERS, st.booleans(), st.none(), _STRINGS)
_FLAT = st.lists(st.one_of(_NUMBERS, st.booleans()))  # numbers, bools mixed in
_VALUES = st.recursive(
    st.one_of(_SCALARS, _FLAT, _FLAT.map(tuple), st.lists(st.one_of(_NUMBERS, _STRINGS))),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=20)


_INT64_ARRAYS = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=6).map(
    lambda xs: np.array(xs, dtype=np.int64))
_FLOAT_ARRAYS = st.lists(st.floats(), max_size=4).map(lambda xs: np.array(xs, dtype=float))
_ARRAY_DICTS = st.dictionaries(_STRINGS, st.one_of(
    _INT64_ARRAYS, _FLOAT_ARRAYS, _SCALARS,
    st.dictionaries(_STRINGS, _INT64_ARRAYS, max_size=3)), max_size=5)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    @example({"b": [1, 2.5, -0.0], "a": {}, "c": [], ", ": [True, 1], "é": [[1], (2, 3)]})
    @example([2 ** 64, -(2 ** 70), math.nan, math.inf, -math.inf, 5e-324, 1e300])
    @example([1, "x, y", None, 2.0])
    def test_matches_stdlib_indent(self, obj):
        assert _json_text(obj) == stdlib_json(obj)

    @settings(max_examples=40, deadline=None)
    @given(_ARRAY_DICTS)
    @example({"depth": np.array([], dtype=np.int64), "neg": np.array([-1, 0, -(2 ** 63)]),
              "f": np.array([0.1, -0.0, 1e300, math.nan, math.inf]),
              "d": {"x": np.array([10 ** 18, -9])}})
    def test_arrays_match_stdlib_of_lists(self, obj):
        # int64 arrays take the numpy writer, float arrays the stdlib path
        assert _json_text(obj) == stdlib_json(listed(obj))

    @pytest.mark.parametrize("argv", [
        ["metrics", "--family", "gw_size", "--n", "40", "--offspring", "geom:0.5",
         "--seed", "3"],
        ["spectrum", "--family", "cor15", "--n", "16", "--full"],
        ["bounds", "--family", "ssym_binary", "--n", "5"],
        ["mix", "--family", "segment", "--n", "6", "--start", "2"],
        ["bdchain", "--degrees", "2,3,3", "--n", "3"],
        ["sweep", "--family", "segment", "--sizes", "8,16"],
    ], ids=lambda argv: argv[0])
    def test_cli_output_is_stdlib_layout(self, argv, tmp_path, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == stdlib_json(json.loads(out)) + "\n"
        path = tmp_path / "out.json"
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
        assert path.read_text(encoding="ascii") == out


class TestTextFormat:
    @pytest.mark.parametrize("argv", [
        ["metrics", "--family", "gw_size", "--n", "40", "--offspring", "geom:0.5",
         "--seed", "3"],
        ["spectrum", "--family", "cor15", "--n", "16", "--full"],
        ["bounds", "--family", "ssym_binary", "--n", "5"],
        ["mix", "--family", "segment", "--n", "6", "--start", "2"],
        ["bdchain", "--degrees", "2,3,3", "--n", "3"],
    ], ids=lambda argv: argv[0])
    def test_one_line_per_key_nested_values_as_json(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        code, text, _ = run_cli(argv + ["--format", "text"], capsys)
        assert code == 0
        lines = text.splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == sorted(payload)
        for line in lines:
            key, value = line.split(" ", 1)
            if isinstance(payload[key], (dict, list)):
                assert value == json.dumps(payload[key], sort_keys=True)
            else:
                assert value == str(payload[key])
