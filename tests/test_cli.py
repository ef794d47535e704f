"""CLI: exit codes, determinism, run-record replay, claim registry."""
from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import mdslab
import mdslab.cli
import mdslab.products
import mdslab.spaces
import mdslab.sphere_spectral
from conftest import equilateral_triangle
from mdslab.cli import (
    CLAIMS,
    ConfigError,
    _build_parser,
    emit_table,
    parse_space,
    run,
)
from mdslab.mds_core import eigendecompose
from mdslab.spaces import (Sphere, Snowflake, Torus, finite_space_from_matrix, read_space_csv,
                           write_space_csv)
from mdslab.sphere_spectral import eigenvalue_quadrature


def fresh_python(code: str, cwd=None, src=None) -> str:
    """Stdout of ``code`` run in a new interpreter that imports the mdslab
    under ``src``, this one by default."""
    env = dict(os.environ)
    src = str(src or Path(mdslab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def registered_subparsers() -> dict:
    """Each ``"<group> <sub>"`` command mapped to its argument parser."""
    cmds = {}
    parser, _ = _build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            for group, sub in action.choices.items():
                for sub_action in sub._actions:
                    if hasattr(sub_action, "choices") and isinstance(sub_action.choices, dict):
                        for name, subparser in sub_action.choices.items():
                            cmds[f"{group} {name}"] = subparser
    return cmds


def parsed_flags(parse, argv: list[str]):
    """The flags ``run`` records for ``argv`` parsed by ``parse`` as sorted JSON,
    or the exit code of a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return exc.code
    flags = {k: v for k, v in vars(args).items() if k not in ("group", "sub", "func")}
    return json.dumps(flags, sort_keys=True)  # as the record hashes it, NaN included


@pytest.fixture(autouse=True)
def leaf_route_matches_full_tree(monkeypatch):
    """Every command a test here runs is parsed by its own parser; before it
    runs, the full parser tree must give the same flags, and so the same run
    record config, or fail with the same exit code."""
    parser, leaves = _build_parser()
    real_run = mdslab.cli.run

    def checked_run(argv):
        argv = list(argv)
        leaf = leaves.get(tuple(argv[:2]))
        if leaf is not None:
            by_leaf = parsed_flags(lambda a: leaf.parse_args(a[2:]), argv)
            assert by_leaf == parsed_flags(parser.parse_args, argv), argv
        return real_run(argv)

    monkeypatch.setattr(sys.modules[__name__], "run", checked_run)


def config_hash(config: dict, env: dict, inputs: tuple[str, ...] = ()) -> str:
    """A run record's hash: sha256 of the compact sorted config JSON, the compact
    sorted env JSON, then each input file's sha256, one per line."""
    text = "\n".join([json.dumps(part, sort_keys=True, separators=(",", ":"))
                      for part in (config, env)] + list(inputs))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_record(out: Path) -> dict:
    return json.loads(Path(f"{out}.run.json").read_text())


def command_flags(space: Path) -> dict[str, list[str]]:
    """Flags, ``--out`` aside, that run each command on the space CSV ``space``."""
    return {
        "space gen": ["--space", "circle", "--n", "8"],
        "mds embed": ["--input", str(space), "--m", "2"],
        "mds krein": ["--input", str(space)],
        "sphere eigen": ["--dim", "1", "--degree", "1", "--method", "quadrature"],
        "sphere asymptotics": ["--dim", "1", "--nmin", "2", "--nmax", "3"],
        "stability converge": ["--sizes", "8,16"],
        "product check": ["--factors", f"{space},{space}"],
        "torus check": ["--n", "8", "--k", "1", "--trunc", "3", "--pairs", "5"],
    }


class TestParseSpace:
    def test_basic_forms(self):
        assert parse_space("circle") == Sphere(1)
        assert parse_space("sphere:3") == Sphere(3)
        assert parse_space("torus:2") == Torus(2)
        assert parse_space("snowflake:circle:0.5") == Snowflake(Sphere(1), 0.5)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_space("klein_bottle")
        with pytest.raises(ConfigError):
            parse_space("circle@sideways")


class TestConfig:
    """A run's config is its parsed flags, and argv is its only source."""

    def test_round_trip(self, tmp_path, capsys):
        # every command's record config, as --key=value flags, reruns it with
        # the same config, config hash and result bytes
        space = tmp_path / "in.csv"
        assert run(["space", "gen", "--space", "circle", "--n", "6", "--out", str(space)]) == 0
        for command, flags in command_flags(space).items():
            out = tmp_path / f"{command.replace(' ', '_')}.csv"
            assert run([*command.split(), *flags, "--out", str(out)]) == 0
            record, table = read_record(out), out.read_bytes()
            replay = [f"--{key}={value}" for key, value in record["config"].items()
                      if key != "command" and value is not None]
            out.unlink()
            assert run([*command.split(), *replay]) == 0
            assert read_record(out)["config"] == record["config"], command
            assert read_record(out)["config_hash"] == record["config_hash"], command
            assert out.read_bytes() == table, command

    def test_hash_depends_on_content(self, tmp_path):
        out = tmp_path / "c.csv"
        hashes = []
        for n in ("8", "9", "8"):
            assert run(["space", "gen", "--space", "circle", "--n", n, "--out", str(out)]) == 0
            record = read_record(out)
            assert record["config"]["n"] == int(n)
            assert record["config_hash"] == config_hash(record["config"], record["env"])
            hashes.append(record["config_hash"])
        assert hashes[0] != hashes[1] and hashes[0] == hashes[2]

    def test_record_config_is_every_flag(self, tmp_path, capsys):
        space = tmp_path / "in.csv"
        assert run(["space", "gen", "--space", "circle", "--n", "6", "--out", str(space)]) == 0
        argv = command_flags(space)
        subparsers = registered_subparsers()
        assert set(argv) == set(subparsers)
        for command, subparser in subparsers.items():
            out = tmp_path / "out.csv"
            assert run([*command.split(), *argv[command], "--out", str(out)]) == 0
            config = read_record(out)["config"]
            dests = {action.dest for action in subparser._actions} - {"help"}
            assert set(config) == {"command"} | dests
            assert config["command"] == command
            assert config["out"] == str(out)
            if "seed" in dests:
                assert config["seed"] == 0

    def test_no_module_reads_the_environment(self):
        # a variable read from the environment would be a config input that
        # the record neither holds nor hashes
        found = []
        for path in sorted(Path(mdslab.__file__).resolve().parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = [alias.name for alias in node.names]
                else:
                    continue
                found += [(path.name, node.lineno) for name in names
                          if name in ("environ", "environb", "getenv", "getenvb")]
        assert found == []


class TestEmitTable:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_table(["a", "b"], [], str(path))
        assert path.read_bytes() == b"a,b\n"

    def test_deterministic_bytes(self, tmp_path):
        rows = [[1, 0.1 + 0.2], [2, math.pi]]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        emit_table(["i", "v"], rows, str(p1))
        emit_table(["i", "v"], rows, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert b"0.30000000000000004" in p1.read_bytes()

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_table(["a"], [[1, 2]], str(tmp_path / "bad.csv"))


class TestRun:
    def test_unknown_command_exit_2(self, capsys):
        assert run(["definitely", "not", "real"]) == 2
        assert run([]) == 2

    def test_one_parse_per_command(self, monkeypatch, capsys):
        # work-count guard: a command's flags go straight to its own parser,
        # where the full tree took three nested parse_known_args calls
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        argv = ["sphere", "eigen", "--dim", "2", "--degree", "3", "--method", "series"]
        assert mdslab.cli.run(argv) == 0
        assert calls == ["mdslab sphere eigen"]

    @pytest.mark.parametrize("argv, code, start", [
        ([], 2, "usage: mdslab [-h] [--version] {space,"),
        (["sphere"], 2, "usage: mdslab [-h] [--version] {space,"),
        (["sphere", "nope"], 2, "usage: mdslab sphere [-h] {eigen,asymptotics}"),
        (["nope", "eigen"], 2, "usage: mdslab [-h] [--version] {space,"),
        (["--version"], 0, "mdslab 0.1.0\n"),
        (["--help"], 0, "usage: mdslab [-h] [--version] {space,"),
        (["sphere", "eigen", "--help"], 0, "usage: mdslab sphere eigen [-h] --dim DIM"),
        (["sphere", "eigen"], 2, "usage: mdslab sphere eigen [-h] --dim DIM"),
    ])
    def test_usage_paths_keep_exit_codes_and_text(self, argv, code, start, capsys):
        parser, _ = _build_parser()
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert (out + err).startswith(start)
        if argv[:2] == ["sphere", "eigen"]:  # the leaf route prints what the tree printed
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            assert capsys.readouterr() == (out, err)

    def test_unrecognized_flag_prints_the_command_usage(self, capsys):
        argv = ["sphere", "eigen", "--dim", "2", "--degree", "3", "--method", "series", "--bogus"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mdslab sphere eigen [-h] --dim DIM")
        assert "mdslab sphere eigen: error: unrecognized arguments: --bogus" in err

    def test_console_entry_points(self):
        # ``python -m mdslab.cli`` and the ``mdslab`` script's ``main`` pass
        # ``run``'s exit code to the interpreter
        code = textwrap.dedent("""
            import json, runpy, sys
            codes = []
            sys.argv = ["mdslab", "--version"]
            try:
                runpy.run_module("mdslab.cli", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                codes.append(exc.code)
            from mdslab.cli import main
            sys.argv = ["mdslab", "definitely-not-a-command"]
            try:
                main()
            except SystemExit as exc:
                codes.append(exc.code)
            print(json.dumps(codes))
        """)
        assert fresh_python(code).splitlines() == ["mdslab 0.1.0", "[0, 2]"]

    def test_space_gen_and_embed(self, tmp_path, capsys):
        space_csv = tmp_path / "tri.csv"
        write_space_csv(equilateral_triangle(), str(space_csv))
        out = tmp_path / "emb.csv"
        code = run(["mds", "embed", "--input", str(space_csv), "--m", "2",
                    "--out", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()]
        assert rows[0] == ["coord_1", "coord_2"]
        pts = np.array([[float(v) for v in r] for r in rows[1:]])
        assert pts.shape == (3, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-9)

    def test_validation_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "asym.csv"
        bad.write_text("n,2\n0,1\n2,0\n0.5,0.5\n")
        code = run(["mds", "embed", "--input", str(bad), "--m", "1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "AsymmetricMatrix" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, bad):
        path = tmp_path / f"{bad}.csv"
        path.write_text(f"n,3\n0,1,{bad}\n1,0,1\n{bad},1,0\n0.25,0.25,0.5\n")
        code = run(["mds", "embed", "--input", str(path), "--m", "1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "NonFiniteValue" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, message", [
        ("0,1,nan\n1,0,1\nnan,1,0\n0.25,0.25,0.5", "NonFiniteValue: D[0,2]=nan is not finite"),
        ("0,1,1\n1,0,1\n1,1,0\n0.25,nan,0.5", "NonFiniteValue: w[1]=nan is not finite"),
        ("0,1,1\n2,0,1\n1,1,0\n0.25,0.25,0.5", "AsymmetricMatrix: D[0,1]=1.0 != D[1,0]=2.0"),
        ("0,1,1\n1,0.5,1\n1,1,0\n0.25,0.25,0.5", "NonzeroDiagonal: D[1,1]=0.5 must be 0"),
        ("0,-1,1\n-1,0,1\n1,1,0\n0.25,0.25,0.5", "NegativeDistance: D[0,1]=-1.0 is negative"),
        ("0,1,3\n1,0,1\n3,1,0\n0.25,0.25,0.5",
         "TriangleViolation: triangle inequality fails for (i=0, j=2, k=1): "
         "D[0,2]=3.0 > D[0,1] + D[1,2]=2.0"),
        ("0,1,1\n1,0,1\n1,1,0\n0.25,-0.25,1", "BadWeights: w[1]=-0.25 is negative"),
        ("0,1,1\n1,0,1\n1,1,0\n0.25,0.25,0.25", "BadWeights: weights sum to 0.75, expected 1"),
    ], ids=["nan_distance", "nan_weight", "asymmetric", "diagonal", "negative", "triangle",
            "negative_weight", "weight_sum"])
    def test_bad_input_messages_print_plain_floats(self, tmp_path, capsys, rows, message):
        # numpy 2 scalars print as np.float64(...) under repr: each value is a float first
        path = tmp_path / "bad.csv"
        path.write_text(f"n,3\n{rows}\n")
        code = run(["mds", "embed", "--input", str(path), "--m", "1",
                    "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2 and message in err and "np." not in err, err

    @pytest.mark.parametrize("text,error", [
        ("", "SpaceValidationError"),
        ("\n  \n", "SpaceValidationError"),
        ("n,2\n", "SpaceValidationError"),
        ("0,1\n1,0\n0.5,0.5\n", "SpaceValidationError"),
        ("n,3\n0,1,1\n1,0\n1,1,0\n0.25,0.25,0.5\n", "ValueError"),
        ("n,2\n# note\n0,1\n1,0\n0.5,0.5\n", "ValueError"),
        ("n,3\n0,1,1\n1,0,1\n1,1,0\n", "SpaceValidationError"),
    ], ids=["empty", "blank_only", "header_only", "headerless", "ragged_row", "comment_line",
            "rows_short_of_header"])
    def test_malformed_space_file_exit_2(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        code = run(["mds", "embed", "--input", str(path), "--m", "1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {error}: " in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command", ["space gen", "mds embed", "mds krein",
                                         "stability converge"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command, target):
        space_csv = tmp_path / "tri.csv"
        write_space_csv(equilateral_triangle(), str(space_csv))
        argv = {
            "space gen": ["space", "gen", "--space", "circle", "--n", "8"],
            "mds embed": ["mds", "embed", "--input", str(space_csv), "--m", "2"],
            "mds krein": ["mds", "krein", "--input", str(space_csv)],
            "stability converge": ["stability", "converge", "--sizes", "8,16"],
        }[command]
        out = tmp_path / "missing" / "x.csv" if target == "missing_dir" else tmp_path
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("FileNotFoundError" if target == "missing_dir" else "IsADirectoryError") in err

    def test_unwritable_run_record_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.run.json").mkdir()
        assert run(["space", "gen", "--space", "circle", "--n", "8", "--out", str(out)]) == 2
        assert "IsADirectoryError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,error", [
        (["sphere", "asymptotics", "--dim", "1", "--nmin", "0", "--nmax", "3"], "ConfigError"),
        (["sphere", "asymptotics", "--dim", "1", "--nmin", "5", "--nmax", "3"], "ConfigError"),
        # n^(d+1) lambda_(2n+1) is past the float range from n = 15; the suite
        # turns numpy's overflow warning into an error, so none may escape
        (["sphere", "asymptotics", "--dim", "300", "--nmin", "5", "--nmax", "160"],
         "ValueError: 15^301 lambda_31 of S^300 (n = 15) is above the largest float"),
        (["torus", "check", "--n", "16", "--k", "0", "--trunc", "3"], "ConfigError"),
        (["torus", "check", "--n", "16", "--k", "1", "--trunc", "3", "--pairs", "0"],
         "ConfigError"),
        (["torus", "check", "--n", "16", "--k", "1", "--trunc", "4"], "ConfigError"),
        (["space", "gen", "--space", "circle:3", "--n", "8"],
         "ConfigError: trailing tokens in space spec 'circle:3'"),
        (["space", "gen", "--space", "circle", "--n", "0"],
         "ValueError: sample size must be >= 1, got 0"),
        (["sphere", "eigen", "--dim", "2", "--degree", "3", "--method", "series",
          "--kind", "snowflake"], "ConfigError: the series evaluator covers the full kernel only"),
        (["sphere", "eigen", "--dim", "2", "--degree", "3", "--method", "quadrature",
          "--tol", "1e-3"], "ConfigError: --tol sets the series stop only"),
        (["product", "check", "--factors", "one.csv"],
         "ConfigError: product check needs exactly two factor files"),
        (["mds", "embed", "--input", "one.csv", "--m", "0"],
         "DimensionMismatch: embedding dimension must be >= 1, got 0"),
    ], ids=["nmin_zero", "nmin_above_nmax", "normalized_overflow", "k_zero", "pairs_zero",
            "trunc_even", "trailing_space_tokens", "n_zero", "series_snowflake",
            "quadrature_tol", "one_factor", "m_zero"])
    def test_out_of_range_exit_2(self, tmp_path, capsys, monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        write_space_csv(equilateral_triangle(), "one.csv")  # a real input, hashed before the run
        assert run(argv + ["--out", "x.csv"]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_sphere_eigen_prints_fourier_value(self, capsys):
        assert run(["sphere", "eigen", "--dim", "1", "--degree", "1",
                    "--method", "quadrature"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-9)

    def test_series_tolerance_failure_exit_3(self, capsys):
        # the degree-10001 summand on S^1 peaks past SERIES_TERM_BUDGET terms, so no
        # block ends past the peak and the budget runs out
        code = run(["sphere", "eigen", "--dim", "1", "--degree", "10001",
                    "--method", "series"])
        assert code == 3
        assert "ToleranceNotReached" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("command", [["mds", "krein"], ["mds", "embed", "--m", "2"]],
                             ids=["krein", "embed"])
    def test_overflowing_kernel_exit_3(self, tmp_path, capsys, command, n):
        # d^2 = 1e310 overflows the kernel; the suite turns any RuntimeWarning
        # into an error, so this also checks that none escapes
        space_csv = tmp_path / "far.csv"
        write_space_csv(finite_space_from_matrix(1e155 * (1.0 - np.eye(n)), np.full(n, 1.0 / n)),
                        str(space_csv))
        out = tmp_path / "x.csv"
        assert run(command + ["--input", str(space_csv), "--out", str(out)]) == 3
        assert ("numerical failure: NoConvergence: the kernel overflows: squared distance "
                "D[0,1]^2 with D[0,1]=1e+155 is past the float range") in capsys.readouterr().err
        assert not out.exists() and not Path(f"{out}.run.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_series_tolerance_exit_2(self, capsys, tol):
        # nan never compares as settled and inf settles at once: both are bad input
        assert run(["sphere", "eigen", "--dim", "2", "--degree", "3",
                    "--method", "series", "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert f"ValueError: tolerance must be positive and finite, got {tol}" in err

    def test_quadrature_degree_above_node_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # degree 1025 starts at a 2050-node rule and compares it with a
        # 4100-node one, past QUAD_MAX_NODES: refused before any rule is built
        built = []
        monkeypatch.setattr(mdslab.sphere_spectral, "_gauss_legendre", built.append)
        out = tmp_path / "eig.csv"
        start = time.perf_counter()
        code = run(["sphere", "eigen", "--dim", "2", "--degree", "1025",
                    "--method", "quadrature", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and built == [] and not out.exists()
        assert "ValueError: degree 1025 needs a 4100-node quadrature rule" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["full", "snowflake"])
    def test_quadrature_high_dimension_exit_0(self, capsys, kind):
        # the zonal recurrence stays in [-1, 1]: no C_j^nu(1) to overflow at d = 400;
        # the first doubling settles, so the command builds two rules, of 2,000
        # and 4,000 nodes
        mdslab.sphere_spectral._gauss_legendre.cache_clear()
        assert run(["sphere", "eigen", "--dim", "400", "--degree", "1000",
                    "--method", "quadrature", "--kind", kind]) == 0
        assert "error" not in capsys.readouterr().err
        assert mdslab.sphere_spectral._gauss_legendre.cache_info().misses == 2

    def test_space_gen_krein_roundtrip(self, tmp_path, capsys, monkeypatch):
        space_csv = tmp_path / "circle.csv"
        assert run(["space", "gen", "--space", "circle", "--n", "12",
                    "--out", str(space_csv)]) == 0
        fs = read_space_csv(str(space_csv))
        assert fs.n == 12
        negatives = eigendecompose(mdslab.cli.double_center(fs)).negative_count
        assert negatives > 0

        def unused(result):
            raise AssertionError("the negative count needs no negative embedding")

        monkeypatch.setattr(mdslab.cli, "embed_negative", unused)
        capsys.readouterr()
        out = tmp_path / "krein.csv"
        assert run(["mds", "krein", "--input", str(space_csv), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "max |reconstructed - d^2|" in printed
        assert printed.rstrip().endswith(f"negative part dimension {negatives}")

    def test_run_record_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "1", "--nmin", "2",
                    "--nmax", "5", "--out", str(out)]) == 0
        record = json.loads((tmp_path / "scan.csv.run.json").read_text())
        assert record["claim"] == CLAIMS["sphere asymptotics"]
        assert record["version"]
        assert record["result_path"] == str(out)
        assert len(record["config_hash"]) == 64
        # no input file: the hash is the config's and the environment's own
        assert record["input_sha256"] == []
        assert record["config_hash"] == config_hash(record["config"], record["env"])
        assert record["result_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert record["env"]["numpy"] == np.__version__
        assert all(isinstance(n, int) and n >= 1 for n in record["env"]["blas_threads"].values())

    def test_config_hash_covers_package_source(self, tmp_path):
        # With the same flags, two package copies one source byte apart get
        # different hashes, and a byte-identical copy elsewhere gets the same.
        package = Path(mdslab.__file__).resolve().parent
        hashes = []
        for name, extra in (("this", None), ("copy", b""), ("edited", b"#")):
            cwd = tmp_path / name
            cwd.mkdir()
            src = None
            if extra is not None:
                src = tmp_path / f"{name}_src"
                shutil.copytree(package, src / "mdslab",
                                ignore=shutil.ignore_patterns("__pycache__"))
                init = src / "mdslab" / "__init__.py"
                init.write_bytes(init.read_bytes() + extra)
            fresh_python(textwrap.dedent("""
                from mdslab.cli import run
                assert run(["sphere", "asymptotics", "--dim", "3", "--nmin", "5",
                            "--nmax", "160", "--out", "a.csv"]) == 0
            """), cwd=cwd, src=src)
            record = read_record(cwd / "a.csv")
            assert record["config_hash"] == config_hash(record["config"], record["env"])
            hashes.append(record["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

    def test_equal_hashes_mean_equal_bytes_across_blas_threads(self, tmp_path):
        # A 300-point eigensolve differs in its last bits between one and two
        # OpenBLAS threads; a hash that left the thread count out matched across
        # the two runs while the result bytes did not.
        assert run(["space", "gen", "--space", "sphere:2", "--mode", "random", "--n", "300",
                    "--out", str(tmp_path / "s.csv")]) == 0
        results = []
        for threads in (1, 2):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            fresh_python(textwrap.dedent(f"""
                import os
                os.environ["OPENBLAS_NUM_THREADS"] = "{threads}"
                from mdslab.cli import run
                assert run(["mds", "embed", "--input", "../s.csv", "--m", "3",
                            "--out", "embed.csv"]) == 0
                assert run(["mds", "krein", "--input", "../s.csv", "--out", "krein.csv"]) == 0
            """), cwd=cwd)
            results.append({name: (read_record(cwd / name)["config_hash"], (cwd / name).read_bytes())
                            for name in ("embed.csv", "krein.csv")})
        for name in ("embed.csv", "krein.csv"):
            (hash1, table1), (hash2, table2) = results[0][name], results[1][name]
            assert hash1 != hash2 or table1 == table2, name

    @pytest.mark.parametrize("command", ["mds embed", "mds krein", "product check"])
    def test_config_hash_covers_input_contents(self, tmp_path, command):
        # same flags, input file regenerated between runs
        space = tmp_path / "in.csv"
        out = tmp_path / "e.csv"
        argv = {
            "mds embed": ["mds", "embed", "--input", str(space), "--m", "2"],
            "mds krein": ["mds", "krein", "--input", str(space)],
            "product check": ["product", "check", "--factors", f"{space},{space}"],
        }[command] + ["--out", str(out)]
        records, tables = [], []
        for n in (8, 9, 8):
            assert run(["space", "gen", "--space", "circle", "--n", str(n),
                        "--out", str(space)]) == 0
            assert run(argv) == 0
            records.append(json.loads((tmp_path / "e.csv.run.json").read_text()))
            tables.append(out.read_bytes())
        assert tables[0] != tables[1] and tables[0] == tables[2]
        assert records[0]["config_hash"] != records[1]["config_hash"]
        assert records[0]["config_hash"] == records[2]["config_hash"]
        for record, table in zip(records, tables):
            assert record["result_sha256"] == hashlib.sha256(table).hexdigest()
        inputs = 2 if command == "product check" else 1
        assert records[2]["input_sha256"] == [hashlib.sha256(space.read_bytes()).hexdigest()] * inputs

    def test_asymptotics_lambda_is_ground_truth(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "3", "--nmin", "5", "--nmax", "8",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        for n, lam, normalized in rows:
            assert lam == pytest.approx(eigenvalue_quadrature(3, 2 * int(n) + 1), rel=1e-12)
            assert normalized == pytest.approx(lam * n**4, rel=1e-15)

    def test_asymptotics_normalized_finite_at_high_dim(self, tmp_path, capsys):
        # n^(d+1) alone overflows here (160^151 > 1e308)
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "150", "--nmin", "5", "--nmax", "160",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows)) and np.all(rows[:, 1:] > 0.0)
        ratio = float(capsys.readouterr().out.rsplit(" ", 1)[1])
        assert math.isfinite(ratio)
        assert ratio == pytest.approx(rows[:, 2].max() / rows[:, 2].min(), rel=1e-15)

    def test_asymptotics_underflowed_lambda_exit_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "189", "--nmin", "1679", "--nmax", "1680",
                    "--out", str(out)]) == 2
        assert "ValueError: lambda_3359 of S^189 (n = 1679)" in capsys.readouterr().err
        assert not out.exists()

    def test_asymptotics_above_dimension_189_exit_0(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "400", "--nmin", "1", "--nmax", "5",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (5, 3) and np.all(rows[:, 1:] > 0.0)

    def test_asymptotics_dimension_above_1000_exit_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "1001", "--nmin", "1", "--nmax", "5",
                    "--out", str(out)]) == 2
        assert "ValueError: the closed form covers sphere dimensions 1..1000" in capsys.readouterr().err
        assert not out.exists()

    def test_product_check(self, tmp_path, capsys):
        tri_csv = tmp_path / "tri.csv"
        write_space_csv(equilateral_triangle(), str(tri_csv))
        out = tmp_path / "prod.csv"
        code = run(["product", "check", "--factors", f"{tri_csv},{tri_csv}",
                    "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "spectrum merge max error" in text

    def test_product_check_decomposes_each_space_once(self, tmp_path, monkeypatch, capsys):
        sizes = []

        def counting(op):
            sizes.append(op.n)
            return eigendecompose(op)

        for module in (mdslab.cli, mdslab.products):
            monkeypatch.setattr(module, "eigendecompose", counting)
        paths = [tmp_path / "c6.csv", tmp_path / "c5.csv"]
        for n, path in zip((6, 5), paths):
            assert run(["space", "gen", "--space", "circle", "--n", str(n),
                        "--out", str(path)]) == 0
        assert run(["product", "check", "--factors", f"{paths[0]},{paths[1]}",
                    "--out", str(tmp_path / "prod.csv")]) == 0
        assert sizes == [6, 5, 30]

    def test_torus_check_cli(self, tmp_path, capsys):
        code = run(["torus", "check", "--n", "32", "--k", "2", "--trunc", "15",
                    "--pairs", "50", "--seed", "1"])
        assert code == 0
        assert "torus identity max error" in capsys.readouterr().out

    def test_torus_check_zero_points_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["torus", "check", "--n", "0", "--k", "1", "--trunc", "3",
                    "--out", str(out)]) == 2
        assert "n_per_factor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_torus_check_tiny_grids_exit_0(self, tmp_path, n):
        # the one-point grid has no positive eigenvalue; two points are exact
        out = tmp_path / "t.csv"
        assert run(["torus", "check", "--n", n, "--k", "1", "--trunc", "3",
                    "--out", str(out)]) == 0
        assert float(np.loadtxt(out, delimiter=",", skiprows=1)[4]) <= 1e-12

    def test_converge_large_grids_shrink_fourfold(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert run(["stability", "converge", "--sizes", "1024,2048,4096",
                    "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "n,aligned_L2,gw2_images,w4,hs_gap_bound_lhs,hs_gap_bound_rhs"
        aligned = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        ratios = aligned[:-1] / aligned[1:]
        assert np.all((3.9 <= ratios) & (ratios <= 4.1)), ratios

    @pytest.mark.parametrize("key,value", [("p", 2.0), ("tol", 1e-6), ("seed", 5)])
    def test_converge_config_rejects_unused_keys(self, tmp_path, capsys, key, value):
        # keys the sweep has no flag for, such as those of older records, are unknown flags
        out = tmp_path / "conv.csv"
        assert run(["stability", "converge", "--sizes", "8,16", "--out", str(out),
                    f"--{key}={value}"]) == 2
        assert f"unrecognized arguments: --{key}={value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["stability", "converge", "--ref", "2", "--sizes", "8,16"],
        ["sphere", "eigen", "--dim", "2", "--deg", "3", "--meth", "series"],
    ], ids=["stability_converge", "sphere_eigen"])
    def test_shortened_flag_rejected(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert not (tmp_path / "converge.csv").exists()

    def test_converge_torus_sizes_need_not_nest(self, tmp_path):
        out = tmp_path / "torus.csv"
        assert run(["stability", "converge", "--space", "torus:2", "--sizes", "6,8",
                    "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == [6, 8] and np.all(np.isfinite(rows[:, 1:3]))

    def test_converge_m_below_one_exit_2(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert run(["stability", "converge", "--sizes", "8", "--m", "0", "--out", str(out)]) == 2
        assert "DimensionMismatch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("space", ["circle", "torus:2"])
    @pytest.mark.parametrize("refine", ["0", "-1"])
    def test_converge_refine_below_one_exit_2(self, tmp_path, capsys, space, refine):
        out = tmp_path / "conv.csv"
        assert run(["stability", "converge", "--space", space, "--sizes", "4,8",
                    "--refine", refine, "--out", str(out)]) == 2
        assert f"refine must be >= 1, got {refine}" in capsys.readouterr().err
        assert not out.exists()

    def test_torus_refine_sets_bound_columns(self, tmp_path):
        # --refine moves only the kernel-gap columns of torus rows
        tables = []
        for refine in ("2", "4"):
            out = tmp_path / f"conv{refine}.csv"
            assert run(["stability", "converge", "--space", "torus:2", "--sizes", "4,8",
                        "--refine", refine, "--out", str(out)]) == 0
            tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
        a, b = tables
        assert np.array_equal(a[:, :4], b[:, :4])  # n, aligned_L2, gw2_images, w4
        assert np.all(a[:, 4:] != b[:, 4:])  # hs_gap_bound_lhs, hs_gap_bound_rhs
        assert np.all(np.isfinite(a)) and np.all(a[:, 4] <= a[:, 5])

    @pytest.mark.parametrize("space,sizes,named", [
        ("circle", "8,8", "grid size 8 is repeated"),
        ("circle", "1,4", "grid size 1 gives 1 points"),
        ("circle", "2,16", "grid size 2 gives 2 points"),
        ("torus:2", "4,4", "grid size 4 is repeated"),
        ("torus:2", "1,2", "grid size 1 gives 1 points"),
        ("torus:2", "2,8", "grid size 2 gives 4 points"),
        ("torus:3", "2", "grid size 2 gives 8 points"),
    ])
    def test_converge_degenerate_sizes_exit_2(self, tmp_path, capsys, space, sizes, named):
        # a repeated size would write its row twice; below n = 2 (m // k) - 1
        # the top m // k circle eigenvalues are not whole positive pairs, so
        # the embedding is zero-padded or cut inside a block
        out = tmp_path / "conv.csv"
        assert run(["stability", "converge", "--space", space, "--sizes", sizes,
                    "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_converge_sizes_below_block_rule_exit_2(self, tmp_path, capsys):
        # m = 4 needs the degree-3 pair whole: n >= 7. Sizes 5 and 6 have
        # more than m points, and their rows (aligned_L2 0.475, 0.085, then
        # 0.166 at n = 7) were not monotone.
        out = tmp_path / "conv.csv"
        for sizes, n in (("5,6,7", 5), ("6,7", 6)):
            assert run(["stability", "converge", "--sizes", sizes, "--m", "4",
                        "--out", str(out)]) == 2
            assert (f"grid size {n} gives {n} points, but m = 4 needs n >= 7"
                    in capsys.readouterr().err)
            assert not out.exists()
        assert run(["stability", "converge", "--sizes", "7,14", "--m", "4",
                    "--out", str(out)]) == 0

    def test_converge_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # numpy's MemoryError (an allocation too large for the machine) is
        # a usage error, not a traceback
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array with shape "
                              "(16384, 16384) and data type float64")

        monkeypatch.setattr(mdslab.cli, "convergence_experiment", too_large)
        out = tmp_path / "conv.csv"
        assert run(["stability", "converge", "--space", "torus:2", "--sizes", "128",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: MemoryError: Unable to allocate 2.00 GiB")
        assert not out.exists() and not Path(f"{out}.run.json").exists()

    @pytest.mark.parametrize("argv", [
        ["stability", "converge", "--space", "circle@random", "--sizes", "16,32"],
        ["space", "gen", "--space", "circle@random", "--n", "8"],
    ], ids=["stability_converge", "space_gen"])
    def test_random_suffix_rejected(self, tmp_path, capsys, argv):
        # random sampling is asked for with ``space gen --mode random`` only
        out = tmp_path / "x.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    def test_input_hashed_before_run(self, tmp_path, capsys):
        space = tmp_path / "s.csv"
        assert run(["space", "gen", "--space", "circle", "--n", "8", "--out", str(space)]) == 0
        read = hashlib.sha256(space.read_bytes()).hexdigest()
        assert run(["mds", "embed", "--input", str(space), "--m", "2", "--out", str(space)]) == 0
        record = read_record(space)
        assert record["input_sha256"] == [read]
        assert record["config_hash"] == config_hash(record["config"], record["env"], (read,))
        assert record["result_sha256"] == hashlib.sha256(space.read_bytes()).hexdigest() != read

    def test_cached_parser_keeps_no_state_between_runs(self, capsys):
        base = ["sphere", "eigen", "--dim", "1", "--degree", "1", "--method", "quadrature"]
        assert run(base + ["--kind", "snowflake"]) == 0
        snow = float(capsys.readouterr().out)
        assert run(base) == 0
        full = float(capsys.readouterr().out)
        assert snow == pytest.approx(1.0 / math.pi, abs=1e-9)
        assert full == pytest.approx(1.0, abs=1e-9)
        assert run(["sphere", "eigen", "--dim", "1"]) == 2
        capsys.readouterr()
        assert run(base + ["--kind", "snowflake", "--help"]) == 0
        capsys.readouterr()
        assert run(base) == 0
        assert float(capsys.readouterr().out) == full

    def test_refine_in_config_hash(self, tmp_path):
        out = tmp_path / "conv.csv"
        hashes, tables = [], []
        for refine in ("2", "4"):
            assert run(["stability", "converge", "--sizes", "16,32", "--refine", refine,
                        "--out", str(out)]) == 0
            record = json.loads((tmp_path / "conv.csv.run.json").read_text())
            assert record["config"]["refine"] == int(refine)
            hashes.append(record["config_hash"])
            tables.append(out.read_bytes())
        assert tables[0] != tables[1]
        assert hashes[0] != hashes[1]

    def test_import_leaves_validation_scipy_unloaded(self):
        # The exact triangle check imports scipy.spatial on first use;
        # importing the CLI must not pay for it, nor for csgraph.
        code = ("import sys, mdslab.cli; "
                "print([m in sys.modules for m in ('scipy.spatial', 'scipy.sparse.csgraph')])")
        assert fresh_python(code).strip() == "[False, False]"

    def test_scipy_special_loaded_only_by_validation(self, tmp_path):
        # No sphere command loads scipy.special, at even d and by the series
        # included. mds embed does, through scipy.spatial.distance in the
        # exact triangle check of its input file, which also loads scipy.sparse.
        code = textwrap.dedent("""
            import json, sys
            from mdslab.cli import run
            seen = lambda: ["scipy.special" in sys.modules, "scipy.sparse" in sys.modules]
            out = [seen()]
            for argv in (
                ["space", "gen", "--space", "circle", "--n", "8", "--out", "c.csv"],
                ["sphere", "eigen", "--dim", "2", "--degree", "3", "--method", "series"],
                ["sphere", "asymptotics", "--dim", "2", "--nmin", "1", "--nmax", "20",
                 "--out", "a2.csv"],
                ["mds", "embed", "--input", "c.csv", "--m", "2", "--out", "e.csv"],
            ):
                assert run(argv) == 0
                out.append(seen())
            print(json.dumps(out))
        """)
        seen = json.loads(fresh_python(code, cwd=tmp_path).splitlines()[-1])
        assert seen == [[False, False]] * 4 + [[True, True]]

    def test_only_scipy_import_is_the_triangle_check(self):
        # every other module and function runs on numpy and the standard library
        found = []

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Import):
                    modules = [alias.name for alias in child.names]
                else:
                    modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
                if any(m.split(".")[0] == "scipy" for m in modules):
                    found.append(where)
                is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                visit(child, (where[0], child.name) if is_def else where)

        for path in sorted(Path(mdslab.__file__).resolve().parent.rglob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), (path.name, None))
        assert found == [("spaces.py", "_check_triangle")]

    def test_circle_torus_and_odd_asymptotics_load_no_scipy(self, tmp_path):
        # At odd d the closed form is a factorial over a finite product, at
        # even d a quotient of Python integers, so the circle and torus limit
        # maps and the scans at either parity load no scipy.
        code = textwrap.dedent("""
            import json, sys
            from mdslab.cli import run
            scipy = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            for argv in (
                ["space", "gen", "--space", "circle", "--n", "8", "--out", "c.csv"],
                ["stability", "converge", "--sizes", "8,16", "--out", "conv.csv"],
                ["stability", "converge", "--space", "torus:2", "--sizes", "4,8",
                 "--out", "torus.csv"],
                ["torus", "check", "--n", "8", "--k", "2", "--trunc", "3", "--pairs", "5"],
                ["sphere", "asymptotics", "--dim", "3", "--nmin", "1", "--nmax", "20",
                 "--out", "a3.csv"],
            ):
                assert run(argv) == 0
            out = [scipy()]
            assert run(["sphere", "asymptotics", "--dim", "2", "--nmin", "1", "--nmax", "20",
                        "--out", "a2.csv"]) == 0
            out.append(scipy())
            print(json.dumps(out))
        """)
        seen = json.loads(fresh_python(code, cwd=tmp_path).splitlines()[-1])
        assert seen == [[], []]

    def test_quadrature_eigen_loads_no_scipy(self, tmp_path):
        # both oracles and the snowflake identity are plain floats at every d
        code = textwrap.dedent("""
            import json, sys
            import numpy as np
            from mdslab.cli import run
            from mdslab.sphere_spectral import snowflake_identity_error
            codes = [run(["sphere", "eigen", "--dim", d, "--degree", "5", "--method",
                          method, "--out", f"{method}{d}.csv"])
                     for d in ("2", "3") for method in ("quadrature", "series")]
            pts = np.random.default_rng(0).standard_normal((5, 2, 3))
            pts /= np.linalg.norm(pts, axis=2, keepdims=True)
            assert snowflake_identity_error(2, 99, [(p[0], p[1]) for p in pts]) <= 0.05
            print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
        """)
        assert json.loads(fresh_python(code, cwd=tmp_path).splitlines()[-1]) == [[0] * 4, []]

    def test_default_torus_sweep_runs_without_scipy(self, tmp_path):
        # Every row decomposes one n-point circle grid, so the default sizes
        # up to 512 (262,144 torus points) finish.
        code = textwrap.dedent("""
            import json, sys, time
            from mdslab.cli import run
            start = time.perf_counter()
            code = run(["stability", "converge", "--space", "torus:2", "--out", "torus.csv"])
            scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
            print(json.dumps([code, time.perf_counter() - start, scipy]))
        """)
        code, seconds, scipy = json.loads(fresh_python(code, cwd=tmp_path).splitlines()[-1])
        assert code == 0 and scipy == []
        rows = np.loadtxt(tmp_path / "torus.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == [16, 32, 64, 128, 256, 512]
        assert np.all(rows[:-1, 1] > rows[1:, 1]) and np.all(rows[:, 4] <= rows[:, 5])
        assert seconds < 10.0

    @pytest.mark.parametrize("argv,calls", [
        (["space", "gen", "--space", "circle", "--n", "8", "--out", "g.csv"], 0),
        (["stability", "converge", "--sizes", "8,16", "--out", "conv.csv"], 0),
        (["torus", "check", "--n", "8", "--k", "2", "--trunc", "3", "--pairs", "5"], 0),
        (["mds", "embed", "--input", "c.csv", "--m", "2", "--out", "e.csv"], 1),
        (["product", "check", "--factors", "c.csv,c.csv", "--out", "p.csv"], 2),
    ], ids=["space_gen", "stability_converge", "torus_check", "mds_embed", "product_check"])
    def test_exact_check_runs_on_external_input_only(self, tmp_path, monkeypatch, argv, calls):
        # Spaces that are metrics by construction are never re-checked; each
        # space file read is checked once.
        monkeypatch.chdir(tmp_path)
        write_space_csv(equilateral_triangle(), "c.csv")
        calls_seen = []
        check = mdslab.spaces._check_triangle

        def counted(D, tol):
            calls_seen.append(D.shape)
            check(D, tol)

        monkeypatch.setattr(mdslab.spaces, "_check_triangle", counted)
        assert run(argv) == 0
        assert len(calls_seen) == calls


class TestDeterminismAndClaims:
    def test_repeat_runs_byte_identical(self, tmp_path):
        for trial in ("one", "two"):
            out = tmp_path / f"{trial}.csv"
            assert run(["space", "gen", "--space", "circle", "--n", "10",
                        "--out", str(out)]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_claim_registry_complete(self):
        assert set(registered_subparsers()) == set(CLAIMS)
        for claim in CLAIMS.values():
            assert len(claim) > 20
