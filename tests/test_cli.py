"""CLI: exit codes, determinism, config round-trip, claim registry."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdslab
from conftest import equilateral_triangle
from mdslab.cli import (
    CLAIMS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    emit_table,
    parse_space,
    run,
)
from mdslab.spaces import Sphere, Snowflake, Torus, read_space_csv, write_space_csv


def registered_subcommands() -> set[str]:
    cmds = set()
    parser = _build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            for group, sub in action.choices.items():
                for sub_action in sub._actions:
                    if hasattr(sub_action, "choices") and isinstance(sub_action.choices, dict):
                        for name in sub_action.choices:
                            cmds.add(f"{group} {name}")
    return cmds


class TestParseSpace:
    def test_basic_forms(self):
        assert parse_space("circle") == (Sphere(1), "grid")
        assert parse_space("sphere:3") == (Sphere(3), "grid")
        assert parse_space("torus:2") == (Torus(2), "grid")
        space, mode = parse_space("snowflake:circle:0.5")
        assert space == Snowflake(Sphere(1), 0.5)
        assert mode == "grid"
        assert parse_space("circle@random")[1] == "uniform_random"

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_space("klein_bottle")
        with pytest.raises(ConfigError):
            parse_space("circle@sideways")


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(command="stability converge", space="circle",
                               sizes=(16, 32), m=2, out="t.csv")
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.config_hash == cfg.config_hash

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"command": "x", "banana": 1})

    def test_hash_depends_on_content(self):
        a = ExperimentConfig(command="space gen", space="circle", sizes=(8,))
        b = ExperimentConfig(command="space gen", space="circle", sizes=(9,))
        assert a.config_hash != b.config_hash


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

    def test_sphere_eigen_prints_fourier_value(self, capsys):
        assert run(["sphere", "eigen", "--dim", "1", "--degree", "1",
                    "--method", "quadrature"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-9)

    def test_series_tolerance_failure_exit_3(self, capsys):
        code = run(["sphere", "eigen", "--dim", "1", "--degree", "1",
                    "--method", "series", "--tol", "1e-30"])
        assert code == 3
        assert "ToleranceNotReached" in capsys.readouterr().err

    def test_space_gen_krein_roundtrip(self, tmp_path, capsys):
        space_csv = tmp_path / "circle.csv"
        assert run(["space", "gen", "--space", "circle", "--n", "12",
                    "--out", str(space_csv)]) == 0
        fs = read_space_csv(str(space_csv))
        assert fs.n == 12
        out = tmp_path / "krein.csv"
        assert run(["mds", "krein", "--input", str(space_csv), "--out", str(out)]) == 0
        assert "max |reconstructed - d^2|" in capsys.readouterr().out

    def test_run_record_written(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["sphere", "asymptotics", "--dim", "1", "--nmin", "2",
                    "--nmax", "5", "--out", str(out)]) == 0
        record = json.loads((tmp_path / "scan.csv.run.json").read_text())
        assert record["version"]
        assert record["result_path"] == str(out)
        assert len(record["config_hash"]) == 64

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("MDSLAB_SEED", "77")
        assert run(["space", "gen", "--space", "sphere:2", "--n", "6",
                    "--mode", "random", "--out", str(a)]) == 0
        monkeypatch.delenv("MDSLAB_SEED")
        assert run(["space", "gen", "--space", "sphere:2", "--n", "6",
                    "--mode", "random", "--seed", "77", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_product_check(self, tmp_path, capsys):
        tri_csv = tmp_path / "tri.csv"
        write_space_csv(equilateral_triangle(), str(tri_csv))
        out = tmp_path / "prod.csv"
        code = run(["product", "check", "--factors", f"{tri_csv},{tri_csv}",
                    "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "spectrum merge max error" in text

    def test_torus_check_cli(self, tmp_path, capsys):
        code = run(["torus", "check", "--n", "32", "--k", "2", "--trunc", "15",
                    "--pairs", "50", "--seed", "1"])
        assert code == 0
        assert "torus identity max error" in capsys.readouterr().out

    def test_converge_with_config_file(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = ExperimentConfig(command="stability converge", space="circle",
                               sizes=(8, 16), m=2, out=str(out))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert run(["stability", "converge", "--config", str(cfg_path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,aligned_L2,gw2_images,w4,hs_gap_bound_lhs,hs_gap_bound_rhs"
        assert len(lines) == 3

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

    def test_import_leaves_csgraph_unloaded(self):
        # The exact triangle check imports scipy.sparse.csgraph on first use;
        # importing the CLI must not pay for it.
        env = dict(os.environ)
        src = str(Path(mdslab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, mdslab.cli; print('scipy.sparse.csgraph' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestDeterminismAndClaims:
    def test_repeat_runs_byte_identical(self, tmp_path):
        for trial in ("one", "two"):
            out = tmp_path / f"{trial}.csv"
            assert run(["space", "gen", "--space", "circle", "--n", "10",
                        "--out", str(out)]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_claim_registry_complete(self):
        assert registered_subcommands() == set(CLAIMS)
        for claim in CLAIMS.values():
            assert len(claim) > 20
