import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scfold.cli import main
from scfold.errors import ConfigError
from scfold.scenarios import SCENARIOS, catalog, load_config


def test_catalog_lists_eight_scenarios():
    lines = [ln for ln in catalog().strip().split("\n") if ln]
    assert len(lines) == 8
    assert any(ln.startswith("stokes") for ln in lines)


def test_catalog_stable_across_calls():
    assert catalog() == catalog()


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "stokes" in out and "porkbarrel" in out


def test_unknown_scenario_rejected(tmp_path, capsys):
    code = main(["run", "bogus", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": "scenario-config/1", "bogus": 1}))
    code = main(["run", "stokes", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


def test_config_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        load_config("stokes", '{"schema": "scenario-config/1",\n "seed": }')


def test_unknown_param_rejected():
    with pytest.raises(ConfigError, match="unknown params"):
        load_config("germ", json.dumps(
            {"schema": "scenario-config/1", "params": {"nonsense": 3}}))


def test_seed_override_wins():
    params, seed = load_config(
        "germ", json.dumps({"schema": "scenario-config/1", "seed": 7}),
        seed_override=99)
    assert seed == 99


def test_run_stokes_writes_artifacts(tmp_path, capsys):
    code = main(["run", "stokes", "--out", str(tmp_path), "--quiet"])
    assert code == 0
    summary = json.loads((tmp_path / "stokes_summary.json").read_text())
    assert summary["scenario"] == "stokes"
    assert all(c["pass"] for c in summary["checks"])
    assert (tmp_path / "stokes_residuals.csv").exists()
    assert (tmp_path / "stokes_residuals.dat").exists()


def test_run_is_byte_deterministic(tmp_path):
    runs = [(name, "0") for name in SCENARIOS] + [("germ", "3")]
    for name, seed in runs:
        out1, out2 = tmp_path / f"{name}-{seed}-a", tmp_path / f"{name}-{seed}-b"
        for out in (out1, out2):
            assert main(["run", name, "--out", str(out), "--quiet",
                         "--seed", seed]) == 0
        files = sorted(f.name for f in out1.iterdir())
        assert files == sorted(f.name for f in out2.iterdir())
        for fname in files:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), \
                (name, seed, fname)


def test_run_quiet_suppresses_check_lines(tmp_path, capsys):
    main(["run", "germ", "--out", str(tmp_path), "--quiet"])
    out = capsys.readouterr().out
    assert "pass" not in out


def test_every_scenario_has_defaults():
    for name, (_, description, defaults) in SCENARIOS.items():
        assert description
        params, seed = load_config(name)
        assert params == defaults
        assert seed == 0


def test_scenarios_without_grid_work_never_load_scipy(tmp_path):
    # a fresh process: importing scfold and running the scenarios that do no
    # grid work must not pay for importing scipy
    script = (
        "import sys\n"
        "from scfold.cli import main\n"
        "for name in ('germ', 'stokes', 'groupoid', 'brokenpath'):\n"
        "    assert main(['run', name, '--seed', '0', '--quiet',\n"
        "                 '--out', sys.argv[1] + '/' + name]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
