import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(env, name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def run_script(env, name, *args):
    proc = run(env, name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name, args", [
    ("short_exact_slack.py", ["--instances", "5"]),
])
def test_script_runs(src_env, name, args):
    run_script(src_env, name, *args)


def test_short_exact_slack_reads_margins(src_env):
    # the margins come from CheckReport.decide; a count of 0 would mean the
    # margin path went unread
    out = run_script(src_env, "short_exact_slack.py", "--instances", "5")
    assert "instances: 5  degree checks with content: 3\n" in out


def test_short_exact_slack_reads_the_seed_variable_only_without_seed(src_env):
    env = dict(src_env, L2TOR_SEED="abc")
    out = run_script(env, "short_exact_slack.py", "--instances", "2", "--seed", "1")
    assert out.startswith("instances: 2  ")
    proc = run(env, "short_exact_slack.py", "--instances", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: L2TOR_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("args, message", [
    (["--instances", "-2", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["--instances", "0", "--seed", "0"], "--instances must be at least 1, got 0"),
    (["--max-dim", "0", "--seed", "0"], "--max-dim must be at least 1, got 0"),
])
def test_short_exact_slack_refuses_bad_sizes_and_seeds(src_env, args, message):
    proc = run(src_env, "short_exact_slack.py", *args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"
