import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(env, name, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
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
