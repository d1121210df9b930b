import os
from pathlib import Path

import hypothesis
import pytest

ROOT = Path(__file__).resolve().parents[1]

hypothesis.settings.register_profile(
    "ci", max_examples=60, derandomize=True, deadline=None
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports l2tor from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
