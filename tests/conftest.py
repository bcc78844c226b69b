import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2forge.aw import standard_aw_frame
from g2forge.g2 import standard_frame


@pytest.fixture(scope="session")
def g2frame():
    return standard_frame()


@pytest.fixture(scope="session")
def awframe():
    return standard_aw_frame()


@pytest.fixture
def fresh_python(tmp_path):
    """Run Python source in a fresh interpreter with the package's sources
    on the path and tmp_path as the working directory; extra environment
    variables replace the inherited ones."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(code, *argv, **env):
        merged = dict(os.environ, PYTHONPATH=src, **env)
        return subprocess.run([sys.executable, "-c", code, *argv],
                              env=merged, cwd=tmp_path,
                              capture_output=True, text=True)
    return run
