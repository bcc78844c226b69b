import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2forge.aw import standard_aw_frame
from g2forge.exterior import Form
from g2forge.g2 import G2Frame, standard_frame


@pytest.fixture(scope="session")
def g2frame():
    return standard_frame()


@pytest.fixture(scope="session")
def awframe():
    return standard_aw_frame()


@pytest.fixture
def flip_iso_i(g2frame, monkeypatch):
    """A call that negates the coefficient of the lowest blade of every
    i(S) from then on; |i(S)|^2 = 2 |S|^2 still holds, so only a check
    against the derived action S * phi can catch it.  The frame is
    built first, since its build runs i."""
    iso_i = G2Frame.iso_i

    def flipped(self, S):
        terms = dict(iso_i(self, S).terms)
        m = min(terms)
        terms[m] = -terms[m]
        return Form(3, terms)
    return lambda: monkeypatch.setattr(G2Frame, "iso_i", flipped)


@pytest.fixture
def fresh_python(tmp_path):
    """Run Python source in a fresh interpreter with the package's sources
    on the path and tmp_path as the working directory; extra environment
    variables replace the inherited ones, and one given as None is
    removed."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(code, *argv, **env):
        merged = dict(os.environ, PYTHONPATH=src)
        for name, value in env.items():
            if value is None:
                merged.pop(name, None)
            else:
                merged[name] = value
        return subprocess.run([sys.executable, "-c", code, *argv],
                              env=merged, cwd=tmp_path,
                              capture_output=True, text=True)
    return run
