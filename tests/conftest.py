import os
import subprocess
import sys
from pathlib import Path

import pytest

from g2forge import g2
from g2forge.aw import standard_aw_frame
from g2forge.exterior import Form
from g2forge.g2 import G2Frame, standard_frame


# the frames as the test finds them, read again for each test: a reset
# (rebuilt) makes the package build new ones, which a test that patches
# the frame must reach
@pytest.fixture
def g2frame():
    return standard_frame()


@pytest.fixture
def awframe():
    return standard_aw_frame()


@pytest.fixture
def rebuilt():
    """Every per-process value (g2.once) built afresh under the test's
    patches: the kept builds, g2._built, are cleared on entry and again
    on exit, so no value built under a patch outlives the test.  Its
    value is the reset itself, for a test that clears them again; a
    frame fixture that should see the reset is listed after it."""
    g2._built.cache_clear()
    yield g2._built.cache_clear
    g2._built.cache_clear()


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
