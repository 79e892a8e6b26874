"""Importing the package loads no more of numpy than it needs.

``numpy.random`` costs about 0.85 MB of resident memory, which every run
pays once something imports it; the package imports it only when a
session first draws (``field._precomputed_seed`` is built lazily for that
reason).  A fresh interpreter shows the import order, which the test
process, having imported everything, cannot.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_package_does_not_import_numpy_random():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import ratelessnc, sys; assert 'numpy.random' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
