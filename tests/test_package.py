import os
import subprocess
import sys
from pathlib import Path

import fracstar


def test_all_names_resolve():
    missing = [name for name in fracstar.__all__ if not hasattr(fracstar, name)]
    assert missing == []
    assert len(set(fracstar.__all__)) == len(fracstar.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from fracstar import *", namespace)
    assert set(fracstar.__all__) <= set(namespace)


def test_runtime_imports_no_scipy():
    """numpy is the one runtime dependency: the CLI module loads no SciPy."""
    probe = "import fracstar.cli, sys; sys.exit('scipy' in sys.modules)"
    src = str(Path(fracstar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
