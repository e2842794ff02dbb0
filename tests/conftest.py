import os
import sys
from pathlib import Path

import pytest

# make tests/helpers.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module", autouse=True)
def _children_import_src():
    """Child processes (CLI sessions, import checks) import the package from
    src/, as pytest itself does through pyproject.toml's pythonpath; the
    environment is restored after each module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
