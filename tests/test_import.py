"""``import repro`` loads the ``.py`` files in this tree and nothing else."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_INSPECT = """
import json
import repro
print(json.dumps([repro.build_info(), repro.sim.kernel.Kernel.__module__]))
"""


def test_environment_does_not_select_code(tmp_path):
    """A staged ``_hot/kernel.py`` that raises, named by the variables
    that once put such a directory on ``repro.__path__``, is never
    imported."""
    hot = tmp_path / "_hot"
    hot.mkdir()
    (hot / "__init__.py").write_text("")
    (hot / "kernel.py").write_text('raise RuntimeError("staged kernel imported")\n')
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        REPRO_HOT_DIR=str(tmp_path),
        REPRO_ALLOW_PURE_HOT="1",
    )
    result = subprocess.run(
        [sys.executable, "-c", _INSPECT],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [{"build": "pure"}, "repro.sim.kernel"]
