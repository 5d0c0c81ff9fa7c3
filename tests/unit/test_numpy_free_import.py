"""The simulator's import path stays free of numpy.

Only the surrogate layer (D9, ``tune --surrogate``) needs numpy, and it
imports it lazily. The CLI and the Table I and D8 pipelines must start
without paying numpy's import time, so a fresh interpreter that imports
them must not have loaded it.
"""

import os
import subprocess
import sys

_CHILD_PROGRAM = """
import sys
import repro.core.d8_online
import repro.core.table_one
import repro.tools.cli
print("numpy" in sys.modules)
"""


def test_simulator_imports_without_numpy():
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        check=True,
    )
    assert out.stdout.strip() == "False"
