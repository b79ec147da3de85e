"""The package runs on numpy alone: no CLI command imports scipy.

A fresh interpreter sets ``sys.modules["scipy"] = None``, so any import of
scipy or of a scipy submodule raises, and runs every CLI command through
``rlatt.cli.main``: a labeled spectrum at nonzero nome (continuation), a
sweep, and ``verify`` both where it passes and at (3, 4), where the
Macdonald oracle fails on an eigenvalue collision.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rlatt

SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from rlatt.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
loaded = sorted(name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None)
print(json.dumps({"results": results, "scipy": loaded}))
"""

COMMANDS = [
    (["enumerate", "--n", "2", "--m", "2"], 0),
    (["operator", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.5", "--r", "1"], 0),
    (["polys", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.3"], 0),
    (["spectrum", "--n", "3", "--m", "3", "--g", "0.7", "--p", "0.3"], 0),
    (["spectrum", "--n", "2", "--m", "3", "--g", "0.7", "--p-start", "0", "--p-stop", "0.6", "--p-step", "0.05"], 0),
    (["verify", "--n", "2", "--m", "2", "--g", "1", "--p", "0.3"], 0),
    (["verify", "--n", "3", "--m", "4", "--g", "0.7", "--p", "0.3"], 1),
]


def test_cli_runs_with_scipy_blocked():
    source = str(Path(rlatt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    argvs = json.dumps([argv for argv, _ in COMMANDS])
    done = subprocess.run([sys.executable, "-c", SCRIPT, argvs], capture_output=True, text=True, env=env, check=True)
    report = json.loads(done.stdout)
    assert [code for code, _ in report["results"]] == [code for _, code in COMMANDS]
    assert "eigenvalue collision between (4, 2, 2) and (3, 3, 1, 1)" in report["results"][-1][1]
    assert report["scipy"] == []
