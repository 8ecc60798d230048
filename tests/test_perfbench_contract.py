"""The names the committed benchmark reaches into src for.

`perfbench/tracer.py` rebinds module attributes of `rare` by name, and
`perfbench/oracle.py` calls `rare.trainer.select_examples` positionally. The
benchmark's own smoke test is slow and outside testpaths, so this checks
both in a fresh interpreter: a rename under src fails here first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import inspect, json, sys
sys.path.insert(0, "perfbench")
import tracer
tracer.install(tracer.Tracer())
import oracle
from rare import trainer
print(json.dumps(list(inspect.signature(trainer.select_examples).parameters)))
"""


def test_tracer_installs_and_oracle_imports():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    params = json.loads(result.stdout.strip().splitlines()[-1])
    assert params == ["pool", "index", "query", "k", "policy", "rng"]
