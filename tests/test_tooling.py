import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/tracing.py wraps augbench functions by name and perfbench/child.py
# calls a few more; either fails at run time if a name is gone.  Installing
# rewrites the package's module namespaces, so it runs in a child process.
_CHECK = """
from tracing import Tracer
Tracer().install()
from augbench import classify, experiment
assert hasattr(experiment.ExperimentReport, "write_timings")
assert hasattr(classify, "predictor")
"""


def test_benchmark_tracer_installs():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    result = subprocess.run([sys.executable, "-c", _CHECK], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
