import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/tracing.py wraps augbench functions by name and perfbench/child.py
# calls a few more; either fails at run time if a name is gone.  Installing
# rewrites the package's module namespaces, so it runs in a child process.
_CHECK = """
import numpy as np
from tracing import Tracer
tracer = Tracer()
tracer.install()
from augbench import analyze, classify, experiment
assert hasattr(experiment.ExperimentReport, "write_timings")
assert hasattr(classify, "predictor")
# the L1 layer keeps its two spans: cross-validation fits its grid in lockstep
# without calling fit_l1_logistic, then the final fit is one call
rng = np.random.RandomState(0)
X = rng.randn(60, 3)
y = (X[:, 0] + rng.randn(60) > 0).astype(float)
analyze.fit_l1_logistic(X, y, analyze.cross_validate_l1(X, y))
names = [span[0] for span in tracer.spans]
assert names == ["analyze.cross_validate_l1", "analyze.fit_l1_logistic"], names
"""


def _run_with_perfbench(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_tracer_installs():
    result = _run_with_perfbench(_CHECK)
    assert result.returncode == 0, result.stderr


# perfbench/run.py reports `experiment.run_single` per sweep run, so each run
# must call it through the module namespace, where the tracer wraps it.
_SWEEP_SPANS = """
from tracing import Tracer
tracer = Tracer()
tracer.install()
from augbench import experiment
from augbench.classify import TrainConfig
from augbench.synth import make_review_corpus
config = experiment.ExperimentConfig(train_sizes=[10, 20], seeds=[0],
                                     classifier=TrainConfig(bits=10, epochs=1))
report = experiment.run_low_resource_sweep(config, make_review_corpus(40, 10))
assert len(report.rows) == 2, report.failures
spans = tracer.spans
runs = [span for span in spans if span[0] == "experiment.run_single"]
assert len(runs) == 2, [span[0] for span in spans]
assert all(spans[span[3]][0] == "experiment.run_low_resource_sweep" for span in runs)
"""


def test_sweep_runs_are_traced_one_span_each():
    result = _run_with_perfbench(_SWEEP_SPANS)
    assert result.returncode == 0, result.stderr


# perfbench/child.py runs TTA with this exact call and reads weights, combined
# and valid_losses["ensemble"]; perfbench/run.py reports both spans.
_TTA_SPANS = """
from tracing import Tracer
tracer = Tracer()
tracer.install()
from augbench import corpus, experiment
from augbench.classify import TrainConfig, train
from augbench.synth import make_review_corpus
from augbench.translate import MockProvider, TranslationCache
sub = corpus.carve_validation(make_review_corpus(30, 10), 0.2, 0)
model = train(sub, TrainConfig(bits=10, epochs=1))
provider, cache, langs = MockProvider(0), TranslationCache(), ["es", "fr"]
tta = experiment.run_tta_pipeline(sub, langs, provider, cache, model=model)
assert tta.weights.weights and tta.combined.doc_ids("ensemble")
assert "ensemble" in tta.valid_losses
spans = tracer.spans
pipelines = [i for i, span in enumerate(spans) if span[0] == "experiment.run_tta_pipeline"]
generates = [span for span in spans if span[0] == "ensemble.tta_generate"]
assert len(pipelines) == 1 and len(generates) == 1, [span[0] for span in spans]
assert generates[0][3] == pipelines[0]
"""


def test_tta_pipeline_is_traced_as_perfbench_calls_it():
    result = _run_with_perfbench(_TTA_SPANS)
    assert result.returncode == 0, result.stderr


# perfbench/run.py reports `classify.featurize` and `augment.tokenize` spans and
# calls.  Training still featurizes each document in its own call (a family
# memo only shares hashes), so featurize metrics stay comparable; EDA
# tokenizes each parent once, however many copies it makes.
_EDA_COUNTS = """
from tracing import Tracer
tracer = Tracer()
tracer.install()
from augbench import augment, experiment
from augbench.classify import TrainConfig
from augbench.synth import make_review_corpus
config = experiment.ExperimentConfig(
    train_sizes=[10, 20], seeds=[0], classifier=TrainConfig(bits=10, epochs=1),
    augment=augment.AugmentSpec(technique="sr", copies_per_original=3))
report = experiment.run_low_resource_sweep(config, make_review_corpus(40, 10))
assert len(report.rows) == 2, report.failures
spans = tracer.spans
def under(child, parent):
    return sum(1 for span in spans
               if span[0] == child and span[3] >= 0 and spans[span[3]][0] == parent)
steps, generated = tracer.counts["train.sgd_steps"], tracer.counts["augment.generated"]
# epochs=1: one SGD step per training document, each parent and its 3 copies
assert steps == generated // 3 * 4 > 0, (steps, generated)
assert under("classify.featurize", "classify.train") == steps
assert under("augment.tokenize", "augment.augment_dataset") * 3 == generated
"""


def test_eda_sweep_featurizes_each_document_and_tokenizes_each_parent_once():
    result = _run_with_perfbench(_EDA_COUNTS)
    assert result.returncode == 0, result.stderr


def test_replaced_augment_dataset_reaches_the_sweep(monkeypatch):
    # perfbench/child.py counts augment skips by replacing the module attribute
    from augbench import augment
    from augbench.classify import TrainConfig
    from augbench.experiment import ExperimentConfig, run_low_resource_sweep
    from augbench.synth import make_review_corpus

    calls = []
    original = augment.augment_dataset

    def counted(*args, **kwargs):
        calls.append(args[1].technique.value)
        return original(*args, **kwargs)

    monkeypatch.setattr(augment, "augment_dataset", counted)
    config = ExperimentConfig(train_sizes=[10, 20], seeds=[0],
                              augment=augment.AugmentSpec(technique="sr"),
                              classifier=TrainConfig(bits=10, epochs=1))
    report = run_low_resource_sweep(config, make_review_corpus(40, 10))
    assert len(report.rows) == 2
    assert calls == ["sr", "sr"]


# The tta-analyze warm cache is written through `TranslationCache.put`, so its
# recorded digest also pins the cache's on-disk format.
_GENERATE = """
import json, sys
from gen import generate
print(json.dumps(generate("tta-analyze", 0, sys.argv[1])))
"""


def test_benchmark_inputs_match_recorded_digests(tmp_path):
    result = _run_with_perfbench(_GENERATE, str(tmp_path))
    assert result.returncode == 0, result.stderr
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    assert json.loads(result.stdout) == golden["tta-analyze"]["0"]["inputs"]


# scipy and requests together took most of the time `import augbench` takes,
# which every CLI call and benchmark child pays; only an HTTP translation
# provider needs requests, and nothing at run time needs scipy.
_IMPORTS = """
import importlib, pkgutil, sys
import augbench, augbench.cli
for info in pkgutil.iter_modules(augbench.__path__):
    importlib.import_module("augbench." + info.name)
heavy = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "requests"})
assert not heavy, heavy
from augbench.translate import HttpProvider
with HttpProvider("http://127.0.0.1:1/translate"):
    assert "requests" in sys.modules
"""


def test_import_loads_neither_scipy_nor_requests():
    result = _run_with_perfbench(_IMPORTS)
    assert result.returncode == 0, result.stderr


# Every setting has a caller that sets it to a second value or reads it.  These
# are ceilings on the settable values of src/augbench, counted over its syntax
# trees: `click.option` declarations, defaulted parameters of functions and
# lambdas, and annotated fields of @dataclass classes.  Raising a ceiling needs
# a CHANGES.md line naming the setting and the two non-test callers that need
# different values.
SETTABLE_CEILINGS = {"click options": 46, "defaulted parameters": 41,
                     "dataclass fields": 65}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _settable_values() -> dict[str, int]:
    counts = dict.fromkeys(SETTABLE_CEILINGS, 0)
    for path in sorted((ROOT / "src" / "augbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "option" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "click"):
                counts["click options"] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                counts["defaulted parameters"] += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass,
                                                            node.decorator_list)):
                counts["dataclass fields"] += sum(isinstance(stmt, ast.AnnAssign)
                                                  for stmt in node.body)
    return counts


def test_settable_values_do_not_grow():
    counts = _settable_values()
    assert all(counts[kind] > 0 for kind in counts), counts  # the count still finds them
    grown = {kind: (n, SETTABLE_CEILINGS[kind]) for kind, n in counts.items()
             if n > SETTABLE_CEILINGS[kind]}
    assert not grown, f"(count, ceiling) per kind: {grown}"
