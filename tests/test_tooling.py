import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from augbench import experiment
from augbench.augment import AugmentError, AugmentSpec
from augbench.classify import TrainConfig

ROOT = Path(__file__).resolve().parent.parent

# Every file of the trees the structural rules below read, with its syntax
# tree, parsed once.
TREES = ("src/augbench", "perfbench", "tests")
SOURCES = {path: ast.parse(path.read_text(encoding="utf-8"))
           for tree in TREES for path in sorted((ROOT / tree).glob("*.py"))}
PACKAGE, PERFBENCH, TESTS = ([path for path in SOURCES if path.parent == ROOT / tree]
                             for tree in TREES)


def _walk(paths: list[Path] = PACKAGE):
    """(owner, in_function, node) for each node of the files' trees, parents
    first: the owner is the module stem and each enclosing function or class,
    joined with dots, and `in_function` whether a function encloses the node."""
    stack = [(path.stem, False, SOURCES[path]) for path in reversed(paths)]
    while stack:
        owner, in_function, node = stack.pop()
        yield owner, in_function, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
            in_function = in_function or not isinstance(node, ast.ClassDef)
        stack += [(owner, in_function, child)
                  for child in reversed([*ast.iter_child_nodes(node)])]


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
    """Run `code` in a child that imports perfbench, augbench and the tests' `synth`."""
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
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
from synth import make_review_corpus
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
from synth import make_review_corpus
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


# perfbench/child.py scores sentences through `classify.predictor(model)` and
# perfbench/run.py reports `classify.predict` calls: the predictor must call
# `predict` through the module namespace, where the tracer wraps it, once per
# distinct text.
_PREDICTOR_SPANS = """
from tracing import Tracer
tracer = Tracer()
tracer.install()
from augbench import classify
from augbench.classify import TrainConfig, train
from synth import make_review_corpus
model = train(make_review_corpus(20, 0), TrainConfig(bits=10, epochs=1))
predict_fn = classify.predictor(model)
def predicts():
    return sum(1 for span in tracer.spans if span[0] == "classify.predict")
first = predict_fn("a good film. a bad plot!")
assert predicts() == 1, predicts()
assert predict_fn("a good film. a bad plot!") == first and predicts() == 1
predict_fn("a bad plot!")
assert predicts() == 2, predicts()
"""


def test_predictor_is_traced_once_per_distinct_text():
    result = _run_with_perfbench(_PREDICTOR_SPANS)
    assert result.returncode == 0, result.stderr


# perfbench/run.py reports `classify.featurize` and `augment.tokenize` spans and
# calls.  Training still featurizes each document in its own call (the gram
# memo inside featurize only shares hashes), so featurize metrics stay
# comparable; EDA tokenizes each parent once, however many copies it makes.
# Pinned to one CPU the sweep trains in the traced process; on more CPUs its
# forked workers train, and only the augment side and the per-run spans stay
# here, which perfbench/child.py's augment counts rely on.
_EDA_COUNTS = """
import os, sys
pinned = sys.argv[1] == "pinned"
if pinned:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tracing import Tracer
tracer = Tracer()
tracer.install()
from augbench import augment, experiment
from augbench.classify import TrainConfig
from synth import make_review_corpus
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
assert under("augment.tokenize", "augment.augment_dataset") * 3 == generated > 0
assert under("experiment.run_single", "experiment.run_low_resource_sweep") == 2
if pinned:
    # epochs=1: one SGD step per training document, each parent and its 3 copies
    assert steps == generated // 3 * 4 > 0, (steps, generated)
    assert under("classify.featurize", "classify.train") == steps
"""


def test_eda_sweep_featurizes_each_document_and_tokenizes_each_parent_once():
    for cpus in ("pinned", "unpinned"):
        result = _run_with_perfbench(_EDA_COUNTS, cpus)
        assert result.returncode == 0, (cpus, result.stderr)


def test_replaced_augment_dataset_reaches_the_sweep(monkeypatch):
    # perfbench/child.py counts augment skips by replacing the module attribute
    from augbench import augment
    from augbench.classify import TrainConfig
    from augbench.experiment import ExperimentConfig, run_low_resource_sweep
    from synth import make_review_corpus

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
print(json.dumps(generate(sys.argv[1], 0, sys.argv[2])))
"""


def _golden(workload: str) -> dict:
    """The digests `perfbench/golden.json` records for the workload's variant 0."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    return golden[workload]["0"]


def test_benchmark_inputs_match_recorded_digests(tmp_path):
    result = _run_with_perfbench(_GENERATE, "tta-analyze", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == _golden("tta-analyze")["inputs"]


_WORKLOADS = [w["name"] for w in
              json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_benchmark_outputs_match_recorded_digests(tmp_path, workload):
    # one untraced repetition, started as perfbench/run.py starts it
    inputs, out, result_path = tmp_path / "inputs", tmp_path / "out", tmp_path / "result.json"
    generated = _run_with_perfbench(_GENERATE, workload, str(inputs))
    assert generated.returncode == 0, generated.stderr
    out.mkdir()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    rep = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), workload,
                          str(inputs), str(out), "0.0", "0", str(result_path)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert rep.returncode == 0, rep.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert (result["outputs"], result["failed"], result["problems"]) == (
        _golden(workload)["outputs"], 0, [])


# Every output a Tier-1 test pins is recorded in tests/golden.json and computed
# by tests/digests.py, which prints the whole table: so a golden change is
# re-recorded by one redirect, and another BLAS core type or interpreter is
# compared with the record by one child.
def test_pinned_output_script_prints_golden_json():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "tests" / "digests.py")], cwd=ROOT,
                            env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (ROOT / "tests" / "golden.json").read_bytes()


_HEX64 = re.compile(r"(?<![0-9a-fA-F])[0-9a-fA-F]{64}(?![0-9a-fA-F])")


def test_no_test_file_holds_a_sha256_literal():
    # a new pinned sha256 goes into tests/golden.json, not into a test file
    table = (ROOT / "tests" / "golden.json").read_text(encoding="utf-8")
    assert len(_HEX64.findall(table)) >= 11  # the pattern still finds a recorded digest
    held = {path.name: _HEX64.findall(path.read_text(encoding="utf-8")) for path in TESTS}
    assert not {name: found for name, found in held.items() if found}


# `import augbench` runs in every CLI call and benchmark child, so it loads
# neither scipy, which nothing at run time needs, nor urllib.request, which
# only an HTTP translation needs and imports when it makes a request.  No
# module imports requests, and no dependency names it.
_IMPORTS = """
import importlib, pkgutil, sys
import augbench, augbench.cli
for info in pkgutil.iter_modules(augbench.__path__):
    importlib.import_module("augbench." + info.name)
heavy = sorted({"scipy", "urllib.request"} & set(sys.modules))
assert not heavy, heavy
from augbench.translate import HttpProvider, TranslationError
try:
    HttpProvider("http://127.0.0.1:1/translate", max_retries=1,
                 sleep=lambda s: None).translate("hi", "en", "es")
except TranslationError:
    pass
assert "urllib.request" in sys.modules
"""


def test_import_loads_neither_scipy_nor_requests():
    result = _run_with_perfbench(_IMPORTS)
    assert result.returncode == 0, result.stderr
    imported = {alias.name.split(".")[0] for _, _, node in _walk()
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for _, _, node in _walk()
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "numpy" in imported and "requests" not in imported  # the walk finds imports
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert "numpy" in dependencies
    assert not [d for d in dependencies if d.lower().startswith("requests")], dependencies


# Every setting has a caller that sets it to a second value or reads it.  These
# are ceilings on the settable values of src/augbench, counted over its syntax
# trees: `click.option` declarations, defaulted parameters of functions and
# lambdas, and annotated fields of @dataclass classes.  Raising a ceiling needs
# a CHANGES.md line naming the setting and the two non-test callers that need
# different values.
SETTABLE_CEILINGS = {"click options": 41, "defaulted parameters": 32,
                     "dataclass fields": 61}


# The total `wc -l` of src/augbench/*.py is capped at its count when the cap was
# last set.  Raising it needs a CHANGES.md line naming what the added lines buy,
# as raising a settable-value ceiling does; a change that removes lines lowers it.
SOURCE_LINE_CEILING = 2943


def test_source_lines_do_not_grow():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE)
    assert lines <= SOURCE_LINE_CEILING, lines


def _settable_values() -> dict[str, int]:
    nodes = [node for _, _, node in _walk()]
    calls = [ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)]
    return {
        "click options": calls.count("click.option"),
        "defaulted parameters": sum(
            len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))),
        "dataclass fields": sum(
            isinstance(stmt, ast.AnnAssign) for node in nodes
            if isinstance(node, ast.ClassDef)
            and any(_name_of(d) == "dataclass" for d in node.decorator_list)
            for stmt in node.body),
    }


def test_settable_values_do_not_grow():
    counts = _settable_values()
    assert all(counts[kind] > 0 for kind in counts), counts  # the count still finds them
    grown = {kind: (n, SETTABLE_CEILINGS[kind]) for kind, n in counts.items()
             if n > SETTABLE_CEILINGS[kind]}
    assert not grown, f"(count, ceiling) per kind: {grown}"


def test_every_field_a_run_yaml_sets_is_type_checked():
    # `ExperimentConfig.from_yaml` checks a value by its field's annotation in
    # `experiment._TYPES` and lets any other annotation through, so each field
    # a run YAML reaches is one of those types, a section it loads, or an enum
    # that its dataclass checks.
    sections = {"Optional[AugmentSpec]", "TrainConfig"}
    enums = {"AugTechnique": "technique", "LanguageStrategy": "language_strategy"}
    reached = []
    for cls, keys in ((experiment.ExperimentConfig, experiment._TOP_KEYS),
                      (AugmentSpec, experiment._AUGMENT_KEYS),
                      (TrainConfig, experiment._CLASSIFIER_KEYS)):
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        reached += [(cls.__name__, name, types[name]) for name in keys.values()]
    assert len(reached) >= 17  # the three maps still name the settable fields
    checked = {*experiment._TYPES, *sections, *enums}
    unchecked = [r for r in reached if r[2] not in checked]
    assert not unchecked, unchecked
    for name in enums.values():
        with pytest.raises(AugmentError, match=f"unknown {name} 'x'"):
            AugmentSpec(**{"technique": "sr", name: "x"})


def _is_command(decorator: ast.expr) -> bool:
    """`@<group>.command(...)` or `@<group>.group(...)`: click calls the function."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "attr", None) in ("command", "group")


def _name_of(node: ast.AST):
    """The name a name, attribute or import alias ends in; a call's, its callee's."""
    if isinstance(node, ast.Call):
        return _name_of(node.func)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def _keyword(call: ast.Call, name: str, default=None):
    """The value `call` passes as keyword `name`, else `default`."""
    return next((k.value for k in call.keywords if k.arg == name), default)


def _defined_name(top: ast.stmt):
    """The name a top-level function, class or one-name assignment defines."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return top.name
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def test_every_public_definition_is_reached():
    # src/augbench ships only what a CLI path, the package itself or the
    # benchmark uses: each public top-level function, class and module-level
    # name is named in src/augbench or perfbench/ outside its own definition.
    # Test-only helpers and constants live in tests/.
    defined, named = [], set()
    for path in PACKAGE + PERFBENCH:
        for top in SOURCES[path].body:
            own = _defined_name(top) if path in PACKAGE else None
            if own and not own.startswith("_") and not any(
                    map(_is_command, getattr(top, "decorator_list", ()))):
                defined.append(f"{path.stem}.{own}")
            named.update(name for name in map(_name_of, ast.walk(top)) if name != own)
    assert len(defined) > 50  # the walk still finds them
    unreached = [name for name in defined if name.rpartition(".")[2] not in named]
    assert not unreached, unreached


def test_every_float_option_has_a_callback():
    # click's float types take nan and inf, which pass a range check, so each
    # float option in cli.py checks its value in a callback as it is parsed:
    # a bad value is a usage error before the command reads or writes anything.
    floats = {node.args[0].value: _keyword(node, "callback") is not None
              for _, _, node in _walk([ROOT / "src" / "augbench" / "cli.py"])
              if isinstance(node, ast.Call) and _name_of(node) == "option"
              # `type=float` or `type=click.FloatRange(...)`
              and _name_of(_keyword(node, "type")) in ("float", "FloatRange")}
    assert {"--rps", "--l1"} <= set(floats)  # the walk still finds them
    assert all(floats.values()), floats


def test_rows_are_scored_only_through_score_texts():
    # README: there is one scoring path.  Every batch of texts, one text
    # included, reaches the ordered per-row sum through `classify.score_texts`.
    users = [owner for owner, _, node in _walk()
             if isinstance(node, (ast.Name, ast.Attribute)) and _name_of(node) == "accumulate"]
    assert users == ["classify.score_texts"]


def test_every_import_is_used():
    # Each name an import binds in src/augbench or tests/ is read as a name in its module.
    unused = []
    for path in PACKAGE + TESTS:
        nodes = [node for _, _, node in _walk([path])]
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {bound}" for node in nodes
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for bound in (alias.asname or alias.name.partition(".")[0]
                                 for alias in node.names)
                   if bound not in names]
    assert not unused, unused


def _writes(call: ast.Call) -> bool:
    """An `open` call whose mode is not a literal that only reads."""
    mode = call.args[1] if len(call.args) > 1 else _keyword(call, "mode", ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set("wax+") & set(mode.value))


def test_outputs_are_written_only_through_replacing():
    # README "File formats": an output appears whole or not at all.  So a file
    # is opened to write only by `corpus.replacing` and by the translation
    # cache's appends, and no whole file is written by `write_text`/`write_bytes`.
    allowed = {"corpus.replacing", "translate.TranslationCache.put"}
    found = [f"{owner}:{node.lineno}" for owner, _, node in _walk()
             if isinstance(node, ast.Call) and (
                 _name_of(node) in ("write_text", "write_bytes")
                 or _name_of(node) == "open" and _writes(node) and owner not in allowed)]
    assert not found, found


# Each function in src/augbench that imports inside its body, with why the
# import cannot be at module level.
FUNCTION_IMPORTS = {
    "translate.HttpProvider.translate": "keeps urllib.request out of `import augbench`",
    "augment.augment_dataset": "breaks the augment <-> translate import cycle",
}


def test_function_level_imports_are_only_where_needed():
    found = {owner for owner, in_function, node in _walk()
             if in_function and isinstance(node, (ast.Import, ast.ImportFrom))}
    assert found == set(FUNCTION_IMPORTS), found
