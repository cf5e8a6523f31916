"""augbench benchmark: one workload, repeated in fresh child processes for a fixed time.

    python3 perfbench/run.py --workload sweep-eda --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from `src/`.  The seed
selects one of `gen.N_VARIANTS` recorded input variants.  Repetitions run one
at a time (a closed loop with one client), each in a fresh single-threaded
Python process; their number is fixed by the workload and `--seconds` (see
`rep_count`).  With `--trace 0` the last stdout line reports the end-to-end
metrics: wall and set-up times scaled to a reference host speed and averaged
over the repetitions (see `calibrated`), and the median peak RSS; with
`--trace 1` untraced and traced repetitions alternate and the line reports
the per-layer metrics (medians over traced repetitions).  Every repetition's
outputs are checked against `golden.json`.  Scratch files go to `.bench_work/`.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
MIN_REPS = 3            # per kind (untraced, traced)
MAX_OUTSIDE_FRAC = 0.02  # of the traced window, not covered by any span
# child.calibrate() time (both calls) on a quiet host: the reference speed
# that reported times are scaled to.  It sets the scale, not the comparison.
CALIB_REF_S = 0.15
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0     # a run, set-up included, ends well inside 180 s

# Spans reported by self time; together with experiment.write_outputs and the
# time outside any span they add up to the traced wall time.
SELF_SPANS = (
    "classify.featurize", "classify.tokenize", "classify.train", "classify.predict",
    "classify.predict_corpus", "augment.augment_dataset", "augment.tokenize",
    "translate.backtranslate", "translate.provider", "translate.cache.get",
    "translate.cache.put", "ensemble.tta_generate", "ensemble.fit_weights",
    "ensemble.combine", "ensemble.calibration_report", "analyze.build_feature_matrix",
    "analyze.cross_validate_l1", "analyze.fit_l1_logistic", "analyze.numeracy_probe",
    "corpus.subsample", "experiment.run_single", "experiment.run_low_resource_sweep",
    "experiment.run_tta_pipeline",
)
CALL_SPANS = ("classify.featurize", "augment.tokenize", "classify.predict",
              "translate.backtranslate", "translate.provider", "translate.cache.put",
              "analyze.fit_l1_logistic")
TOTAL_SPANS = ("experiment.write_outputs",)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from the child's trace summary."""
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]
    m = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_SPANS}
    m.update({f"{n}.calls": calls.get(n, 0) for n in CALL_SPANS})
    m.update({f"{n}.s": t["total_s"].get(n, 0.0) for n in TOTAL_SPANS})
    featurized = calls.get("classify.featurize", 0)
    generated = counts.get("augment.generated", 0)
    m.update({
        "classify.featurize.ngrams": counts.get("featurize.ngrams", 0),
        "classify.featurize.repeat_ratio": _ratio(counts.get("featurize.repeats", 0),
                                                  featurized),
        "classify.featurize.distinct_features": counts["featurize.distinct_features"],
        "classify.train.sgd_steps": counts.get("train.sgd_steps", 0),
        "augment.generated": generated,
        "augment.modified_ratio": _ratio(generated - counts.get("augment.unmodified", 0),
                                         generated),
        "translate.cache.hit_ratio": _ratio(counts.get("backtranslate.cache_hits", 0),
                                            2 * calls.get("translate.backtranslate", 0)),
        "translate.cache.load_s": t["setup_s"].get("translate.cache.load", 0.0),
        "corpus.ingest_jsonl.s": t["setup_s"].get("corpus.ingest_jsonl", 0.0),
        "trace.wall_s": t["wall_s"],
        "trace.outside_s": t["outside_s"],
    })
    return m


def trace_problems(t: dict) -> list[str]:
    """Every span has a metric, and little of the traced window is outside any span.

    The self times plus the outside time add up to the traced wall time by
    construction; what can fail is that a span has no metric, or that work in
    the window that no span covers grows past MAX_OUTSIDE_FRAC of it.
    """
    unreported = sorted(set(t["self_s"]) - set(SELF_SPANS) - set(TOTAL_SPANS))
    covered = (sum(t["self_s"].get(n, 0.0) for n in SELF_SPANS)
               + sum(t["total_s"].get(n, 0.0) for n in TOTAL_SPANS) + t["outside_s"])
    out = [f"span {n} has no per-layer metric" for n in unreported]
    if abs(covered - t["wall_s"]) > 1e-6 * max(1.0, t["wall_s"]):
        out.append(f"self times + outside = {covered!r} s, traced wall = {t['wall_s']!r} s")
    if t["outside_s"] > MAX_OUTSIDE_FRAC * t["wall_s"]:
        out.append(f"{t['outside_s']:.3f} s of the {t['wall_s']:.3f} s traced window is "
                   f"outside any span (limit {MAX_OUTSIDE_FRAC:.0%})")
    return out


def calibrated(reps: list[dict], key: str) -> float:
    """Mean over repetitions of a time scaled to the reference host speed.

    Each repetition's time is multiplied by CALIB_REF_S over the time the
    child's calibration loop took around its timed window.  On a shared host
    CPU speed changes by tens of percent from minute to minute; the scaling
    removes most of that and leaves the program's own cost
    (perfbench/README.md has the numbers).
    """
    return statistics.mean(r[key] * CALIB_REF_S / r["calib_s"] for r in reps)


def rep_count(workload: str, seconds: float, kinds: int) -> int:
    """Repetitions of each kind: as many as fit in `seconds` at the recorded baseline pace.

    The count depends on the workload and `--seconds` only, not on how fast
    the program under test runs, so both sides of a comparison summarise the
    same number of repetitions.
    """
    import gen

    return max(MIN_REPS, int(seconds / (kinds * gen.WORKLOADS[workload]["rep_s"])))


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with wait4 (for its own rusage); kill it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None
        time.sleep(0.005)


def run_rep(workload: str, work: Path, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh child; returns its result plus peak RSS, or an error."""
    inputs, out, result_path = work / "inputs", work / "out", work / "result.json"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), workload, str(inputs), str(out),
             repr(spawn), "1" if traced else "0", str(result_path)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env, cwd=ROOT)
        usage = _wait(proc, min(deadline, spawn + CHILD_TIMEOUT_S))
    if usage is None:
        return {"error": "child timed out"}
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"error": f"child exited with {proc.returncode}: {tail}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def check_outputs(result: dict, golden: dict) -> list[str]:
    return [f"{name}: sha256 {digest[:12]} differs from recorded {golden.get(name, '-')[:12]}"
            for name, digest in result["outputs"].items() if golden.get(name) != digest]


def prepare(workload: str, seed: int) -> tuple[Path, int, dict[str, str]]:
    """Generate the inputs into a clean work directory; return (dir, variant, digests)."""
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    variant = seed % gen.N_VARIANTS
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    digests = gen.generate(workload, variant, work / "inputs")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(BENCH), quiet=1)
    return work, variant, digests


def main(argv=None) -> int:
    import gen

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "augbench" / "__init__.py").is_file():
        print(f"error: no augbench package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    started = time.monotonic()
    work, variant, input_digests = prepare(args.workload, args.seed)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload, {})
    golden = recorded.get(str(variant))
    problems = []
    if golden is None:
        problems.append(f"no recorded digests for variant {variant}")
        golden = {"inputs": {}, "outputs": {}}
    problems += [f"input {name}: sha256 {d[:12]} differs from recorded"
                 for name, d in input_digests.items() if golden["inputs"].get(name) != d]
    attempted = len(input_digests)
    failed = len(problems)

    kinds = [False, True] if args.trace else [False]
    total = rep_count(args.workload, args.seconds, len(kinds)) * len(kinds)
    reps: dict[bool, list[dict]] = {False: [], True: []}
    deadline = started + RUN_LIMIT_S
    for i in range(total):
        if time.monotonic() > deadline:
            problems.append(f"time limit reached after {i} of {total} repetitions")
            break
        traced = kinds[i % len(kinds)]
        res = run_rep(args.workload, work, traced, deadline)
        if "error" in res:
            problems.append(res["error"])
            failed += 1
            attempted += 1
            break
        mismatched = check_outputs(res, golden["outputs"])
        res_problems = res["problems"] + mismatched
        if traced:
            res_problems += trace_problems(res["trace"])
        attempted += res["attempted"] + len(res["outputs"])
        failed += res["failed"] + len(mismatched)
        problems += res_problems
        reps[traced].append(res)
        print(f"rep {i + 1}/{total} {'traced' if traced else 'untraced'}: "
              f"setup {res['setup_s']:.3f} s, wall {res['wall_s']:.3f} s, "
              f"calib {res['calib_s']:.4f} s, "
              f"peak RSS {res['peak_rss_mb']:.1f} MiB, "
              f"{res['failed']}/{res['attempted']} failed, "
              f"{len(mismatched)} digest mismatches", file=sys.stderr)

    correct = not problems
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if not reps[False] or (args.trace and not reps[True]):
        return 1
    untraced = reps[False]
    if args.trace:
        per_rep = [layer_metrics(r["trace"]) for r in reps[True]]
        values = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        values["trace.overhead_frac"] = (calibrated(reps[True], "wall_s")
                                         / calibrated(untraced, "wall_s") - 1.0)
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    else:
        values = {
            "wall_s": calibrated(untraced, "wall_s"),
            "setup_s": calibrated(untraced, "setup_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    missing = set(units) ^ set(values)
    if missing:
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed} (variant {variant}): "
          f"{len(untraced)} untraced + {len(reps[True])} traced repetitions in "
          f"{time.monotonic() - started:.1f} s; untraced wall as measured: median "
          f"{statistics.median(r['wall_s'] for r in untraced):.3f} s, mean "
          f"{statistics.mean(r['wall_s'] for r in untraced):.3f} s; host speed "
          f"{statistics.mean(CALIB_REF_S / r['calib_s'] for r in untraced):.3f} "
          f"of the reference; "
          f"{failed}/{attempted} operations failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in units}}))
    return 0


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
