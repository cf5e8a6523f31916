"""Collect, print and compare benchmark result sets.

    python3 perfbench/report.py collect OUT.jsonl [--seeds 0-9] [--workloads a,b] [--trace]
    python3 perfbench/report.py show SET.jsonl
    python3 perfbench/report.py compare BASE.jsonl NEW.jsonl

A result set is a JSONL file with one line per `run.py` invocation:
{"workload", "seed", "trace", "result"}, where "result" is run.py's last
stdout line.  `show` prints every metric by name with unit, sample count,
median and quartiles, one row per workload, and the failed-operation share
with its base.  `compare` puts each workload in its own row and marks an
end-to-end metric unresolved when either set's spread (quartile distance over
median) exceeds the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    bench = _benchmark()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    status = 0
    for workload in workloads:
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "1" if args.trace else "0"]
            proc = subprocess.run([sys.executable] + cmd[1:], cwd=ROOT, text=True,
                                  stdout=subprocess.PIPE)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "trace": int(args.trace), "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    return status


def load(path: str) -> dict[str, list[dict]]:
    """{workload: [result, ...]} in file order."""
    sets: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            sets.setdefault(rec["workload"], []).append(rec["result"])
    return sets


def stats(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = stats(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _metric_values(results: list[dict]) -> dict[str, tuple[str, list[float]]]:
    out: dict[str, tuple[str, list[float]]] = {}
    for r in results:
        for name, m in r["metrics"].items():
            out.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def show(args) -> int:
    sets = load(args.set)
    print(f"{'metric':42} {'unit':6} {'workload':12} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7}")
    names = sorted({n for rs in sets.values() for r in rs for n in r["metrics"]})
    for name in names:
        for workload, results in sets.items():
            unit, values = _metric_values(results).get(name, ("", []))
            if values:
                med, q1, q3 = stats(values)
                print(f"{name:42} {unit:6} {workload:12} {len(values):3d} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread(values):7.2%}")
    for workload, results in sets.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = sum(r["correct"] for r in results)
        print(f"{workload}: fail_frac {failed / attempted:.3g} ({failed} failed of "
              f"{attempted} operations), {correct}/{len(results)} runs correct")
    return 0


def compare(args) -> int:
    bench = _benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    better.update({n: m["better"] for n, m in bounds.items()})
    base, new = load(args.base), load(args.new)
    print(f"{'metric':42} {'workload':12} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>13} {'bound':>6}  verdict")
    names = sorted({n for s in (base, new) for rs in s.values() for r in rs
                    for n in r["metrics"]})
    status = 0
    for name in names:
        for workload in sorted(set(base) | set(new)):
            a = _metric_values(base.get(workload, [])).get(name, ("", []))[1]
            b = _metric_values(new.get(workload, [])).get(name, ("", []))[1]
            if not a or not b:
                continue
            ma, mb = stats(a)[0], stats(b)[0]
            sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
            worse = sign * (mb - ma) / abs(ma) if ma else 0.0
            change = (mb - ma) / abs(ma) if ma else 0.0
            verdict, bound_txt = "", ""
            if name in bounds:
                bound = bounds[name]["bound"]
                bound_txt = f"{bound:.0%}"
                if max(spread(a), spread(b)) > bound and not (
                        max(sign * x for x in b) < min(sign * x for x in a)):
                    verdict = "unresolved"
                elif worse > bound:
                    verdict, status = "WORSE", 1
                else:
                    verdict = "within bound"
            print(f"{name:42} {workload:12} {ma:12.6g} {mb:12.6g} {change:+8.1%} "
                  f"{spread(a):6.1%}/{spread(b):6.1%} {bound_txt:>6}  {verdict}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark and append results to OUT")
    c.add_argument("out")
    c.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    c.add_argument("--workloads", help="comma-separated; default all")
    c.add_argument("--trace", action="store_true")
    s = sub.add_parser("show", help="print every metric of a result set")
    s.add_argument("set")
    k = sub.add_parser("compare", help="compare two result sets per workload")
    k.add_argument("base")
    k.add_argument("new")
    args = ap.parse_args(argv)
    return {"collect": collect, "show": show, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
