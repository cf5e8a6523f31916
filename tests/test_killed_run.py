"""A SIGKILLed `augbench run` re-runs to the bytes of an uninterrupted run.

Each kill comes from inside the run's own process at a fixed point, so no
test races the run: once so many bytes have gone to the translation cache
(at a line end, or inside a line, whose first part is on disk as a cut-short
write would leave it), once the temp file of `report.csv` is open, or just
after the first worker is forked.  The re-run is the plain command.  A killed
run's worker dies with it.
"""
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import augbench
from augbench.corpus import export_jsonl

from synth import make_review_corpus

# `augbench run` with the arguments after the first two, which name where it
# kills itself:
#   cache N    at the write that would take the cache file past N bytes,
#              after writing the bytes up to N
#   report N   likewise for the temp file of report.csv
#   worker S   just after forking its first worker, printing the worker's pid;
#              each run's `_score` first sleeps S seconds
_KILLED_RUN = """if True:
    import builtins, os, signal, sys, time
    from augbench import cli, corpus, experiment, translate

    where, limit, args = sys.argv[1], sys.argv[2], sys.argv[3:]

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    class Dying:
        # the bytes before the limit go to disk in one raw write, as a kill
        # inside write(2) leaves them: no buffer is flushed
        left = int(limit)

        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            if len(data) > Dying.left:
                part = data[:Dying.left]
                os.write(self._fh.fileno(), part.encode() if isinstance(part, str) else part)
                die()
            Dying.left -= len(data)
            return self._fh.write(data)

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def opener(dies):
        def open(path, mode="r", *a, **k):
            fh = builtins.open(path, mode, *a, **k)
            return Dying(fh) if dies(str(path), mode) else fh
        return open

    if where == "cache":
        translate.open = opener(lambda path, mode: "a" in mode)
    elif where == "report":
        corpus.open = opener(lambda path, mode: "report.csv" in path)
    else:
        fork, score = experiment._Worker.__init__, experiment._score

        def forked(self, step):
            fork(self, step)  # the worker never returns from it
            print(self.pid, flush=True)
            die()

        def slow(*args):
            time.sleep(float(limit))
            return score(*args)

        experiment._Worker.__init__, experiment._score = forked, slow
    cli.main(args)
"""

_CONFIG = """\
train_sizes: [20, 60]
seeds: [0, 1]
augment: {technique: bt, languages: [es, fr, de]}
"""
_EARLIER = b"an earlier report\n"
_ENV = dict(os.environ, PYTHONPATH=str(Path(augbench.__file__).parent.parent))


def _command(root: Path, *kill: str) -> list[str]:
    """The sweep's `augbench run`, writing `out/` and `cache.jsonl` in the
    working directory; with `kill`, the run that kills itself there."""
    head = ["-c", _KILLED_RUN, *kill] if kill else ["-m", "augbench.cli"]
    return [sys.executable, *head, "run", "--config", str(root / "run.yaml"),
            "--in", str(root / "corpus.jsonl"), "--out-dir", "out", "--provider", "mock",
            "--cache", "cache.jsonl"]


def _run(work: Path, root: Path, *kill: str) -> subprocess.CompletedProcess:
    return subprocess.run(_command(root, *kill), cwd=work, env=_ENV, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The directory of the sweep's corpus and config, and the report.csv and
    cache.jsonl bytes of its uninterrupted run."""
    root = tmp_path_factory.mktemp("sweep")
    export_jsonl(make_review_corpus(400, 200, seed=5), root / "corpus.jsonl")
    (root / "run.yaml").write_text(_CONFIG, encoding="utf-8")
    done = _run(root, root)
    assert done.returncode == 0, done.stderr
    return root, (root / "out" / "report.csv").read_bytes(), (root / "cache.jsonl").read_bytes()


@pytest.fixture
def work(tmp_path):
    """A working directory whose `out/` holds an earlier report.csv."""
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.csv").write_bytes(_EARLIER)
    return tmp_path


def _killed(work: Path, root: Path, *kill: str) -> None:
    killed = _run(work, root, *kill)
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert (work / "out" / "report.csv").read_bytes() == _EARLIER


def _rerun(work: Path, sweep) -> subprocess.CompletedProcess:
    """Re-run the command and check it against the uninterrupted run."""
    root, report, cache = sweep
    done = _run(work, root)
    assert done.returncode == 0, done.stderr
    assert (work / "out" / "report.csv").read_bytes() == report
    assert (work / "cache.jsonl").read_bytes() == cache
    return done


@pytest.mark.parametrize("lines, part", [(0, 0), (200, 0.5), (500, 0)],
                         ids=["empty", "inside-line-201", "after-line-500"])
def test_kill_at_a_cache_size_reruns_to_the_same_bytes(sweep, work, lines, part):
    cache = sweep[2].splitlines(keepends=True)
    size = sum(map(len, cache[:lines])) + int(part * len(cache[lines]))
    _killed(work, sweep[0], "cache", str(size))
    # every line put before the kill is on disk: each append is flushed
    assert (work / "cache.jsonl").read_bytes() == sweep[2][:size]
    done = _rerun(work, sweep)
    assert ("skipped torn final cache line" in done.stderr) == (part > 0)
    assert list(work.rglob(".*.tmp")) == []


def test_kill_while_the_report_is_written_keeps_the_earlier_one(sweep, work):
    _killed(work, sweep[0], "report", "20")
    assert (work / "cache.jsonl").read_bytes() == sweep[2]  # the sweep was done
    stray = list(work.rglob(".*.tmp"))
    assert [p.parent for p in stray] == [work / "out"]
    assert re.fullmatch(r"\.report\.csv\.\d+\.tmp", stray[0].name)
    assert stray[0].read_bytes() == sweep[1][:20]
    _rerun(work, sweep)
    assert list(work.rglob(".*.tmp")) == stray  # the killed run's, not the re-run's


def _alive(pid: int) -> bool:
    """Whether process `pid` runs: it exists and is not a zombie."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not Path("/proc/self/stat").exists() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux /proc, and one usable CPU trains in-process")
def test_kill_while_a_worker_trains_reruns_to_the_same_bytes(sweep, work):
    killed = subprocess.Popen(_command(sweep[0], "worker", "0"), cwd=work, env=_ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    worker = int(killed.stdout.readline())
    try:
        assert killed.wait(timeout=60) == -signal.SIGKILL
        # the orphaned worker dies with the run (see the next test)
        t0 = time.monotonic()
        while _alive(worker) and time.monotonic() - t0 < 60:
            time.sleep(0.001)
        assert not _alive(worker)
    finally:
        if _alive(worker):
            os.kill(worker, signal.SIGKILL)
        killed.communicate(timeout=60)
    assert (work / "out" / "report.csv").read_bytes() == _EARLIER
    _rerun(work, sweep)
    assert list(work.rglob(".*.tmp")) == []


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux prctl and /proc, and one usable CPU trains in-process")
def test_a_killed_run_takes_its_busy_worker_with_it(sweep, work):
    # the worker would sleep 30 s before training: only the kill can end it soon
    killed = subprocess.Popen(_command(sweep[0], "worker", "30"), cwd=work, env=_ENV,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    worker = int(killed.stdout.readline())
    try:
        assert killed.wait(timeout=60) == -signal.SIGKILL
        t0 = time.monotonic()
        while _alive(worker) and time.monotonic() - t0 < 1:
            time.sleep(0.001)
        assert not _alive(worker)
    finally:
        if _alive(worker):
            os.kill(worker, signal.SIGKILL)
        killed.communicate(timeout=60)
    assert (work / "out" / "report.csv").read_bytes() == _EARLIER
