"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single
``[ACCEPTANCE] PASS/FAIL`` line (run with ``pytest -s`` to see them all).
The two full-dataset checks use a real IMDB tree when AUGBENCH_IMDB_DIR
points at an aclImdb directory and fall back to the bundled synthetic
review corpus otherwise.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from augbench.analyze import (cross_validate_l1, fit_l1_logistic, standardize)
from augbench.augment import (AugmentSpec, Thesaurus, bundled_stopwords,
                              bundled_thesaurus, augment_dataset, eligible_positions,
                              random_delete, random_insert, random_swap, synonym_replace)
from augbench.classify import PredictionTable, TrainConfig, predict_corpus, train
from augbench.corpus import export_jsonl, ingest_imdb_dir
from augbench.ensemble import SimplexWeights, calibration_report, combine, fit_weights, log_loss
from augbench.experiment import ExperimentConfig, run_low_resource_sweep
from augbench.translate import (MockProvider, ReplayProvider, TranslationCache, backtranslate,
                                paper_cache_path)

from digests import file_sha256
from synth import TABLE2_LANGUAGES, make_review_corpus


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] FAIL {name}", flush=True)
        raise
    print(f"\n[ACCEPTANCE] PASS {name}", flush=True)


def _imdb_corpus():
    """Real IMDB tree when configured, else None."""
    root = os.environ.get("AUGBENCH_IMDB_DIR")
    if root and Path(root).is_dir():
        return ingest_imdb_dir(root)
    return None


def _test_accuracy(model, corp):
    """Accuracy at p >= 0.5 on the labeled test documents."""
    labels = {d.id: d.label for d in corp.split_docs("test") if d.label in ("pos", "neg")}
    return calibration_report(predict_corpus(model, corp, "s"), "s", labels).accuracy


# -- 1. perturbation ops match brute-force enumeration ------------------------

def _swap_distribution(seq):
    """Exact outcome distribution of random_swap with one swap."""
    if len(seq) < 2:
        return {tuple(seq): 1.0}
    pairs = list(itertools.combinations(range(len(seq)), 2))
    dist = {}
    for i, j in pairs:
        out = list(seq)
        out[i], out[j] = out[j], out[i]
        dist[tuple(out)] = dist.get(tuple(out), 0.0) + 1.0 / len(pairs)
    return dist


def _delete_distribution(seq, p):
    """Exact outcome distribution of random_delete: independent drops at rate p,
    with the all-deleted case replaced by one uniformly retained token."""
    L = len(seq)
    dist = {}
    for keep in itertools.product([False, True], repeat=L):
        kept = tuple(t for t, k in zip(seq, keep) if k)
        prob = (1 - p) ** sum(keep) * p ** (L - sum(keep))
        if kept:
            dist[kept] = dist.get(kept, 0.0) + prob
        else:
            for t in seq:
                dist[(t,)] = dist.get((t,), 0.0) + prob / L
    return dist


def test_01_perturbation_ops_match_enumeration():
    with criterion("1. swap/delete outcome supports and frequencies match "
                   "brute-force enumeration"):
        t0 = time.monotonic()
        vocab = ["red", "green", "blue"]
        sequences = [seq for L in range(1, 5)
                     for seq in itertools.product(vocab, repeat=L)]
        draws = 3000
        for op_name, op, exact in [
            ("swap", lambda s, seed: random_swap(s, 0.0, seed),
             _swap_distribution),
            ("delete", lambda s, seed: random_delete(s, 0.3, seed),
             lambda s: _delete_distribution(s, 0.3)),
        ]:
            # both ops act purely on positions, so run each once per
            # (length, seed) on distinct markers and map the resulting index
            # pattern onto every vocabulary sequence of that length
            patterns = {
                L: [[int(m) for m in op([str(i) for i in range(L)], seed)]
                    for seed in range(draws)]
                for L in range(1, 5)
            }
            stat, dof = 0.0, 0
            for seq in sequences:
                expected = exact(seq)
                counts = {}
                for pattern in patterns[len(seq)]:
                    out = tuple(seq[i] for i in pattern)
                    counts[out] = counts.get(out, 0) + 1
                assert set(counts) == set(expected), (op_name, seq)
                if len(expected) > 1:
                    for out, prob in expected.items():
                        e = draws * prob
                        stat += (counts.get(out, 0) - e) ** 2 / e
                    dof += len(expected) - 1
            p_value = chi2.sf(stat, dof)
            assert p_value > 0.01, (op_name, stat, dof, p_value)
        assert time.monotonic() - t0 < 10.0


# -- 2. byte-identical reruns -------------------------------------------------

def _pipeline_hashes(out_dir):
    out_dir.mkdir()
    corp = make_review_corpus(n_train=140, n_test=40, seed=7, n_unsup=20)
    export_jsonl(corp, out_dir / "corpus.jsonl")

    sr = augment_dataset(corp, AugmentSpec(technique="sr", alpha=0.1, seed=5))
    export_jsonl(sr.corpus, out_dir / "augmented_sr.jsonl")

    with TranslationCache(out_dir / "cache.jsonl") as cache:
        bt = augment_dataset(corp, AugmentSpec(technique="bt", languages=("es", "bn")),
                             translator=MockProvider(0), cache=cache)
    export_jsonl(bt.corpus, out_dir / "augmented_bt.jsonl")

    model = train(sr.corpus, TrainConfig(bits=14, epochs=2))
    model.save(out_dir / "model.npz")
    predict_corpus(model, corp, "baseline").to_csv(out_dir / "preds.csv", "baseline")

    cfg = ExperimentConfig(train_sizes=[50], seeds=[0, 1],
                           classifier=TrainConfig(bits=14, epochs=2))
    run_low_resource_sweep(cfg, corp).write_csv(out_dir / "report.csv")

    return {p.name: file_sha256(p) for p in sorted(out_dir.iterdir())}


def test_02_pipeline_rerun_is_byte_identical(tmp_path):
    with criterion("2. every stage of two full pipeline runs hashes identically"):
        t0 = time.monotonic()
        first = _pipeline_hashes(tmp_path / "run1")
        second = _pipeline_hashes(tmp_path / "run2")
        assert first == second
        assert len(first) == 7
        assert time.monotonic() - t0 < 60.0


# -- 3. module invariants as bulk property suites -----------------------------

def _random_tokens(rng, thesaurus):
    vocab = list(thesaurus.words())[:40] + ["zzz", "qqq", ",", "the", "and"]
    return [rng.choice(vocab) for _ in range(rng.randint(1, 12))]


def test_03_invariant_property_suites():
    with criterion("3. module invariants hold over 1000 random cases per suite"):
        t0 = time.monotonic()
        rng = random.Random(0)
        thesaurus = bundled_thesaurus()
        stops = bundled_stopwords()

        for i in range(1000):
            toks = _random_tokens(rng, thesaurus)
            alpha = rng.random() * 0.5
            eligible = eligible_positions(toks, thesaurus, stops)
            sr = synonym_replace(toks, eligible, alpha, thesaurus, i)
            assert len(sr) == len(toks)
            rs = random_swap(toks, alpha, i)
            assert sorted(rs) == sorted(toks)
            ri = random_insert(toks, eligible, alpha, thesaurus, i)
            assert len(ri) >= len(toks)
            it = iter(ri)
            assert all(t in it for t in toks)  # originals stay a subsequence
            rd = random_delete(toks, alpha, i)
            assert rd
            it = iter(toks)
            assert all(t in it for t in rd)  # output is a subsequence

        generated = 0
        while generated < 1000:
            seed = rng.randint(0, 10 ** 6)
            corp = make_review_corpus(n_train=20, n_test=2, seed=seed)
            out = augment_dataset(
                corp, AugmentSpec(technique="rd", alpha=0.2, copies_per_original=3,
                                  seed=seed)).corpus
            by_id = {d.id: d for d in out}
            for d in out:
                if d.origin.kind != "synthetic":
                    continue
                parent = by_id[d.origin.parent]
                assert d.label == parent.label and d.split == parent.split
                generated += 1

        for i in range(1000):
            k = rng.randint(2, 6)
            raw = [rng.random() + 1e-6 for _ in range(k)]
            total = sum(raw)
            w = SimplexWeights({f"s{j}": v / total for j, v in enumerate(raw)})
            ps = {f"s{j}": rng.random() for j in range(k)}
            t = PredictionTable()
            for s, p in ps.items():
                t.add("d", s, p)
            mixed = combine(t, w, ["d"]).get("d", "ensemble")
            assert min(ps.values()) - 1e-12 <= mixed <= max(ps.values()) + 1e-12

        np_rng = np.random.RandomState(1)
        for _ in range(1000):
            X = np_rng.randn(np_rng.randint(5, 30), np_rng.randint(2, 5)) * 3 + 1
            Xs, _, _ = standardize(X)
            nonconst = X.std(axis=0) > 0
            assert np.all(np.abs(Xs.mean(axis=0)) < 1e-9)
            assert np.all(np.abs(Xs[:, nonconst].std(axis=0) - 1.0) < 1e-9)

        for i in range(1000):
            X = np_rng.randn(25, 4)
            y = np_rng.randint(0, 2, 25).astype(float)
            if len(np.unique(y)) < 2:
                continue
            fit = fit_l1_logistic(X, y, 1e6, max_sweeps=50)
            assert np.all(fit.coefficients == 0.0)

        for i in range(1000):
            n_docs, n_src = rng.randint(1, 8), rng.randint(1, 4)
            t = PredictionTable()
            for d in range(n_docs):
                for s in range(n_src):
                    t.add(f"d{d}", f"s{s}", rng.random())
            vertex = rng.randrange(n_src)
            w = SimplexWeights({f"s{s}": 1.0 if s == vertex else 0.0
                                for s in range(n_src)})
            out = combine(t, w, [f"d{d}" for d in range(n_docs)])
            for d in range(n_docs):
                assert out.get(f"d{d}", "ensemble") == t.get(f"d{d}", f"s{vertex}")

        assert time.monotonic() - t0 < 300.0


# -- 4. fitted ensemble weights never lose to a single source -----------------

def test_04_fitted_weights_never_worse_than_best_source():
    with criterion("4. fitted simplex weights beat or tie every single source "
                   "on 100 random tables"):
        rng = random.Random(11)
        for _ in range(100):
            n_docs, n_src = rng.randint(4, 50), rng.randint(2, 6)
            t = PredictionTable()
            labels = {}
            for d in range(n_docs):
                doc = f"d{d}"
                labels[doc] = "pos" if rng.random() < 0.5 else "neg"
                for s in range(n_src):
                    t.add(doc, f"s{s}", rng.random())
            sources = t.sources
            docs = t.doc_ids(sources[0])
            y = np.array([1.0 if labels[d] == "pos" else 0.0 for d in docs])
            w = fit_weights(t, labels)
            fitted = combine(t, w, docs)
            fitted_loss = log_loss(
                np.array([fitted.get(d, "ensemble") for d in docs]), y)
            for s in sources:
                vertex_loss = log_loss(np.array([t.get(d, s) for d in docs]), y)
                assert fitted_loss <= vertex_loss


# -- 5. paired low-resource comparison table ----------------------------------

def test_05_low_resource_comparison_table():
    with criterion("5. paired low-resource sweep produces the two-size "
                   "comparison table (effect sign recorded, not asserted)"):
        t0 = time.monotonic()
        corp = _imdb_corpus()
        synthetic = corp is None
        if synthetic:
            corp = make_review_corpus(n_train=2500, n_test=500, seed=0)

        cfg_kw = dict(train_sizes=[50, 1000], seeds=[0, 1, 2],
                      classifier=TrainConfig(bits=16, epochs=2))
        baseline = run_low_resource_sweep(ExperimentConfig(**cfg_kw), corp)
        bt_spec = AugmentSpec(technique="bt", languages=TABLE2_LANGUAGES)
        cache = TranslationCache()
        augmented = run_low_resource_sweep(
            ExperimentConfig(augment=bt_spec, **cfg_kw), corp,
            provider=MockProvider(0), cache=cache)

        for rep in (baseline, augmented):
            assert not rep.failures
            assert len(rep.rows) == 6          # 2 sizes x 3 seeds
            assert len(rep.aggregate()) == 2   # one median per size
        pair = {(r.n, r.seed): r.subsample for r in baseline.rows}
        for r in augmented.rows:
            assert pair[(r.n, r.seed)] == r.subsample  # same draws in both arms

        med = {("none", r.n): r.error for r in baseline.aggregate()}
        med.update({("bt", r.n): r.error for r in augmented.aggregate()})
        print(f"\n    corpus: {'synthetic reviews' if synthetic else 'IMDB'}")
        print("    technique      error@50   error@1000")
        print(f"    none           {med[('none', 50)]:.4f}     {med[('none', 1000)]:.4f}")
        print(f"    bt (10 langs)  {med[('bt', 50)]:.4f}     {med[('bt', 1000)]:.4f}")
        for n in (50, 1000):
            delta = med[("bt", n)] - med[("none", n)]
            sign = "helps" if delta < 0 else "hurts" if delta > 0 else "ties"
            print(f"    effect at N={n}: {delta:+.4f} ({sign})")
        assert time.monotonic() - t0 < 900.0


# -- 6. pre-seeded cache replays the published Spanish round trip -------------

def test_06_cached_spanish_backtranslation_replay():
    with criterion("6. cached Spanish round trip reproduces the published "
                   "paraphrase exactly"):
        cache = TranslationCache()
        cache.load(paper_cache_path())
        rec = backtranslate(
            "A sad human comedy played out on the back roads of life.",
            "es", ReplayProvider(), cache)
        assert rec.final_text == ("A sad human comedy that develops in the "
                                  "secondary roads of life.")
        assert rec.cache_hits == 2  # the replay provider fails any live call


# -- 7. L1 support recovery at cross-validated penalty ------------------------

def test_07_l1_support_recovery():
    with criterion("7. sparse regression recovers the true support in >= 95 "
                   "of 100 random datasets"):
        t0 = time.monotonic()
        grid = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
        recovered = 0
        for i in range(100):
            rng = np.random.RandomState(i)
            X = rng.randn(400, 6)
            X[:, 5] = np.abs(X[:, 5]) + 1  # sentence counts are >= 1
            Xs, _, _ = standardize(X)
            # target depends only on the `last` feature (column 0)
            y = rng.binomial(1, 1 / (1 + np.exp(-2.0 * Xs[:, 0]))).astype(float)
            lam = cross_validate_l1(Xs, y, grid=grid, se_multiplier=2.0)
            fit = fit_l1_logistic(Xs, y, lam)
            if fit.coefficients[0] != 0.0 and all(
                    fit.coefficients[j] == 0.0 for j in (3, 4, 5)):
                recovered += 1
        assert recovered >= 95, recovered
        assert time.monotonic() - t0 < 60.0


# -- 8. calibration numbers match raw-CSV recomputation -----------------------

def test_08_calibration_matches_raw_csv(tmp_path):
    with criterion("8. calibration stats match independent recomputation from "
                   "the raw CSV to 1e-12"):
        rng = random.Random(13)
        t = PredictionTable()
        for i in range(1000):
            t.add(f"d{i}", "s", rng.random())
        path = tmp_path / "preds.csv"
        t.to_csv(path, "s")

        ps = [float(line.split(",")[1])
              for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(ps) == 1000
        conf = sum(1 for p in ps if p < 0.1 or p > 0.9) / len(ps)
        mean = sum(ps) / len(ps)
        std = (sum((p - mean) ** 2 for p in ps) / len(ps)) ** 0.5
        rep = calibration_report(t, "s")
        assert abs(rep.frac_confident - conf) <= 1e-12
        assert abs(rep.pred_std - std) <= 1e-12

        two_point = PredictionTable()
        for i in range(10):
            two_point.add(f"d{i}", "s", 1.0 if i % 2 == 0 else 0.5)
        rep2 = calibration_report(two_point, "s")
        assert (rep2.frac_confident, rep2.pred_std) == (0.5, 0.25)

        extreme = PredictionTable()
        for i in range(10):
            extreme.add(f"d{i}", "s", 1.0 if i % 2 == 0 else 0.0)
        rep3 = calibration_report(extreme, "s")
        assert (rep3.frac_confident, rep3.pred_std) == (1.0, 0.5)


# -- 9. built-in classifier accuracy floor ------------------------------------

def test_09_classifier_accuracy_floor():
    with criterion("9. built-in classifier meets the pinned test-accuracy floor"):
        t0 = time.monotonic()
        corp = _imdb_corpus()
        if corp is not None:
            model = train(corp)
            acc = _test_accuracy(model, corp)
            print(f"\n    IMDB test accuracy: {acc:.4f}")
            assert acc >= 0.85  # pinned floor; expected band 0.85-0.90
        else:
            corp = make_review_corpus(n_train=400, n_test=200, seed=3)
            model = train(corp, TrainConfig(bits=16, epochs=3))
            acc = _test_accuracy(model, corp)
            print(f"\n    synthetic-review test accuracy: {acc:.4f} "
                  "(set AUGBENCH_IMDB_DIR for the full-dataset check)")
            assert acc >= 0.9
        assert time.monotonic() - t0 < 600.0
