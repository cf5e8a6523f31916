import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from augbench.augment import AugTechnique
from augbench.corpus import (LABELS, SPLITS, Corpus, CorpusError, Document, carve_validation,
                             export_jsonl, ingest_imdb_dir, ingest_jsonl, replacing,
                             subsample_balanced)

from synth import make_review_corpus


class TestDocument:
    def test_unsup_split_requires_unsup_label(self):
        with pytest.raises(CorpusError):
            Document(id="x", text="t", label="pos", split="unsup")
        with pytest.raises(CorpusError):
            Document(id="x", text="t", label="unsup", split="train")

    @pytest.mark.parametrize("label, split, message", [
        ("positive", "train", "bad label 'positive' for document 'x'"),
        ("pos", "dev", "bad split 'dev' for document 'x'"),
    ])
    def test_unknown_label_or_split_rejected(self, label, split, message):
        with pytest.raises(CorpusError) as info:
            Document(id="x", text="t", label=label, split=split)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        ({"technique": "sr"}, "original documents carry no synthesis metadata"),
        ({"lang": "es"}, "original documents carry no synthesis metadata"),
        ({"parent": "p"}, "synthetic documents need technique and parent"),
        ({"parent": "", "technique": "sr"}, "synthetic documents need technique and parent"),
        ({"parent": "p", "technique": 5}, "origin technique, lang and parent must be strings"),
    ])
    def test_provenance_rules(self, fields, message):
        with pytest.raises(CorpusError, match=message):
            Document(id="x", text="t", label="pos", split="train", **fields)

    def test_synthetic_label_must_match_parent(self):
        parent = Document(id="p", text="t", label="pos", split="train")
        child = Document(id="c", text="t2", label="neg", split="train",
                         parent="p", technique="sr")
        with pytest.raises(CorpusError):
            Corpus([parent, child])

    def test_unresolved_parent_rejected(self):
        child = Document(id="c", text="t", label="pos", split="train",
                         parent="ghost", technique="sr")
        with pytest.raises(CorpusError):
            Corpus([child])

    def test_duplicate_ids_rejected(self):
        d = Document(id="x", text="t", label="pos", split="train")
        with pytest.raises(CorpusError):
            Corpus([d, d])

    def test_records_have_no_instance_dict(self):
        # a sweep holds every document for its whole run: slots, not a dict each
        doc = Document(id="c", text="t", label="pos", split="train",
                       parent="p", technique="sr")
        assert not hasattr(doc, "__dict__")

    def test_corpus_holds_only_its_documents(self):
        # the id index that checks ids and parents is not kept
        docs = [Document(id="p", text="t", label="pos", split="train"),
                Document(id="c", text="t2", label="pos", split="train",
                         parent="p", technique="sr")]
        corp = Corpus(iter(docs))
        assert vars(corp) == {"_docs": docs}
        assert vars(corp.with_documents([])) == {"_docs": docs}

    @pytest.mark.parametrize("fields", [
        {"text": "a \ud800 b"}, {"id": "\udfff"},
        {"parent": "p", "technique": "sr", "lang": "e\ud801"},
    ])
    def test_lone_surrogate_rejected(self, fields):
        # no output could hold it: every format is written as UTF-8
        with pytest.raises(CorpusError, match="is not valid UTF-8"):
            Document(**{"id": "x", "text": "t", "label": "pos", "split": "train", **fields})


class TestIngestImdb:
    def test_labels_from_paths(self, imdb_dir):
        corp = ingest_imdb_dir(imdb_dir)
        train = corp.split_docs("train")
        assert len(train) == 4
        assert sum(d.label == "pos" for d in train) == 2
        assert sum(d.label == "neg" for d in train) == 2
        assert all(d.is_original for d in corp)

    def test_unsup_dir_optional(self, tmp_path):
        from conftest import build_imdb_tree
        root = build_imdb_tree(tmp_path / "a", unsup=3)
        corp = ingest_imdb_dir(root)
        assert len(corp.split_docs("unsup")) == 3
        assert all(d.label == "unsup" for d in corp.split_docs("unsup"))

    def test_missing_subdir_named_in_error(self, tmp_path):
        root = tmp_path / "broken"
        for rel in ["train/pos", "test/pos", "test/neg"]:
            (root / rel).mkdir(parents=True)
        with pytest.raises(CorpusError, match="train/neg"):
            ingest_imdb_dir(root)

    def test_undecodable_file_named_in_error(self, imdb_dir):
        bad = imdb_dir / "train" / "pos" / "zz_bad.txt"
        bad.write_bytes(b"\xff\xfe\x00broken")
        with pytest.raises(CorpusError, match="zz_bad.txt"):
            ingest_imdb_dir(imdb_dir)

    def test_ids_are_forward_slash_relative_paths(self, imdb_dir):
        corp = ingest_imdb_dir(imdb_dir)
        assert "train/pos/0_7.txt" in [d.id for d in corp]


class TestJsonl:
    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            {"id": "b", "text": "two", "label": "neg", "split": "train",
             "origin": {"kind": "original"}},
            {"id": "a", "text": "one", "label": "pos", "split": "test",
             "origin": {"kind": "original"}},
            {"id": "c", "text": "three", "label": "unsup", "split": "unsup",
             "origin": {"kind": "original"}},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
        corp = ingest_jsonl(path)
        assert [d.id for d in corp] == ["b", "a", "c"]

    def test_ingested_documents_share_their_metadata(self, tmp_path):
        # every label and split is the module's own string, not one decoded per line
        path = tmp_path / "c.jsonl"
        lines = [
            {"id": "a", "text": "x", "label": "pos", "split": "train"},
            {"id": "b", "text": "x", "label": "neg", "split": "test",
             "origin": {"kind": "original"}},
            {"id": "c", "text": "x", "label": "unsup", "split": "unsup",
             "origin": {"kind": "original", "technique": None, "lang": None}},
            {"id": "d", "text": "x", "label": "pos", "split": "valid"},
            {"id": "e", "text": "y", "label": "pos", "split": "train",
             "origin": {"kind": "synthetic", "technique": "bt", "lang": "es", "parent": "a"}},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        corp = ingest_jsonl(path)
        assert [(d.parent, d.technique, d.lang) for d in corp] == \
               [(None, None, None)] * 4 + [("a", "bt", "es")]
        assert all(d.label is LABELS[LABELS.index(d.label)] for d in corp)
        assert all(d.split is SPLITS[SPLITS.index(d.split)] for d in corp)
        assert {d.split for d in corp} == set(SPLITS)

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps({"id": "a", "text": "x", "label": "pos", "split": "train"})
        path.write_text(good + "\n{not json}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            ingest_jsonl(path)

    @pytest.mark.parametrize("fields, message", [
        # a misspelled kind once loaded as an original, dropping its parent
        ({"origin": {"kind": "synthetc", "technique": "sr", "parent": "a"}},
         "unknown origin kind: 'synthetc'"),
        ({"origin": {"kind": "original", "parent": "a"}},
         "original documents carry no synthesis metadata"),
        # empty strings once loaded, and were written back as a bare original
        ({"origin": {"kind": "original", "technique": "", "lang": "", "parent": ""}},
         "original documents carry no synthesis metadata"),
        ({"origin": {"technique": "sr", "parent": "a"}}, "unknown origin kind: None"),
        ({"origin": {"kind": "synthetic", "parent": "a"}},
         "synthetic documents need technique and parent"),
        ({"origin": {"kind": "synthetic", "technique": 5, "parent": "a"}},
         "origin technique, lang and parent must be strings"),
        ({"origin": {"kind": "synthetic", "technique": "sr", "parent": ["a"]}},
         "origin technique, lang and parent must be strings"),
        ({"origin": 5}, "origin must be a mapping, got 5"),
        ({"id": 5}, "document id and text must be strings, id is 5"),
        ({"text": None}, "document id and text must be strings, id is 'b'"),
    ])
    def test_bad_field_cites_line(self, tmp_path, fields, message):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "text": "x", "label": "pos", "split": "train"}
        bad = {**good, "id": "b", **fields}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            ingest_jsonl(path)
        assert str(info.value).startswith(f"{path}: malformed document at line 2: ")
        assert message in str(info.value)

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = json.dumps({"id": "dup", "text": "x", "label": "pos", "split": "train"})
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="dup"):
            ingest_jsonl(path)

    # `Corpus` finds the duplicate by its position among documents; blank lines
    # around and between them shift the line it is reported at.
    @pytest.mark.parametrize("layout,line", [
        ("a b c a", 4), ("_ a _ b _ _ a _", 7), ("_ _ a a", 4), ("a b b _", 3),
        ("a _ _ _ b a", 6), ("a a a", 2),
    ])
    def test_duplicate_id_names_its_line_among_blank_lines(self, tmp_path, layout, line):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(
            "  \n" if name == "_" else
            json.dumps({"id": name, "text": "x", "label": "pos", "split": "train"}) + "\n"
            for name in layout.split()), encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            ingest_jsonl(path)
        dup = "b" if layout == "a b b _" else "a"
        assert str(info.value) == f"{path}: duplicate id {dup!r} at line {line}"

    # each check of a document against the others names the file and the line,
    # counting the blank line ahead of it
    @pytest.mark.parametrize("fields, problem", [
        ({"id": "a"}, "duplicate id 'a'"),
        ({"origin": {"kind": "synthetic", "technique": "sr", "parent": "zzz"}},
         "synthetic document 'b' has unresolved parent 'zzz'"),
        ({"origin": {"kind": "synthetic", "technique": "sr", "parent": "s"}},
         "synthetic document 'b' has a synthetic parent"),
        ({"label": "neg", "origin": {"kind": "synthetic", "technique": "sr", "parent": "a"}},
         "synthetic document 'b' label 'neg' differs from parent"),
    ])
    def test_check_against_other_documents_names_its_line(self, tmp_path, fields, problem):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "text": "x", "label": "pos", "split": "train"}
        copy = {**good, "id": "s", "origin": {"kind": "synthetic", "technique": "sr",
                                              "parent": "a"}}
        bad = {**good, "id": "b", **fields}
        path.write_text("".join(json.dumps(d) + "\n" for d in (good, copy)) + "\n"
                        + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError) as info:
            ingest_jsonl(path)
        assert str(info.value) == f"{path}: {problem} at line 4"

    @pytest.mark.parametrize("field,value", [
        ("text", "bad \ud800 text"), ("text", "\udfff"), ("id", "d\udc00"),
    ])
    def test_lone_surrogate_names_line_and_document(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "text": "x", "label": "pos", "split": "train"}
        bad = {**good, "id": "b", field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"line 2: document '.*' is not valid UTF-8"):
            ingest_jsonl(path)

    def test_surrogate_pair_escape_round_trips(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = json.dumps({"id": "a", "text": "ok \U0001f600", "label": "pos", "split": "train"})
        assert "\\ud83d\\ude00" in line  # json escapes it as a surrogate pair
        path.write_text(line + "\n", encoding="utf-8")
        corp = ingest_jsonl(path)
        export_jsonl(corp, tmp_path / "out.jsonl")
        assert [d.text for d in ingest_jsonl(tmp_path / "out.jsonl")] == ["ok \U0001f600"]

    def test_empty_corpus_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_jsonl(Corpus(), path)
        assert path.read_bytes() == b""
        assert len(ingest_jsonl(path)) == 0

    def test_single_doc_single_line(self, tmp_path):
        path = tmp_path / "one.jsonl"
        export_jsonl(Corpus([Document(id="a", text="hi", label="pos", split="train")]), path)
        assert path.read_text(encoding="utf-8").count("\n") == 1

    def test_export_is_byte_deterministic(self, tmp_path, small_corpus):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_jsonl(small_corpus, p1)
        export_jsonl(small_corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestReplacing:
    def test_kill_mid_export_keeps_the_old_file(self, tmp_path, small_corpus):
        # The child is killed after writing 200 lines of about 1 kB, far past
        # the write buffer, so part of the new corpus has reached the disk.
        child = """if True:
            import os, signal, sys
            from augbench.corpus import Corpus, Document, export_jsonl

            class Dying(Corpus):
                def __iter__(self):
                    for i, doc in enumerate(super().__iter__()):
                        if i == 200:
                            os.kill(os.getpid(), signal.SIGKILL)
                        yield doc

            export_jsonl(Dying(Document(id=f"d{i}", text="word " * 200, label="pos",
                                        split="train") for i in range(400)), sys.argv[1])
        """
        import augbench

        path = tmp_path / "c.jsonl"
        export_jsonl(small_corpus, path)
        old = path.read_bytes()
        env = dict(os.environ, PYTHONPATH=str(Path(augbench.__file__).parent.parent))
        run = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == -signal.SIGKILL, run.stderr
        assert path.read_bytes() == old
        stray = [p for p in tmp_path.iterdir() if p != path]
        assert len(stray) == 1 and re.fullmatch(r"\.c\.jsonl\.\d+\.tmp", stray[0].name)
        assert stray[0].stat().st_size > 100_000

    def test_raising_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError):
            with replacing(path, "w") as fh:
                fh.write("new\n" * 10_000)
                fh.flush()
                raise RuntimeError
        assert path.read_bytes() == b"old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        with replacing(link, "wb") as fh:
            fh.write(b"new\n")
        assert not link.is_symlink() and link.read_bytes() == b"new\n"
        assert target.read_bytes() == b"old\n"

    @pytest.mark.parametrize("mode", ["r", "a", "w+", "wt", "x"])
    def test_other_modes_refused(self, tmp_path, mode):
        with pytest.raises(KeyError):
            with replacing(tmp_path / "out.txt", mode):
                pass
        assert list(tmp_path.iterdir()) == []


_doc_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80)
_labels = st.sampled_from([("pos", "train"), ("neg", "train"), ("pos", "test"),
                           ("neg", "test"), ("unsup", "unsup")])


@st.composite
def corpora(draw):
    """Originals, then copies of labelled ones, each copy with its parent's label
    and split, one of the five techniques and a pivot or none."""
    n = draw(st.integers(min_value=0, max_value=12))
    docs = []
    for i in range(n):
        label, split = draw(_labels)
        docs.append(Document(id=f"doc{i}", text=draw(_doc_text), label=label, split=split))
    labelled = [d for d in docs if d.label != "unsup"]
    if labelled:
        for i in range(draw(st.integers(min_value=0, max_value=6))):
            parent = draw(st.sampled_from(labelled))
            docs.append(Document(
                id=f"copy{i}", text=draw(_doc_text), label=parent.label, split=parent.split,
                parent=parent.id, technique=draw(st.sampled_from([t.value for t in AugTechnique])),
                lang=draw(st.sampled_from([None, "es", "fr", "de"]))))
    return Corpus(docs)


@given(corpora())
@settings(max_examples=200, deadline=None)
def test_jsonl_round_trip_is_identity(tmp_path_factory, corp):
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    export_jsonl(corp, path)
    assert list(ingest_jsonl(path)) == list(corp)


class TestSubsample:
    def test_balanced_counts(self):
        corp = make_review_corpus(n_train=100, n_test=10)
        sub = subsample_balanced(corp, 50, seed=0)
        train = sub.split_docs("train")
        assert len(train) == 50
        assert sum(d.label == "pos" for d in train) == 25

    def test_odd_n_gives_extra_positive(self):
        corp = make_review_corpus(n_train=100, n_test=10)
        train = subsample_balanced(corp, 7, seed=3).split_docs("train")
        assert sum(d.label == "pos" for d in train) == 4
        assert sum(d.label == "neg" for d in train) == 3

    def test_full_size_is_noop(self):
        corp = make_review_corpus(n_train=40, n_test=4)
        sub = subsample_balanced(corp, 40, seed=9)
        assert {d.id for d in sub.split_docs("train")} == \
               {d.id for d in corp.split_docs("train")}

    def test_deterministic_and_seed_sensitive(self):
        corp = make_review_corpus(n_train=200, n_test=10)
        ids = lambda s: {d.id for d in s.split_docs("train")}
        assert ids(subsample_balanced(corp, 50, 7)) == ids(subsample_balanced(corp, 50, 7))
        assert ids(subsample_balanced(corp, 50, 7)) != ids(subsample_balanced(corp, 50, 8))

    def test_other_splits_pass_through(self):
        corp = make_review_corpus(n_train=40, n_test=20)
        sub = subsample_balanced(corp, 10, seed=0)
        assert len(sub.split_docs("test")) == 20

    def test_insufficient_documents_reports_counts(self):
        corp = make_review_corpus(n_train=10, n_test=2)
        with pytest.raises(CorpusError, match="insufficient"):
            subsample_balanced(corp, 50, seed=0)

    def test_synthetics_not_eligible(self):
        corp = make_review_corpus(n_train=10, n_test=2)
        parent = corp.split_docs("train")[0]
        corp = corp.with_documents([Document(
            id="syn", text="x", label=parent.label, split="train",
            parent=parent.id, technique="sr")])
        sub = subsample_balanced(corp, 10, seed=0)
        assert "syn" not in {d.id for d in sub.split_docs("train")}


class TestCarveValidation:
    def test_balanced_and_seeded(self):
        corp = make_review_corpus(n_train=100, n_test=10)
        carved = carve_validation(corp, 0.1, seed=0)
        valid = carved.split_docs("valid")
        assert len(valid) == 10
        assert sum(d.label == "pos" for d in valid) == 5
        again = carve_validation(corp, 0.1, seed=0)
        assert {d.id for d in again.split_docs("valid")} == {d.id for d in valid}

    def test_document_total_preserved(self):
        corp = make_review_corpus(n_train=50, n_test=10)
        carved = carve_validation(corp, 0.2, seed=1)
        assert len(carved) == len(corp)
