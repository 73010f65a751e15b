"""Tests for corpus loading, encoding, folds, and the synthetic generators."""

import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stancenet import textdata as td
from stancenet.textdata import (
    PAD_ID,
    UNK_ID,
    RawArticle,
)


class TestSplitSentences:
    def test_basic_split(self):
        assert td.split_sentences("a b <sep> c") == [["a", "b"], ["c"]]

    def test_only_separators_yields_nothing(self):
        assert td.split_sentences("<sep> <sep>") == []

    def test_hand_traced_split(self):
        assert td.split_sentences("x <sep> y z <sep> w") == [["x"], ["y", "z"], ["w"]]

    def test_empty_body(self):
        assert td.split_sentences("") == []


class TestBuildVocab:
    def test_sorted_ids_after_reserved(self):
        vocab = td.build_vocab([RawArticle("b", "a", 0)])
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_deterministic(self):
        corpus = [RawArticle("t one", "w x <sep> y", 0), RawArticle("t two", "z", 1)]
        v1, v2 = td.build_vocab(corpus), td.build_vocab(list(corpus))
        assert v1.id_to_token == v2.id_to_token

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            td.build_vocab([])

    def test_size_is_distinct_tokens_plus_two(self):
        corpus = [
            RawArticle("alpha beta", "gamma delta <sep> alpha", 0),
            RawArticle("beta", "epsilon", 1),
            RawArticle("zeta", "gamma", 0),
        ]
        distinct = {"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
        assert len(td.build_vocab(corpus)) == len(distinct) + 2

    def test_repeated_token_in_a_vocabulary_file_rejected(self, tmp_path):
        """A repeated token would leave its first id dead; the error names both ids."""
        path = tmp_path / "vocab.txt"
        path.write_text("<pad>\n<unk>\nfoo\nbar\nfoo\n")
        with pytest.raises(ValueError, match=r"vocab.txt: token 'foo' is repeated, "
                                             r"at ids 2 and 4"):
            td.Vocabulary.load(path)

    def test_separator_never_enters_vocab(self):
        vocab = td.build_vocab([RawArticle("a", "b <sep> c", 0)])
        assert "<sep>" not in vocab.token_to_id


class TestEncodeArticle:
    def test_padding_and_masks(self):
        vocab = td.build_vocab([RawArticle("t", "aa bb", 0)])
        enc = td.encode_article(RawArticle("t", "aa bb", 0), vocab, n=4, l=2)
        aa, bb = vocab.token_to_id["aa"], vocab.token_to_id["bb"]
        assert enc.sentences[0].tolist() == [aa, bb, PAD_ID, PAD_ID]
        assert enc.word_masks[0].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert enc.sentence_mask.tolist() == [1.0, 0.0]
        assert enc.sentences[1].tolist() == [PAD_ID] * 4

    def test_literal_pad_token_encodes_as_unk(self):
        """Id 0 means padding only: a ``<pad>`` in a body or a title is an unknown word,
        and its mask is 1 like any word's."""
        vocab = td.build_vocab([RawArticle("a b", "a b", 0)])
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        enc = td.encode_article(RawArticle("<pad> b", "a <pad> b", 0), vocab, n=4, l=1)
        assert enc.sentences[0].tolist() == [a, UNK_ID, b, PAD_ID]
        assert enc.word_masks[0].tolist() == [1.0, 1.0, 1.0, 0.0]
        assert enc.title.tolist() == [UNK_ID, b, PAD_ID, PAD_ID]
        assert enc.title_mask.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_unknown_token_maps_to_unk(self):
        vocab = td.build_vocab([RawArticle("t", "known", 0)])
        enc = td.encode_article(RawArticle("t", "mystery known", 0), vocab, n=3, l=1)
        assert enc.sentences[0, 0] == UNK_ID

    def test_sentence_truncation_keeps_first(self):
        vocab = td.build_vocab([RawArticle("t", "a <sep> b <sep> c", 0)])
        enc = td.encode_article(RawArticle("t", "a <sep> b <sep> c", 0), vocab, n=2, l=2)
        assert enc.sentences[0, 0] == vocab.token_to_id["a"]
        assert enc.sentences[1, 0] == vocab.token_to_id["b"]
        assert enc.sentence_mask.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("n,l", [(0, 2), (2, 0), (-1, -1)])
    def test_limits_below_one_rejected(self, n, l):
        vocab = td.build_vocab([RawArticle("t", "a", 0)])
        with pytest.raises(ValueError, match=f"n={n}, l={l}"):
            td.encode_article(RawArticle("t", "a", 0), vocab, n=n, l=l)

    def test_empty_body_rejected(self):
        vocab = td.build_vocab([RawArticle("t", "a", 0)])
        with pytest.raises(ValueError, match="no sentences"):
            td.encode_article(RawArticle("t", "<sep>", 0), vocab, n=2, l=2)

    def test_round_trip_to_source_tokens(self):
        corpus = [RawArticle("head line", "one two three <sep> four five", 0)]
        vocab = td.build_vocab(corpus)
        enc = td.encode_article(corpus[0], vocab, n=4, l=3)
        source = set("one two three four five head line".split())
        for row, mask_row in zip(enc.sentences, enc.word_masks):
            for idx, m in zip(row, mask_row):
                if m == 1.0:
                    assert vocab.id_to_token[idx] in source or idx == UNK_ID


words = st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee"]), max_size=6)


class TestEncodeProperties:
    @settings(max_examples=60, deadline=None)
    @given(articles=st.lists(st.tuples(st.lists(words, max_size=6), words), min_size=1,
                             max_size=4),
           known=words, n=st.integers(1, 5), l=st.integers(1, 5))
    def test_truncation_masks_and_padding(self, articles, known, n, l):
        """Rows and columns keep the first l sentences and n tokens; a mask is 1
        exactly over a kept token, which holds its vocabulary id, and PAD elsewhere."""
        assume(all(any(sentences) for sentences, _ in articles))
        corpus = [RawArticle(" ".join(title), " <sep> ".join(" ".join(s) for s in sentences), 0)
                  for sentences, title in articles]
        vocab = td.build_vocab([RawArticle("", " ".join(known), 0)])
        encoded = td.encode_corpus(corpus, vocab, n, l)
        assert len(encoded) == len(corpus)
        for (sentences, title), enc in zip(articles, encoded):
            kept = [s[:n] for s in sentences if s][:l]
            want_ids = np.full((l, n), PAD_ID)
            want_masks = np.zeros((l, n))
            for j, tokens in enumerate(kept):
                want_ids[j, : len(tokens)] = [vocab.lookup(t) for t in tokens]
                want_masks[j, : len(tokens)] = 1.0
            assert np.array_equal(enc.sentences, want_ids)
            assert np.array_equal(enc.word_masks, want_masks)
            assert enc.sentence_mask.tolist() == [1.0] * len(kept) + [0.0] * (l - len(kept))
            title = title[:n]
            pad = n - len(title)
            assert enc.title.tolist() == [vocab.lookup(t) for t in title] + [PAD_ID] * pad
            assert enc.title_mask.tolist() == [1.0] * len(title) + [0.0] * pad


class TestMakeFolds:
    def test_645_by_10_sizes(self):
        folds = td.make_folds(645, 10, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [64] * 5 + [65] * 5

    def test_six_by_three(self):
        folds = td.make_folds(6, 3, seed=1)
        assert [len(f) for f in folds] == [2, 2, 2]

    def test_union_is_partition(self):
        folds = td.make_folds(101, 7, seed=2)
        flat = sorted(i for f in folds for i in f)
        assert flat == list(range(101))

    def test_partition_property_random_sizes(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            size = int(rng.integers(2, 10001))
            k = int(rng.integers(2, min(size, 12) + 1))
            folds = td.make_folds(size, k, seed=int(rng.integers(0, 1000)))
            flat = sorted(i for f in folds for i in f)
            assert flat == list(range(size))
            assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_deterministic_per_seed(self):
        assert td.make_folds(50, 5, seed=3) == td.make_folds(50, 5, seed=3)

    def test_k_larger_than_size_rejected(self):
        with pytest.raises(ValueError):
            td.make_folds(3, 4, seed=0)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(ValueError, match=f"fold count must be >= 2, got {k}"):
            td.make_folds(10, k, seed=0)


def bow_majority_oracle(article: RawArticle, classes: int) -> int:
    """Count marker tokens per class and vote; ties go to the lowest class."""
    votes = [0] * classes
    for token in (article.title + " " + article.body).split():
        for c in range(classes):
            if token.startswith(f"marker{c}w"):
                votes[c] += 1
    return int(np.argmax(votes))


class TestGenSynthetic:
    def test_balanced_labels(self):
        corpus = td.gen_synthetic(20, 2, 3, seed=0)
        counts = Counter(a.label for a in corpus)
        assert counts[0] == 10 and counts[1] == 10

    def test_deterministic(self):
        a = td.gen_synthetic(12, 3, 2, seed=5)
        b = td.gen_synthetic(12, 3, 2, seed=5)
        assert [(x.title, x.body, x.label) for x in a] == [(x.title, x.body, x.label) for x in b]

    def test_bow_oracle_reaches_perfect_accuracy(self):
        corpus = td.gen_synthetic(40, 3, 3, seed=7)
        hits = sum(bow_majority_oracle(a, 3) == a.label for a in corpus)
        assert hits == len(corpus)

    def test_titles_contain_a_marker(self):
        for a in td.gen_synthetic(15, 2, 2, seed=9):
            assert any(t.startswith(f"marker{a.label}w") for t in a.title.split())

    @pytest.mark.parametrize("args,name", [((0, 2, 3), "num_articles"),
                                           ((-3, 2, 3), "num_articles"),
                                           ((4, 2, 0), "planted_tokens_per_class"),
                                           ((4, 1, 3), "classes")])
    def test_unusable_count_rejected_naming_it(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            td.gen_synthetic(*args)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        corpus = td.gen_synthetic(10, 2, 2, seed=1)
        path = tmp_path / "corpus.jsonl"
        td.save_corpus(path, corpus, classes=2)
        loaded, classes = td.load_corpus(path)
        assert classes == 2
        assert [(a.title, a.body, a.label) for a in loaded] == [
            (a.title, a.body, a.label) for a in corpus
        ]

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(st.tuples(st.text(max_size=12), st.text(max_size=12),
                                      st.integers(0, 3)), min_size=1, max_size=8),
           extra=st.integers(0, 3))
    def test_round_trip_keeps_declared_classes(self, records, extra):
        """A classes= header above the largest label survives a save and a load."""
        articles = [RawArticle(*record) for record in records]
        classes = max(a.label for a in articles) + 1 + extra
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            td.save_corpus(path, articles, classes=classes)
            loaded, loaded_classes = td.load_corpus(path)
        assert loaded_classes == classes
        assert loaded == articles

    def test_classes_inferred_without_header(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        td.save_corpus(path, [RawArticle("t", "a", 0), RawArticle("t", "b", 2)])
        _, classes = td.load_corpus(path)
        assert classes == 3

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "t", "body": "b", "label": 0}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            td.load_corpus(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        """Blank and whitespace-only lines hold no article but keep their line numbers."""
        record = '{"title": "t", "body": "b", "label": 1}'
        path = tmp_path / "blank.jsonl"
        path.write_text(f"\n{record}\n  \n\n{record}\n")
        loaded, classes = td.load_corpus(path)
        assert loaded == [RawArticle("t", "b", 1)] * 2 and classes == 2
        path.write_text(f"{record}\n\n \t\nnot json\n")
        with pytest.raises(ValueError, match=":4:"):
            td.load_corpus(path)

    def test_extra_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "t", "body": "b", "label": 0, "extra": 1}\n')
        with pytest.raises(ValueError, match="exactly the keys"):
            td.load_corpus(path)

    @pytest.mark.parametrize("key,value", [("title", "null"), ("body", '["a", "b"]'),
                                           ("title", "7"), ("body", "{}")],
                             ids=["title_null", "body_list", "title_number", "body_object"])
    def test_non_string_title_or_body_rejected(self, tmp_path, key, value):
        """A title or body that is not a JSON string is refused, not read through str()."""
        fields = {"title": '"t"', "body": '"a b"', key: value}
        path = tmp_path / "bad.jsonl"
        path.write_text('{"title": "t", "body": "b", "label": 0}\n'
                        f'{{"title": {fields["title"]}, "body": {fields["body"]}, "label": 0}}\n')
        message = f"^{re.escape(str(path))}:2: {key} must be a string$"
        with pytest.raises(ValueError, match=message):
            td.load_corpus(path)

    def test_benchmark_shaped_class_distribution(self, tmp_path):
        # 645 articles split 407/238 across two classes
        articles = [
            RawArticle(f"title {i}", f"word{i} more <sep> tail", 0 if i < 407 else 1)
            for i in range(645)
        ]
        path = tmp_path / "benchmark_shaped.jsonl"
        td.save_corpus(path, articles, classes=2)
        loaded, classes = td.load_corpus(path)
        assert td.class_histogram(loaded, classes) == [407, 238]


class TestEncodedFiles:
    def test_save_load_round_trip(self, tmp_path):
        corpus = td.gen_synthetic(6, 2, 2, seed=3)
        vocab = td.build_vocab(corpus)
        encoded = td.encode_corpus(corpus, vocab, n=8, l=4)
        path = tmp_path / "encoded.npz"
        td.save_encoded(path, encoded, classes=2)
        loaded, classes = td.load_encoded(path)
        assert classes == 2
        for a, b in zip(encoded, loaded):
            assert np.array_equal(a.sentences, b.sentences)
            assert np.array_equal(a.word_masks, b.word_masks)
            assert np.array_equal(a.title, b.title)
            assert a.label == b.label

    @settings(max_examples=40, deadline=None)
    @given(count=st.integers(1, 5), l=st.integers(1, 4), n=st.integers(1, 5),
           classes=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           defect=st.sampled_from([None, "no word"]))
    def test_round_trip_property(self, count, l, n, classes, seed, defect):
        """Every field of every article, ragged PAD holes and all, survives a save and a
        load, and so do the masks derived from the ids. An article with no word is
        refused, naming the file and the article."""
        rng = np.random.default_rng(seed)
        encoded = []
        for _ in range(count):
            sentences = rng.integers(1, 50, (l, n)) * rng.integers(0, 2, (l, n))
            sentences[rng.integers(l), rng.integers(n)] = int(rng.integers(1, 50))
            encoded.append(td.EncodedArticle(
                sentences, rng.integers(1, 50, n) * rng.integers(0, 2, n),
                int(rng.integers(0, classes))))
        bad = int(rng.integers(count))
        if defect:
            encoded[bad].sentences[:] = PAD_ID
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "encoded.npz"
            td.save_encoded(path, encoded, classes)
            if defect:
                with pytest.raises(ValueError) as err:
                    td.load_encoded(path)
                assert str(err.value) == f"{path}: article {bad} has {defect}"
                return
            loaded, loaded_classes = td.load_encoded(path)
        assert loaded_classes == classes and len(loaded) == count
        for a, b in zip(encoded, loaded):
            for field in ("sentences", "sentence_mask", "word_masks", "title", "title_mask"):
                want, got = getattr(a, field), getattr(b, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field
            assert b.label == a.label and isinstance(b.label, int)

    def test_only_the_ids_are_written_and_older_mask_arrays_are_ignored(self, tmp_path):
        """A new file holds the four id, label and class arrays. A file that also holds
        the three mask arrays older versions wrote loads to the same articles, bit for
        bit, even where those masks disagree with the ids."""
        corpus = td.gen_synthetic(5, 2, 2, seed=1)
        encoded = td.encode_corpus(corpus, td.build_vocab(corpus), n=6, l=3)
        path = tmp_path / "new.npz"
        td.save_encoded(path, encoded, classes=2)
        with np.load(path) as data:
            arrays = dict(data)
        assert sorted(arrays) == ["classes", "labels", "sentences", "titles"]
        older = tmp_path / "older.npz"
        np.savez(older, **arrays, sentence_masks=np.zeros((5, 3)),
                 word_masks=np.ones((5, 3, 6)), title_masks=np.ones((5, 6)))
        for a, b in zip(td.load_encoded(path)[0], td.load_encoded(older)[0]):
            for field in ("sentences", "title", "sentence_mask", "word_masks", "title_mask"):
                want, got = getattr(a, field), getattr(b, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field
            assert a.label == b.label

    @pytest.mark.parametrize("missing", ["sentences", "titles", "labels", "classes"])
    def test_a_missing_array_names_the_file_and_the_array(self, tmp_path, missing):
        corpus = td.gen_synthetic(3, 2, 2, seed=1)
        path = tmp_path / "encoded.npz"
        td.save_encoded(path, td.encode_corpus(corpus, td.build_vocab(corpus), n=4, l=2), 2)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files if key != missing}
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            td.load_encoded(path)
        assert str(err.value) == f"{path}: not an encoded corpus (no {missing!r} array)"

    @pytest.mark.parametrize("key,edit,message", [
        ("titles", lambda a: a[:, :3],
         "array 'titles' holds 3 words per title, but 'sentences' 4 per sentence"),
        ("labels", lambda a: a[:, None],
         "array 'labels' must be a rank-1 integer array, not a rank-2 int64 one"),
        ("classes", lambda a: a.astype(np.float64),
         "array 'classes' must be a rank-0 integer array, not a rank-0 float64 one"),
        ("sentences", lambda a: a.astype(object), "array 'sentences' cannot be read: "),
    ], ids=["title-width", "labels-rank", "classes-dtype", "object-array"])
    def test_an_array_that_does_not_fit_names_the_file_and_the_array(
            self, tmp_path, key, edit, message):
        corpus = td.gen_synthetic(3, 2, 2, seed=1)
        path = tmp_path / "encoded.npz"
        td.save_encoded(path, td.encode_corpus(corpus, td.build_vocab(corpus), n=4, l=2), 2)
        with np.load(path) as data:
            arrays = dict(data)
        arrays[key] = edit(arrays[key])
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            td.load_encoded(path)
        assert str(err.value).startswith(f"{path}: {message}")

    def test_load_memory_is_linear_in_article_count(self, tmp_path):
        """Loading holds each array once, not one decompressed copy per article."""
        corpus = td.gen_synthetic(60, 2, 2, seed=3)
        encoded = td.encode_corpus(corpus, td.build_vocab(corpus), n=32, l=16)
        path = tmp_path / "encoded.npz"
        td.save_encoded(path, encoded, classes=2)
        with np.load(path) as data:
            stored = sum(data[key].nbytes for key in data.files)
        tracemalloc.start()
        try:
            loaded, _ = td.load_encoded(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == 60
        assert peak < 3 * stored


class TestKnowledgeCorpus:
    def test_text_identical_up_to_entity(self):
        articles, entity_labels = td.gen_knowledge_corpus(10)
        stripped = {
            a.body.replace(f"entity{i}", "E") + "|" + a.title.replace(f"entity{i}", "E")
            for i, a in enumerate(articles)
        }
        assert len(stripped) == 1
        assert set(entity_labels.values()) == {0, 1}

    def test_entities_unique_per_article(self):
        articles, entity_labels = td.gen_knowledge_corpus(8)
        assert len(entity_labels) == 8
        for i, a in enumerate(articles):
            assert f"entity{i}" in a.body.split()
            assert f"entity{i}" in a.title.split()
