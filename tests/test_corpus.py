import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from iplfilter.artifacts import _dump
from iplfilter.corpus import (
    CorpusGenConfig,
    FeatureSequence,
    LabelSequence,
    Vocabulary,
    default_vocabulary,
    generate_corpus,
    SPLITS,
    Split,
    Transcripts,
    load_manifest,
    load_refs,
    save_manifest,
)
from iplfilter.errors import ConfigurationError, ManifestError, ShapeError
from rows import corpus_of
from test_pseudolabel import _IDS

SMALL = CorpusGenConfig(n_labeled=3, n_unlabeled=4, n_dev=2, n_test=2)
# Signed zero, the smallest subnormals, a subnormal and the largest finite magnitudes
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308]


def manifest_bytes(tmp_path, splits, name):
    d = tmp_path / name
    save_manifest(splits, d)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _utterance_record(fs, labels):
    """The record of one manifest line, whose encoding ``save_manifest`` must write."""
    rec = {"utterance_id": fs.utterance_id, "num_frames": fs.num_frames}
    if labels is not None:
        rec["tokens"] = list(labels.tokens)
    return rec


def _edit_frames(path, edit):
    """Replace the array of frames file ``path`` by ``edit(array)``, saved by ``np.save``."""
    np.save(path, edit(np.load(path)))


def _set_row(row, value):
    """An edit of a frames array: its row ``row`` set to ``value``."""
    def edit(frames):
        frames[row] = value
        return frames
    return edit


class TestTypes:
    def test_vocabulary_needs_two_tokens(self):
        with pytest.raises(ConfigurationError):
            Vocabulary(("a",))

    def test_vocabulary_unique_names(self):
        with pytest.raises(ConfigurationError):
            Vocabulary(("a", "a"))

    def test_vocabulary_classes_and_names(self):
        v = default_vocabulary(3)
        assert v.num_classes == 4
        assert v.tokens == ("a", "b", "c")

    def test_label_sequence_rejects_blank(self):
        with pytest.raises(ValueError):
            LabelSequence((1, 0, 2))

    def test_label_sequence_is_a_sequence(self):
        lab = LabelSequence((3, 1))
        assert len(lab) == 2 and list(lab) == [3, 1] and lab[0] == 3

    def test_feature_sequence_needs_matrix(self):
        with pytest.raises(ValueError):
            FeatureSequence("u", np.zeros(3))

    def test_duplicate_ids_rejected(self):
        fs = FeatureSequence("dup", np.zeros((1, 2)))
        with pytest.raises(ManifestError, match="dup"):
            corpus_of(
                vocabulary=default_vocabulary(2),
                labeled=[(fs, LabelSequence((1,)))],
                unlabeled=[FeatureSequence("dup", np.zeros((1, 2)))],
            )

    def test_split_frames_are_a_read_only_view_of_the_callers_array(self):
        frames, one = np.zeros((3, 2)), np.ones(1, np.int64)
        split = Split(np.array(["u"], dtype=object), frames, np.array([3]), one, one)
        assert frames.flags.writeable and not split.frames.flags.writeable
        assert np.shares_memory(split.frames, frames)

    @pytest.mark.parametrize("num_frames, tokens, lengths", [
        ([2], [1], [1]),  # frames 3 rows, num_frames 2
        ([3], [1, 2], [1]),  # 2 tokens, lengths summing to 1
        ([1, 2], [1, 2], [1, 1]),  # two rows of columns for one id
        ([3], [1], [1, 0]),
    ])
    def test_split_columns_of_other_sizes_are_refused(self, num_frames, tokens, lengths):
        with pytest.raises(ShapeError, match="split of 1 ids"):
            Split(np.array(["u"], dtype=object), np.zeros((3, 2)), np.array(num_frames, np.int64),
                  np.array(tokens, np.int64), np.array(lengths, np.int64))
        if len(num_frames) == 2:
            with pytest.raises(ShapeError, match="split of 1 ids"):
                Split(np.array(["u"], dtype=object), np.zeros((3, 2)), np.array(num_frames, np.int64))


class TestGeneration:
    def test_deterministic_for_fixed_seed(self):
        a = generate_corpus(SMALL, seed=5)
        b = generate_corpus(SMALL, seed=5)
        assert a == b

    def test_seed_changes_output(self):
        assert generate_corpus(SMALL, seed=5) != generate_corpus(SMALL, seed=6)

    def test_serialization_is_byte_identical(self, tmp_path):
        a = manifest_bytes(tmp_path, generate_corpus(SMALL, seed=5), "a")
        b = manifest_bytes(tmp_path, generate_corpus(SMALL, seed=5), "b")
        assert a == b
        assert {f"{name}.frames.npy" for name in SPLITS} < set(a)

    def test_noiseless_frames_are_exact_token_means(self):
        cfg = CorpusGenConfig(noise_sigma=0.0, n_labeled=4, n_unlabeled=2, n_dev=2, n_test=2)
        splits = generate_corpus(cfg, seed=3)
        # every frame must exactly equal one of at most vocab_size distinct rows
        rows = {tuple(f) for fs, _ in splits.labeled for f in fs.frames}
        assert len(rows) <= cfg.vocab_size
        # and each utterance's distinct-run count matches its label length
        for fs, lab in splits.labeled:
            runs = 1 + sum(
                1
                for i in range(1, fs.num_frames)
                if not np.array_equal(fs.frames[i], fs.frames[i - 1])
            )
            assert runs == len(lab)

    def test_labels_have_no_adjacent_repeats_and_fit_frames(self):
        splits = generate_corpus(CorpusGenConfig(n_labeled=20, n_unlabeled=5, n_dev=2, n_test=2), seed=9)
        for fs, lab in splits.labeled:
            assert all(a != b for a, b in zip(lab.tokens, lab.tokens[1:]))
            assert fs.num_frames >= len(lab)

    def test_hidden_truth_covers_unlabeled(self):
        splits = generate_corpus(SMALL, seed=1)
        assert set(splits.unlabeled_refs) == {fs.utterance_id for fs in splits.unlabeled}
        stripped = dataclasses.replace(splits, unlabeled_refs=Transcripts())
        assert stripped.unlabeled_refs == {}
        assert stripped.unlabeled == splits.unlabeled

    @pytest.mark.parametrize(
        "bad",
        [
            dict(vocab_size=1),
            dict(feature_dim=0),
            dict(label_len=(0, 3)),
            dict(label_len=(4, 2)),
            dict(frames_per_token=(0, 2)),
            dict(noise_sigma=-1.0),
            dict(n_labeled=0),
            dict(n_dev=0),
        ],
    )
    def test_invalid_config_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            CorpusGenConfig(**bad)


def reference_draw_pairs(rng, cfg: CorpusGenConfig, means: np.ndarray, prefix: str, n: int):
    """The generator before its columns: each utterance drawn, rendered and
    built as a (FeatureSequence, LabelSequence) pair on its own."""
    lo_len, hi_len = cfg.label_len
    lo_fr, hi_fr = cfg.frames_per_token
    pairs = []
    for i in range(n):
        length = int(rng.integers(lo_len, hi_len + 1))
        tokens: list[int] = []
        for _ in range(length):
            if not tokens:
                tok = int(rng.integers(1, cfg.vocab_size + 1))
            else:
                # uniform over the other vocab_size - 1 tokens (no immediate repeat)
                r = int(rng.integers(1, cfg.vocab_size))
                tok = r if r < tokens[-1] else r + 1
            tokens.append(tok)
        counts = rng.integers(lo_fr, hi_fr + 1, size=length)
        frames = np.repeat(means[np.asarray(tokens) - 1], counts, axis=0)
        frames = frames + cfg.noise_sigma * rng.standard_normal(frames.shape)
        pairs.append((FeatureSequence(f"{prefix}-{i:04d}", frames), LabelSequence(tuple(tokens))))
    return pairs


def reference_corpus(cfg: CorpusGenConfig, seed: int) -> dict:
    """Each split's pairs, drawn by :func:`reference_draw_pairs` from ``generate_corpus``'s streams."""
    s_means, *s_splits = np.random.SeedSequence(seed).spawn(1 + len(SPLITS))
    means = np.random.default_rng(s_means).standard_normal((cfg.vocab_size, cfg.feature_dim))
    prefixes = {"labeled": "lab", "unlabeled": "unl", "dev": "dev", "test": "tst"}
    return {name: reference_draw_pairs(np.random.default_rng(s), cfg, means, prefixes[name],
                                       getattr(cfg, f"n_{name}")) for name, s in zip(SPLITS, s_splits)}


@st.composite
def gen_configs(draw):
    """Small generator configs: a bound's lo equal to its hi included, vocab_size from 2."""
    bounds = [sorted(draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))) for _ in range(2)]
    return CorpusGenConfig(vocab_size=draw(st.integers(2, 5)), feature_dim=draw(st.integers(1, 3)),
                           label_len=tuple(bounds[0]), frames_per_token=tuple(bounds[1]),
                           noise_sigma=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0)),
                           **{f"n_{name}": draw(st.integers(1, 5)) for name in SPLITS})


def test_default_corpus_at_seed_0_has_the_committed_digests(tmp_path):
    # gen-corpus --seed 0 writes these files; the digests were taken from the per-utterance generator
    save_manifest(generate_corpus(CorpusGenConfig(), seed=0), tmp_path)
    for line in (Path(__file__).parent / "gen_corpus_seed0.sha256").read_text().splitlines():
        digest, name = line.split()
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@given(cfg=gen_configs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_column_generator_equals_the_per_utterance_reference(cfg, seed):
    splits = generate_corpus(cfg, seed)
    for name, pairs in reference_corpus(cfg, seed).items():
        split = getattr(splits, name)
        labels = splits.unlabeled_refs if name == "unlabeled" else split
        assert split.ids.tolist() == [fs.utterance_id for fs, _ in pairs]
        assert labels.ids.tolist() == split.ids.tolist()
        assert split.frames.tobytes() == np.concatenate([fs.frames for fs, _ in pairs]).tobytes()
        assert split.num_frames.tolist() == [fs.num_frames for fs, _ in pairs]
        assert labels.tokens.tolist() == [t for _, lab in pairs for t in lab.tokens]
        assert labels.lengths.tolist() == [len(lab) for _, lab in pairs]


class TestManifestRoundTrip:
    def test_three_utterance_round_trip(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        assert load_manifest(tmp_path / "m") == splits

    def test_round_trip_without_truth(self, tmp_path):
        splits = dataclasses.replace(generate_corpus(SMALL, seed=2), unlabeled_refs=Transcripts())
        save_manifest(splits, tmp_path / "m")
        assert load_manifest(tmp_path / "m") == splits

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        vocab=st.integers(min_value=2, max_value=6),
        dim=st.integers(min_value=1, max_value=4),
        sigma=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_round_trip_random_configs(self, tmp_path, seed, vocab, dim, sigma):
        cfg = CorpusGenConfig(
            vocab_size=vocab, feature_dim=dim, noise_sigma=sigma,
            label_len=(1, 3), n_labeled=2, n_unlabeled=2, n_dev=1, n_test=1,
        )
        splits = generate_corpus(cfg, seed=seed)
        target = tmp_path / f"m{seed}-{vocab}-{dim}"
        save_manifest(splits, target)
        assert load_manifest(target) == splits

    @given(frames=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(EDGE_FLOATS)))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_frames_round_trip_bit_for_bit(self, tmp_path, frames):
        splits = corpus_of(vocabulary=default_vocabulary(2),
                              labeled=[(FeatureSequence("lab", frames), LabelSequence((1,)))],
                              unlabeled=[FeatureSequence("unl", frames[::-1])])
        save_manifest(splits, tmp_path / "m")
        back = load_manifest(tmp_path / "m")
        for fs, loaded in ((splits.labeled[0][0], back.labeled[0][0]),
                           (splits.unlabeled[0], back.unlabeled[0])):
            assert loaded.frames.shape == fs.frames.shape
            assert np.array_equal(loaded.frames.view(np.uint64), fs.frames.view(np.uint64))

    @given(counts=st.lists(st.lists(st.integers(1, 6), max_size=5), min_size=4, max_size=4),
           dim=st.integers(1, 3), data=st.data())
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ragged_splits_round_trip(self, tmp_path, counts, dim, data):
        # any number of utterances per split, empty splits among them, each of its own length
        assume(counts[0] or counts[1])
        frames = data.draw(arrays(np.float64, (sum(map(sum, counts)), dim),
                                  elements=st.floats(allow_nan=False, allow_infinity=False)
                                  | st.sampled_from(EDGE_FLOATS)))
        rows = iter(np.split(frames, np.cumsum([T for split in counts for T in split])[:-1]))
        drawn = {name: [FeatureSequence(f"{name}-{i}", next(rows)) for i in range(len(split))]
                 for name, split in zip(SPLITS, counts)}
        unlabeled = drawn.pop("unlabeled")
        labeled = {name: [(fs, LabelSequence((1, 2))) for fs in utts] for name, utts in drawn.items()}
        splits = corpus_of(vocabulary=default_vocabulary(2), unlabeled=unlabeled, **labeled)
        save_manifest(splits, tmp_path / "m")
        back = load_manifest(tmp_path / "m")
        assert back == splits  # ids, and each utterance's frame shape and values
        ends = np.cumsum([0, *map(sum, counts)])
        for name, lo, hi in zip(SPLITS, ends, ends[1:]):
            loaded = getattr(back, name).frames
            assert not loaded.flags.writeable
            # bit for bit, signed zeros and subnormals included
            assert np.array_equal(loaded.view(np.uint64), frames[lo:hi].view(np.uint64))

    def test_hand_written_zero_utterance_split_loads_empty(self, tmp_path):
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        (tmp_path / "m" / "dev.jsonl").write_text("")
        np.save(tmp_path / "m" / "dev.frames.npy", np.zeros((0, SMALL.feature_dim)))
        assert len(load_manifest(tmp_path / "m").dev) == 0

    @given(rows=st.lists(st.tuples(_IDS, st.lists(st.integers(1, 3), min_size=1, max_size=6),
                                   arrays(np.float64, st.tuples(st.integers(1, 4), st.just(2)))),
                         min_size=1, max_size=8, unique_by=lambda row: row[0]),
           n_labeled=st.integers(0, 8))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lines_equal_the_record_encoder(self, tmp_path, rows, n_labeled):
        # save_manifest formats each line itself: the bytes must be the encoded record's
        pairs = [(FeatureSequence(uid, frames), LabelSequence(toks)) for uid, toks, frames in rows]
        splits = corpus_of(vocabulary=default_vocabulary(3), labeled=pairs[:n_labeled],
                              unlabeled=[fs for fs, _ in pairs[n_labeled:]],
                              unlabeled_refs={fs.utterance_id: lab for fs, lab in pairs[n_labeled:]})
        save_manifest(splits, tmp_path / "m")
        for name, rows in (("labeled", splits.labeled), ("unlabeled", ((fs, None) for fs in splits.unlabeled))):
            assert (tmp_path / "m" / f"{name}.jsonl").read_text(encoding="utf-8") == "".join(
                _dump(_utterance_record(fs, lab)) for fs, lab in rows)
        assert (tmp_path / "m" / "unlabeled_refs.jsonl").read_text(encoding="utf-8") == "".join(
            _dump({"tokens": list(lab.tokens), "utterance_id": fs.utterance_id})
            for fs, lab in pairs[n_labeled:])

    def test_read_labels_are_label_sequences_of_ints(self, tmp_path):
        # labels built from the token columns read from a file
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        back = load_manifest(tmp_path / "m")
        labels = [*load_refs(tmp_path / "m").values(), *back.unlabeled_refs.values(),
                  *(lab for name in ("labeled", "dev", "test") for _, lab in getattr(back, name))]
        assert labels and all(type(lab) is LabelSequence and type(lab.tokens) is tuple
                              and {type(t) for t in lab.tokens} == {int} for lab in labels)

    def test_truncated_record_names_line(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        target = tmp_path / "m" / "labeled.jsonl"
        text = target.read_text()
        target.write_text(text[: len(text) - 20])  # chop the final record
        with pytest.raises(ManifestError, match=r"labeled\.jsonl:3"):
            load_manifest(tmp_path / "m")

    def test_duplicate_id_in_manifest(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        target = tmp_path / "m" / "dev.jsonl"
        lines = target.read_text().splitlines()
        target.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(tmp_path / "m")

    def test_missing_field_names_line(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        target = tmp_path / "m" / "test.jsonl"
        lines = target.read_text().splitlines()
        rec = json.loads(lines[0])
        rec.pop("tokens")
        lines[0] = json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=r"test\.jsonl:1"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("field", ["num_frames"])
    def test_bool_for_a_number_names_line(self, tmp_path, field):
        # json's true is not the number 1
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "labeled.jsonl"
        lines = target.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: True})
        target.write_text("\n".join(lines) + "\n")
        expected = f"{target}:2: field {field!r} is bool, expected int"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_frame_names_utterance_and_line(self, tmp_path, value):
        # the frames file can hold NaN and infinities
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        npy = tmp_path / "m" / "unlabeled.frames.npy"
        _edit_frames(npy, _set_row(splits.unlabeled[0].num_frames, value))
        expected = (f"{npy}: utterance unl-0001 ({tmp_path / 'm' / 'unlabeled.jsonl'}:2): "
                    "non-finite frame value")
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("index", [0, 1, 300, 599])
    @pytest.mark.parametrize("last", [False, True], ids=["first-row", "last-row"])
    def test_non_finite_frame_names_its_own_utterance(self, tmp_path, index, last):
        splits = generate_corpus(dataclasses.replace(SMALL, n_unlabeled=600), seed=2)
        save_manifest(splits, tmp_path / "m")
        npy = tmp_path / "m" / "unlabeled.frames.npy"
        start = sum(fs.num_frames for fs in splits.unlabeled[:index])
        _edit_frames(npy, _set_row(start + last * (splits.unlabeled[index].num_frames - 1), np.nan))
        expected = (f"{npy}: utterance unl-{index:04d} ({tmp_path / 'm' / 'unlabeled.jsonl'}:{index + 1}): "
                    "non-finite frame value")
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("edit, fault", [
        (lambda rec: {**rec, "feature_dim": 8, "frames": "AAAAAAAAAAA="},
         "{lines}:7: missing fields [], unknown fields ['feature_dim', 'frames']"),
        (lambda rec: {**rec, "num_frames": 0}, "{lines}:7: utterance lab-0006: num_frames must be >= 1, got 0"),
        (lambda rec: {**rec, "num_frames": "1"}, "{lines}:7: field 'num_frames' is str, expected int"),
        (lambda rec: None, "{lines}:7: invalid JSON: Invalid control character at"),
        (lambda rec: {**rec, "tokens": []}, "{lines}:7: utterance 'lab-0006': empty transcript"),
        (lambda rec: {**rec, "num_frames": rec["num_frames"] + 1},
         "{npy}: 101 rows != 102, the num_frames total of {lines}"),
    ], ids=["earlier-format", "num-frames", "field-type", "invalid-json", "empty-transcript", "row-count"])
    def test_line_faults_are_named_before_frame_faults(self, tmp_path, edit, fault):
        # a split's lines are all read and checked before its frames array: a fault in line 7
        # is named, not the NaN in line 3's rows; of the array's faults, the row count comes first
        splits = generate_corpus(dataclasses.replace(SMALL, n_labeled=8), seed=2)
        save_manifest(splits, tmp_path / "m")
        target, npy = tmp_path / "m" / "labeled.jsonl", tmp_path / "m" / "labeled.frames.npy"
        _edit_frames(npy, _set_row(sum(fs.num_frames for fs, _ in splits.labeled[:2]), np.nan))
        lines = target.read_text().splitlines()
        rec = edit(json.loads(lines[6]))
        lines[6] = lines[6][:-5] if rec is None else json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")
        expected = fault.format(lines=target, npy=npy)
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    def test_corpus_of_the_earlier_format_names_its_missing_frames_file(self, tmp_path):
        # frames were once a base64 field of each line, and there was no frames file
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        for name in SPLITS:
            target = tmp_path / "m" / f"{name}.jsonl"
            lines = target.read_text().splitlines()
            target.write_text("".join(json.dumps({**json.loads(line), "feature_dim": 8, "frames": "AAAA"}) + "\n"
                                      for line in lines))
            (tmp_path / "m" / f"{name}.frames.npy").unlink()
        expected = f"{tmp_path / 'm' / 'labeled.frames.npy'}: missing file"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_frame_rows_must_sum_to_the_lines_num_frames(self, tmp_path, delta):
        # a row short, or one row too many, for the lines' num_frames
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        npy = tmp_path / "m" / "unlabeled.frames.npy"
        rows = sum(fs.num_frames for fs in splits.unlabeled)
        _edit_frames(npy, lambda frames: np.concatenate([frames, frames])[:rows + delta])
        lines = tmp_path / "m" / "unlabeled.jsonl"
        expected = f"{npy}: {rows + delta} rows != {rows}, the num_frames total of {lines}"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("field", ["tokens", "feature_dim"])
    def test_meta_missing_field_names_file(self, tmp_path, field):
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "meta.json"
        meta = json.loads(target.read_text())
        meta.pop(field)
        target.write_text(json.dumps(meta))
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(target))}:1: missing fields \['{field}'\]"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("tokens, message", [
        (["a", "a", "b"], "vocabulary token names must be unique"),
        ([1, 2], "vocabulary token names must be strings"),
    ], ids=["duplicate", "not-strings"])
    def test_bad_vocabulary_names_meta_file(self, tmp_path, tokens, message):
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "meta.json"
        target.write_text(json.dumps({**json.loads(target.read_text()), "tokens": tokens}))
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(target))}:1: {message}$"):
            load_manifest(tmp_path / "m")

    def test_frame_columns_must_match_meta(self, tmp_path):
        # the same values as twice the rows of half the columns, with num_frames doubled to
        # match: only the meta check can catch it
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target, npy = tmp_path / "m" / "dev.jsonl", tmp_path / "m" / "dev.frames.npy"
        _edit_frames(npy, lambda frames: frames.reshape(-1, SMALL.feature_dim // 2))
        target.write_text("".join(json.dumps({**rec, "num_frames": 2 * rec["num_frames"]}) + "\n"
                                  for rec in map(json.loads, target.read_text().splitlines())))
        rows = len(np.load(npy))
        expected = f"{npy}: shape ({rows}, 4), expected (rows, 8) by meta.json"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    def test_empty_transcript_names_line(self, tmp_path):
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "unlabeled_refs.jsonl"
        lines = target.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "tokens": []})
        target.write_text("\n".join(lines) + "\n")
        expected = f"{target}:2: utterance 'unl-0001': empty transcript"
        for load in (load_manifest, load_refs):
            with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
                load(tmp_path / "m")

    @pytest.mark.parametrize("tokens", [[True, 2], [1.7], ["2"]])
    def test_non_integer_tokens_name_line(self, tmp_path, tokens):
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "dev.jsonl"
        lines = target.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "tokens": tokens})
        target.write_text("\n".join(lines) + "\n")
        expected = f"{target}:2: tokens must be JSON integers"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("tokens", [[0], [1, None], 3])
    def test_bad_tokens_name_line(self, tmp_path, tokens):
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "unlabeled_refs.jsonl"
        lines = target.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "tokens": tokens})
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(target))}:2: "):
            load_manifest(tmp_path / "m")
        with pytest.raises(ManifestError, match=rf"^{re.escape(str(target))}:2: "):
            load_refs(tmp_path / "m")

    @pytest.mark.parametrize("name", ["dev.jsonl", "dev.frames.npy"])
    def test_missing_split_file(self, tmp_path, name):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        (tmp_path / "m" / name).unlink()
        with pytest.raises(ManifestError, match=f"^{re.escape(str(tmp_path / 'm' / name))}: missing file$"):
            load_manifest(tmp_path / "m")


class TestPartialLoad:
    @pytest.fixture()
    def saved(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        return splits, tmp_path / "m"

    @pytest.mark.parametrize("names", [
        (), ("labeled", "dev", "test"), ("unlabeled",), ("dev",), ("labeled", "unlabeled"),
    ], ids=lambda names: "+".join(names) or "none")
    def test_reads_only_the_named_splits(self, saved, names):
        full, d = saved
        # the files this load must not open are gone, so opening one would raise
        for name in set(SPLITS) - set(names):
            (d / f"{name}.jsonl").unlink()
            (d / f"{name}.frames.npy").unlink()
        if "unlabeled" not in names:
            (d / "unlabeled_refs.jsonl").unlink()
        part = load_manifest(d, splits=names)
        assert part.vocabulary == full.vocabulary
        for name in SPLITS:
            assert getattr(part, name) == getattr(full, name) if name in names else not getattr(part, name), name
        assert part.unlabeled_refs == (full.unlabeled_refs if "unlabeled" in names else {})

    def test_unknown_split_rejected(self, saved):
        with pytest.raises(ValueError, match="unknown split"):
            load_manifest(saved[1], splits="dev")

    def test_load_refs_reads_meta_and_refs_alone(self, saved):
        full, d = saved
        for name in SPLITS:
            (d / f"{name}.jsonl").unlink()
            (d / f"{name}.frames.npy").unlink()
        assert load_refs(d) == full.unlabeled_refs

    def test_load_refs_without_truth_is_empty(self, tmp_path):
        save_manifest(dataclasses.replace(generate_corpus(SMALL, seed=2), unlabeled_refs=Transcripts()), tmp_path / "m")
        assert load_refs(tmp_path / "m") == {}

    def test_refs_still_checked_against_unlabeled_ids(self, saved):
        d = saved[1]
        target = d / "unlabeled_refs.jsonl"
        target.write_text("".join(target.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ManifestError, match="cover exactly the unlabeled ids"):
            load_manifest(d, splits=("unlabeled",))
        assert len(load_refs(d)) == SMALL.n_unlabeled - 1
