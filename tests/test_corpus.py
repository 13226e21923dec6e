import base64
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from iplfilter.corpus import (
    CorpusGenConfig,
    CorpusSplits,
    FeatureSequence,
    LabelSequence,
    Vocabulary,
    default_vocabulary,
    generate_corpus,
    SPLITS,
    load_manifest,
    load_refs,
    save_manifest,
)
from iplfilter.errors import ConfigurationError, ManifestError

SMALL = CorpusGenConfig(n_labeled=3, n_unlabeled=4, n_dev=2, n_test=2)
# Signed zero, the smallest subnormals, a subnormal and the largest finite magnitudes
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308]


def manifest_bytes(tmp_path, splits, name):
    d = tmp_path / name
    save_manifest(splits, d)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _edit_frames(path, lineno, edit):
    """Replace line ``lineno``'s frame bytes by ``edit(bytes)``, base64-encoded again."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    rec["frames"] = base64.b64encode(edit(base64.b64decode(rec["frames"]))).decode()
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


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
            CorpusSplits(
                vocabulary=default_vocabulary(2),
                labeled=[(fs, LabelSequence((1,)))],
                unlabeled=[FeatureSequence("dup", np.zeros((1, 2)))],
            )


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
        stripped = dataclasses.replace(splits, unlabeled_refs={})
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


class TestManifestRoundTrip:
    def test_three_utterance_round_trip(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        assert load_manifest(tmp_path / "m") == splits

    def test_round_trip_without_truth(self, tmp_path):
        splits = dataclasses.replace(generate_corpus(SMALL, seed=2), unlabeled_refs={})
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
        splits = CorpusSplits(vocabulary=default_vocabulary(2),
                              labeled=[(FeatureSequence("lab", frames), LabelSequence((1,)))],
                              unlabeled=[FeatureSequence("unl", frames[::-1])])
        save_manifest(splits, tmp_path / "m")
        back = load_manifest(tmp_path / "m")
        for fs, loaded in ((splits.labeled[0][0], back.labeled[0][0]),
                           (splits.unlabeled[0], back.unlabeled[0])):
            assert loaded.frames.shape == fs.frames.shape
            assert np.array_equal(loaded.frames.view(np.uint64), fs.frames.view(np.uint64))

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

    @pytest.mark.parametrize("field", ["num_frames", "feature_dim"])
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
    def test_non_finite_frame_names_line(self, tmp_path, value):
        # the frame bytes can hold NaN and infinities
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "unlabeled.jsonl"
        _edit_frames(target, 2, lambda raw: raw[:8] + np.float64(value).tobytes() + raw[16:])
        expected = f"{target}:2: utterance unl-0001: non-finite frame value"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    @pytest.mark.parametrize("value, expected", [
        (True, "field 'frames' is bool, expected str"),
        ("1.5", "utterance unl-0001: frames are not base64: Only base64 data is allowed"),
        (None, "field 'frames' is NoneType, expected str"),
        ([1.0], "field 'frames' is list, expected str"),
    ], ids=["bool", "string", "null", "list"])
    def test_non_number_frame_names_line_and_utterance(self, tmp_path, value, expected):
        # frames are one base64 string: a bool, null or a list of numbers (the text-float
        # format) fails the field table, and text that is not base64 names the utterance too
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "unlabeled.jsonl"
        lines = target.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "frames": value})
        target.write_text("\n".join(lines) + "\n")
        expected = f"{target}:2: {expected}"
        with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
            load_manifest(tmp_path / "m")

    def test_frame_count_mismatch_rejected(self, tmp_path):
        # one byte short (not whole floats) and one float short
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        target = tmp_path / "m" / "unlabeled.jsonl"
        size = 8 * splits.unlabeled[1].frames.size
        for short in (1, 8):
            _edit_frames(target, 2, lambda raw: raw[:-short])
            expected = f"{target}:2: frames hold {size - short} bytes != num_frames*feature_dim*8 {size}"
            with pytest.raises(ManifestError, match=f"^{re.escape(expected)}$"):
                load_manifest(tmp_path / "m")
            save_manifest(splits, tmp_path / "m")

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

    def test_record_feature_dim_must_match_meta(self, tmp_path):
        # frames still fill num_frames x feature_dim, so only the meta check can catch it
        save_manifest(generate_corpus(SMALL, seed=2), tmp_path / "m")
        target = tmp_path / "m" / "dev.jsonl"
        lines = target.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["num_frames"], rec["feature_dim"] = rec["num_frames"] * 2, SMALL.feature_dim // 2
        lines[1] = json.dumps(rec)
        target.write_text("\n".join(lines) + "\n")
        expected = f"{target}:2: utterance dev-0001: feature_dim 4 != manifest 8"
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

    def test_missing_split_file(self, tmp_path):
        splits = generate_corpus(SMALL, seed=2)
        save_manifest(splits, tmp_path / "m")
        (tmp_path / "m" / "dev.jsonl").unlink()
        with pytest.raises(ManifestError, match="missing"):
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
        if "unlabeled" not in names:
            (d / "unlabeled_refs.jsonl").unlink()
        part = load_manifest(d, splits=names)
        assert part.vocabulary == full.vocabulary
        for name in SPLITS:
            assert getattr(part, name) == (getattr(full, name) if name in names else []), name
        assert part.unlabeled_refs == (full.unlabeled_refs if "unlabeled" in names else {})

    def test_unknown_split_rejected(self, saved):
        with pytest.raises(ValueError, match="unknown split"):
            load_manifest(saved[1], splits="dev")

    def test_load_refs_reads_meta_and_refs_alone(self, saved):
        full, d = saved
        for name in SPLITS:
            (d / f"{name}.jsonl").unlink()
        assert load_refs(d) == full.unlabeled_refs

    def test_load_refs_without_truth_is_empty(self, tmp_path):
        save_manifest(dataclasses.replace(generate_corpus(SMALL, seed=2), unlabeled_refs={}), tmp_path / "m")
        assert load_refs(tmp_path / "m") == {}

    def test_refs_still_checked_against_unlabeled_ids(self, saved):
        d = saved[1]
        target = d / "unlabeled_refs.jsonl"
        target.write_text("".join(target.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ManifestError, match="cover exactly the unlabeled ids"):
            load_manifest(d, splits=("unlabeled",))
        assert len(load_refs(d)) == SMALL.n_unlabeled - 1
