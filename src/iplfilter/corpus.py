"""Synthetic corpus generation and manifest I/O.

The corpus stands in for transcribed speech at desk scale: every token owns a
mean feature vector, and an utterance is rendered by emitting each of its
tokens for a few consecutive frames, with Gaussian noise on top. At zero noise
the frame runs are exactly the token means, so a trained recognizer can reach
~zero error; raising the noise scale degrades separability in a controlled way.

Label sequences never place the same token twice in a row. Without that
restriction a noiseless rendering of [a, a] would be indistinguishable from a
longer rendering of [a] and no recognizer could reach zero error on clean
data. A side effect is that every generated utterance is CTC-alignable, since
repeat-free labels only require at least one frame per token.
"""

from __future__ import annotations

import base64
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import VERSION, read_json, read_jsonl, write_json, write_jsonl
from .errors import ConfigurationError, ManifestError

# Class index reserved for the CTC blank. Label tokens use indices >= 1.
BLANK = 0

MANIFEST_SCHEMA = "corpus-manifest"
_META_FIELDS = {"tokens": list, "feature_dim": int}
_UTTERANCE_FIELDS = {"utterance_id": str, "num_frames": int, "feature_dim": int, "frames": str}
_LABELED_FIELDS = {**_UTTERANCE_FIELDS, "tokens": list}
_REFS_FIELDS = {"utterance_id": str, "tokens": list}
# A record's frames: the base64 text of the (T, D) matrix's row-major bytes in this type
_FRAME_DTYPE = np.dtype("<f8")

SPLITS = ("labeled", "unlabeled", "dev", "test")
_ID_PREFIXES = {"labeled": "lab", "unlabeled": "unl", "dev": "dev", "test": "tst"}
_SPLIT_FILES = {name: f"{name}.jsonl" for name in SPLITS}
_REFS_FILE = "unlabeled_refs.jsonl"
_META_FILE = "meta.json"


@dataclass(frozen=True)
class Vocabulary:
    """Non-blank token inventory; class 0 is always the blank."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not all(isinstance(t, str) for t in self.tokens):
            raise ConfigurationError("vocabulary token names must be strings")
        if len(self.tokens) < 2:
            raise ConfigurationError("vocabulary needs at least 2 non-blank tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigurationError("vocabulary token names must be unique")

    @property
    def num_classes(self) -> int:
        """Output dimension including the blank."""
        return len(self.tokens) + 1


def default_vocabulary(size: int = 8) -> Vocabulary:
    letters = string.ascii_lowercase
    names = [letters[i] if i < len(letters) else f"t{i}" for i in range(size)]
    return Vocabulary(tuple(names))


@dataclass(frozen=True)
class LabelSequence:
    """A blank-free sequence of token class indices (values >= 1)."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if any(t < 1 for t in self.tokens):
            raise ValueError("label tokens must be >= 1; blank (0) is excluded")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """A (T, D) frame matrix for one utterance.

    Frames read from a manifest are read-only views of the decoded bytes;
    nothing writes frames in place.
    """

    utterance_id: str
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError("frames must be a (T, D) matrix with T >= 1")
        object.__setattr__(self, "frames", frames)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureSequence):
            return NotImplemented
        return self.utterance_id == other.utterance_id and np.array_equal(
            self.frames, other.frames
        )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class CorpusSplits:
    """Labeled/unlabeled/dev/test splits.

    ``unlabeled_refs`` holds the hidden transcripts of the unlabeled split and
    exists only for oracle evaluation; training-path operations never receive
    it. It may be empty (truth withheld entirely) but, when present, must cover
    exactly the unlabeled utterance ids.
    """

    vocabulary: Vocabulary
    labeled: list[tuple[FeatureSequence, LabelSequence]]
    unlabeled: list[FeatureSequence]
    unlabeled_refs: dict[str, LabelSequence] = field(default_factory=dict)
    dev: list[tuple[FeatureSequence, LabelSequence]] = field(default_factory=list)
    test: list[tuple[FeatureSequence, LabelSequence]] = field(default_factory=list)

    def __post_init__(self):
        ids = [fs.utterance_id for name in SPLITS for fs, _ in self.pairs(name)]
        dupes = {i for i in ids if ids.count(i) > 1} if len(set(ids)) != len(ids) else set()
        if dupes:
            raise ManifestError(f"duplicate utterance_id(s): {sorted(dupes)}")
        if self.unlabeled_refs:
            unl = {fs.utterance_id for fs in self.unlabeled}
            if set(self.unlabeled_refs) != unl:
                raise ManifestError("unlabeled_refs must cover exactly the unlabeled ids")

    def pairs(self, name: str):
        """Split ``name`` as (features, labels) pairs; the unlabeled split's labels are None."""
        if name == "unlabeled":
            return [(fs, None) for fs in self.unlabeled]
        return getattr(self, name)

    @property
    def feature_dim(self) -> int:
        for fs, _ in self.labeled:
            return fs.feature_dim
        for fs in self.unlabeled:
            return fs.feature_dim
        raise ValueError("corpus has no utterances")


@dataclass(frozen=True)
class CorpusGenConfig:
    """Knobs for the synthetic generator.

    ``noise_sigma`` is the per-dimension Gaussian noise scale added to token
    mean vectors (which are standard-normal draws, so pairwise mean separation
    is about sqrt(2 * feature_dim)).
    """

    vocab_size: int = 8
    feature_dim: int = 8
    label_len: tuple[int, int] = (2, 6)
    frames_per_token: tuple[int, int] = (1, 4)
    noise_sigma: float = 0.5
    n_labeled: int = 8
    n_unlabeled: int = 200
    n_dev: int = 64
    n_test: int = 64

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ConfigurationError("vocab_size must be >= 2")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        for name in ("label_len", "frames_per_token"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ConfigurationError(f"{name} must satisfy 1 <= lo <= hi")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        for name in ("n_labeled", "n_unlabeled", "n_dev", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1 (empty split)")


def _draw_pairs(rng, cfg: CorpusGenConfig, means: np.ndarray, prefix: str, n: int):
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
        pairs.append(
            (FeatureSequence(f"{prefix}-{i:04d}", frames), LabelSequence(tuple(tokens)))
        )
    return pairs


def generate_corpus(gen_config: CorpusGenConfig, seed: int) -> CorpusSplits:
    """Deterministically generate all four splits from (gen_config, seed)."""
    s_means, *s_splits = np.random.SeedSequence(seed).spawn(1 + len(SPLITS))
    means = np.random.default_rng(s_means).standard_normal(
        (gen_config.vocab_size, gen_config.feature_dim)
    )
    drawn = {
        name: _draw_pairs(np.random.default_rng(s), gen_config, means, _ID_PREFIXES[name],
                          getattr(gen_config, f"n_{name}"))
        for name, s in zip(SPLITS, s_splits)
    }
    unl_pairs = drawn.pop("unlabeled")
    return CorpusSplits(
        vocabulary=default_vocabulary(gen_config.vocab_size),
        unlabeled=[fs for fs, _ in unl_pairs],
        unlabeled_refs={fs.utterance_id: lab for fs, lab in unl_pairs},
        **drawn,
    )


def _utterance_record(fs: FeatureSequence, labels: LabelSequence | None) -> dict:
    rec = {
        "utterance_id": fs.utterance_id,
        "num_frames": fs.num_frames,
        "feature_dim": fs.feature_dim,
        "frames": base64.b64encode(fs.frames.astype(_FRAME_DTYPE, copy=False).tobytes()).decode(),
    }
    if labels is not None:
        rec["tokens"] = list(labels.tokens)
    return rec


def save_manifest(splits: CorpusSplits, out_dir) -> None:
    """Write one directory per corpus: meta + one jsonl file per split.

    Each utterance's ``frames`` field is the base64 text of its row-major
    little-endian float64 (``<f8``) bytes, so the round trip is exact to the bit.
    The unlabeled split's public file carries no transcripts; the hidden truth
    goes to a separate refs file read only by oracle paths.
    """
    out = Path(out_dir)
    meta = {
        "schema": MANIFEST_SCHEMA,
        "version": VERSION,
        "tokens": list(splits.vocabulary.tokens),
        "feature_dim": splits.feature_dim,
    }
    write_json(out / _META_FILE, meta)
    for name in SPLITS:
        write_jsonl(out / _SPLIT_FILES[name],
                    (_utterance_record(fs, lab) for fs, lab in splits.pairs(name)))
    refs = [
        {"utterance_id": uid, "tokens": list(lab.tokens)}
        for uid, lab in ((fs.utterance_id, splits.unlabeled_refs[fs.utterance_id]) for fs in splits.unlabeled)
    ] if splits.unlabeled_refs else []
    write_jsonl(out / _REFS_FILE, refs)


def _read_utterances(path: Path, vocab: Vocabulary, feature_dim: int, with_labels: bool):
    out = []
    fields = _LABELED_FIELDS if with_labels else _UTTERANCE_FIELDS
    for where, rec in read_jsonl(path, ManifestError, fields):
        uid, T, D = rec["utterance_id"], rec["num_frames"], rec["feature_dim"]
        if D != feature_dim:
            raise ManifestError(f"{where}: utterance {uid}: feature_dim {D} != manifest {feature_dim}")
        try:
            raw = base64.b64decode(rec["frames"], validate=True)
        except ValueError as e:  # binascii.Error, or text that is not ASCII
            raise ManifestError(f"{where}: utterance {uid}: frames are not base64: {e}") from e
        size = T * D * _FRAME_DTYPE.itemsize
        if len(raw) != size:
            raise ManifestError(
                f"{where}: frames hold {len(raw)} bytes != num_frames*feature_dim*8 {size}")
        try:
            fs = FeatureSequence(uid, np.frombuffer(raw, _FRAME_DTYPE).reshape(T, D))
        except ValueError as e:
            raise ManifestError(f"{where}: utterance {uid}: {e}") from e
        if not np.isfinite(fs.frames).all():
            # the bytes can hold NaN and infinities; training on them fails far from the file
            raise ManifestError(f"{where}: utterance {uid}: non-finite frame value")
        if with_labels:
            out.append((fs, checked_labels(where, rec["tokens"], vocab.num_classes)))
        else:
            out.append(fs)
    return out


def checked_labels(where: str, tokens, num_classes: int | None = None) -> LabelSequence:
    """Labels read from a file; bad tokens raise ManifestError naming ``where``."""
    if any(type(t) is not int for t in tokens):  # int() would take true, 1.7 and "2"
        raise ManifestError(f"{where}: tokens must be JSON integers")
    try:
        lab = LabelSequence(tuple(tokens))
    except ValueError as e:
        raise ManifestError(f"{where}: {e}") from e
    if num_classes is not None and any(t >= num_classes for t in lab):
        raise ManifestError(f"{where}: token index out of vocabulary range")
    return lab


def read_meta(root: Path) -> tuple[Vocabulary, int]:
    """The vocabulary and feature dimension a corpus's ``meta.json`` declares."""
    meta_path = root / _META_FILE
    meta = read_json(meta_path, ManifestError, MANIFEST_SCHEMA, _META_FIELDS)
    try:
        vocab = Vocabulary(meta["tokens"])
    except ConfigurationError as e:
        raise ManifestError(f"{meta_path}:1: {e}") from e
    return vocab, meta["feature_dim"]


def _read_refs(root: Path, vocab: Vocabulary) -> dict[str, LabelSequence]:
    """The hidden transcripts; a corpus without a refs file has withheld them."""
    refs: dict[str, LabelSequence] = {}
    refs_path = root / _REFS_FILE
    if refs_path.is_file():
        for where, rec in read_jsonl(refs_path, ManifestError, _REFS_FIELDS):
            uid = rec["utterance_id"]
            if uid in refs:
                raise ManifestError(f"{where}: duplicate utterance_id {uid!r}")
            refs[uid] = checked_labels(where, rec["tokens"], vocab.num_classes)
            if not refs[uid]:
                # any hypothesis but the empty one has an infinite WER against it, which
                # reports.jsonl would carry as Infinity and no histogram can bin
                raise ManifestError(f"{where}: utterance {uid!r}: empty transcript")
    return refs


def load_manifest(in_dir, splits=SPLITS) -> CorpusSplits:
    """Inverse of :func:`save_manifest`; load(save(x)) == x.

    Only ``meta.json`` and the files of the named ``splits`` are opened,
    plus the refs file with the unlabeled split; a split not named is
    returned empty, and so are the refs without the unlabeled split.
    """
    unknown = set(splits) - set(SPLITS)
    if unknown:
        raise ValueError(f"unknown split(s) {sorted(unknown)}; splits are {SPLITS}")
    root = Path(in_dir)
    vocab, dim = read_meta(root)
    read = {
        name: _read_utterances(root / _SPLIT_FILES[name], vocab, dim, with_labels=name != "unlabeled")
        if name in splits else []
        for name in SPLITS
    }
    refs = _read_refs(root, vocab) if "unlabeled" in splits else {}
    return CorpusSplits(vocabulary=vocab, unlabeled_refs=refs, **read)


def load_refs(in_dir) -> dict[str, LabelSequence]:
    """The unlabeled split's hidden transcripts alone, as in ``load_manifest(in_dir).unlabeled_refs``.

    Opens ``meta.json`` and ``unlabeled_refs.jsonl`` only, so the refs are
    not checked against the unlabeled ids.
    """
    root = Path(in_dir)
    vocab, _ = read_meta(root)
    return _read_refs(root, vocab)
