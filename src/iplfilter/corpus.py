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

import string
from dataclasses import dataclass, field
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .artifacts import read_json, read_jsonl, read_npy, write_json, write_jsonl, write_npy
from .errors import ConfigurationError, ManifestError, check_config

# Class index reserved for the CTC blank. Label tokens use indices >= 1.
BLANK = 0

MANIFEST_SCHEMA = "corpus-manifest"
_META_FIELDS = {"tokens": list, "feature_dim": int}
_UTTERANCE_FIELDS = {"utterance_id": str, "num_frames": int}
_LABELED_FIELDS = {**_UTTERANCE_FIELDS, "tokens": list}
_REFS_FIELDS = {"utterance_id": str, "tokens": list}
# A split's frames: its (T, D) matrices stacked in line order, one C-order array of this type
_FRAME_DTYPE = np.dtype("<f8")

SPLITS = ("labeled", "unlabeled", "dev", "test")
_ID_PREFIXES = {"labeled": "lab", "unlabeled": "unl", "dev": "dev", "test": "tst"}
_SPLIT_FILES = {name: f"{name}.jsonl" for name in SPLITS}
_FRAME_FILES = {name: f"{name}.frames.npy" for name in SPLITS}
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
        object.__setattr__(self, "tokens", tuple(map(int, self.tokens)))
        if min(self.tokens, default=1) < 1:
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

    Frames read from a manifest are read-only row views of the array loaded
    from their split's ``.frames.npy`` file; nothing writes frames in place.
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
        check_config(self, vocab_size=2, feature_dim=1, noise_sigma=0, n_labeled=1, n_unlabeled=1,
                     n_dev=1, n_test=1)
        for name in ("label_len", "frames_per_token"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ConfigurationError(f"{name} must satisfy 1 <= lo <= hi")


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


def _utterance_line(fs: FeatureSequence, labels: LabelSequence | None) -> str:
    """The manifest line of one utterance, formatted as ``write_jsonl`` writes its record."""
    tokens = "" if labels is None else f'"tokens": {list(labels.tokens)}, '
    uid = encode_basestring_ascii(fs.utterance_id)
    return f'{{"num_frames": {fs.num_frames}, {tokens}"utterance_id": {uid}}}\n'


def _refs_line(uid: str, labels: LabelSequence) -> str:
    """The refs file line of one transcript, formatted as ``write_jsonl`` writes its record."""
    return f'{{"tokens": {list(labels.tokens)}, "utterance_id": {encode_basestring_ascii(uid)}}}\n'


def save_manifest(splits: CorpusSplits, out_dir) -> None:
    """Write one directory per corpus: meta, and per split a jsonl file and a frames file.

    A split's ``<split>.frames.npy`` stacks its frame matrices in line order,
    one little-endian float64 (``<f8``) array in C order, so the round trip is
    exact to the bit; each line holds ``utterance_id``, ``num_frames`` and, in
    a labeled split, ``tokens``. The hidden truth of the unlabeled split goes
    to a separate refs file read only by oracle paths.
    """
    out, dim = Path(out_dir), splits.feature_dim
    write_json(out / _META_FILE, {"tokens": list(splits.vocabulary.tokens), "feature_dim": dim}, MANIFEST_SCHEMA)
    for name in SPLITS:
        pairs = splits.pairs(name)
        frames = np.concatenate([np.empty((0, dim), _FRAME_DTYPE), *(fs.frames for fs, _ in pairs)])
        write_npy(out / _FRAME_FILES[name], frames.astype(_FRAME_DTYPE, copy=False))
        write_jsonl(out / _SPLIT_FILES[name], (_utterance_line(fs, lab) for fs, lab in pairs))
    refs = splits.unlabeled_refs
    lines = (_refs_line(fs.utterance_id, refs[fs.utterance_id]) for fs in splits.unlabeled) if refs else ()
    write_jsonl(out / _REFS_FILE, lines)


def _read_utterances(root: Path, name: str, vocab: Vocabulary, feature_dim: int):
    """Split ``name``: its frames file read, then its lines, then the frames checked against them."""
    npy, path, with_labels = root / _FRAME_FILES[name], root / _SPLIT_FILES[name], name != "unlabeled"
    frames = read_npy(npy, ManifestError)
    rows = list(read_jsonl(path, ManifestError, _LABELED_FIELDS if with_labels else _UTTERANCE_FIELDS))
    wheres = [where for where, _ in rows]
    uids, counts = [rec["utterance_id"] for _, rec in rows], [rec["num_frames"] for _, rec in rows]
    tokens = [rec["tokens"] for _, rec in rows] if with_labels else []
    if min(counts, default=1) < 1:
        i = next(i for i, T in enumerate(counts) if T < 1)
        raise ManifestError(f"{wheres[i]}: utterance {uids[i]}: num_frames must be >= 1, got {counts[i]}")
    if with_labels:
        checked_tokens(wheres, tokens, vocab.num_classes, uids)
    if frames.dtype != _FRAME_DTYPE:
        raise ManifestError(f"{npy}: dtype {frames.dtype.str}, expected {_FRAME_DTYPE.str}")
    if frames.ndim != 2 or frames.shape[1] != feature_dim:
        raise ManifestError(f"{npy}: shape {frames.shape}, expected (rows, {feature_dim}) by meta.json")
    if not frames.flags.c_contiguous:
        raise ManifestError(f"{npy}: frames in Fortran order, expected C order")
    if sum(counts) != len(frames):
        raise ManifestError(f"{npy}: {len(frames)} rows != {sum(counts)}, the num_frames total of {path}")
    ends = list(accumulate(counts))
    if not np.isfinite(frames).all():  # training on a NaN or an infinity fails far from the file
        i = int(np.searchsorted(ends, np.argmin(np.isfinite(frames).all(axis=1)), side="right"))
        raise ManifestError(f"{npy}: utterance {uids[i]} ({wheres[i]}): non-finite frame value")
    frames.flags.writeable = False
    out = [FeatureSequence(uid, frames[end - T:end]) for uid, T, end in zip(uids, counts, ends)]
    return list(zip(out, _checked_labels(tokens))) if with_labels else out


def _checked_labels(token_lists) -> list[LabelSequence]:
    """The labels of token lists that :func:`checked_tokens` has checked, built
    without ``LabelSequence``'s per-token conversion and range check."""
    labels = []
    for tokens in token_lists:
        label = object.__new__(LabelSequence)
        object.__setattr__(label, "tokens", tuple(tokens))
        labels.append(label)
    return labels


def stacked(labels) -> tuple[np.ndarray, np.ndarray]:
    """The int64 columns ``(tokens, lengths)`` of token sequences: their tokens
    stacked, sequence b owning the next ``lengths[b]``."""
    labels = list(labels)
    lengths = np.fromiter(map(len, labels), np.int64, len(labels))
    return np.fromiter(chain.from_iterable(labels), np.int64, int(lengths.sum())), lengths


def checked_tokens(wheres, token_lists, num_classes: int | None = None, uids=None):
    """:func:`stacked` of token lists read from a file, list i from ``wheres[i]``.

    All tokens are checked at once: JSON integers (``int()`` would take true,
    1.7 and "2") from 1 to below ``num_classes`` (or the int64 end). Given
    ``uids``, the lists are their transcripts and none may be empty: any
    hypothesis but the empty one has an infinite WER against it, which no
    report or histogram can hold. The first bad list raises ManifestError
    naming its ``where``.
    """
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    flat = list(chain.from_iterable(token_lists))
    end = 2**63 if num_classes is None else num_classes
    ok = set(map(type, flat)) <= {int} and min(flat, default=1) >= 1 and max(flat, default=0) < end
    for where, toks in ([] if ok else zip(wheres, token_lists)):
        if any(type(t) is not int for t in toks):
            raise ManifestError(f"{where}: tokens must be JSON integers")
        if min(toks, default=1) < 1:
            raise ManifestError(f"{where}: label tokens must be >= 1; blank (0) is excluded")
        if max(toks, default=0) >= end:
            raise ManifestError(f"{where}: token index out of vocabulary range")
    if uids is not None and not lengths.all():
        i = int(np.argmin(lengths))
        raise ManifestError(f"{wheres[i]}: utterance {uids[i]!r}: empty transcript")
    return np.array(flat, dtype=np.int64), lengths


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
    refs_path = root / _REFS_FILE
    if not refs_path.is_file():
        return {}
    refs, wheres = {}, []  # utterance_id -> its token list, in file order
    for where, rec in read_jsonl(refs_path, ManifestError, _REFS_FIELDS):
        if rec["utterance_id"] in refs:
            raise ManifestError(f"{where}: duplicate utterance_id {rec['utterance_id']!r}")
        refs[rec["utterance_id"]] = rec["tokens"]
        wheres.append(where)
    token_lists = list(refs.values())
    checked_tokens(wheres, token_lists, vocab.num_classes, list(refs))
    return dict(zip(refs, _checked_labels(token_lists)))


def load_manifest(in_dir, splits=SPLITS) -> CorpusSplits:
    """Inverse of :func:`save_manifest`; load(save(x)) == x.

    Only ``meta.json`` and the two files of each named split are opened,
    plus the refs file with the unlabeled split; a split not named is
    returned empty, and so are the refs without the unlabeled split. After
    the lines, a frames array is checked one call per rule: ``<f8``, 2-D,
    ``meta.json``'s columns, C order, rows = sum of ``num_frames``, finite.
    """
    unknown = set(splits) - set(SPLITS)
    if unknown:
        raise ValueError(f"unknown split(s) {sorted(unknown)}; splits are {SPLITS}")
    root = Path(in_dir)
    vocab, dim = read_meta(root)
    read = {name: _read_utterances(root, name, vocab, dim) if name in splits else [] for name in SPLITS}
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
