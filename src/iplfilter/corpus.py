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
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .artifacts import read_json, read_jsonl, read_npy, write_json, write_jsonl, write_npy
from .errors import ConfigurationError, ManifestError, ShapeError, check_config

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

    The rows of a :class:`Split` are read-only views of its frames array;
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


def ragged_rows(lengths: np.ndarray, idx) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``idx`` (index array, mask or slice) of a column whose row i owns the
    next ``lengths[i]`` items: the positions of their items, and their lengths."""
    sel, starts = lengths[idx], (np.cumsum(lengths) - lengths)[idx]
    return np.arange(sel.sum()) + np.repeat(starts - np.cumsum(sel) + sel, sel), sel


def unstacked(tokens: np.ndarray, lengths: np.ndarray) -> list[list[int]]:
    """The token lists of a stacked column, as :func:`stacked` takes them."""
    toks, ends = tokens.tolist(), np.cumsum(lengths).tolist()
    return [toks[a:b] for a, b in zip([0, *ends], ends)]


@dataclass(eq=False)
class Split:
    """One corpus split as columns; row i is utterance ``ids[i]``.

    ``frames``, a read-only view, stacks the utterances' (T, D) matrices by
    ``num_frames``, and ``tokens`` their transcripts by ``lengths`` (None
    in the unlabeled split); columns of other sizes raise ShapeError.
    ``split[i]`` builds row i, a (FeatureSequence, LabelSequence) pair or
    the features alone, as iterating does for every row; ``split[idx]`` is
    the Split of rows ``idx``, in order.
    """

    ids: np.ndarray  # (N,) object: str
    frames: np.ndarray  # (sum T, D) float64
    num_frames: np.ndarray  # (N,) int64
    tokens: np.ndarray | None = None  # int64
    lengths: np.ndarray | None = None  # (N,) int64

    def __post_init__(self):
        self.frames = self.frames.view()
        self.frames.flags.writeable = False
        n, labeled, T = len(self.ids), self.lengths is not None, self.num_frames.sum()
        if (self.num_frames.shape != (n,) or self.frames.ndim != 2 or len(self.frames) != T
                or labeled and (self.lengths.shape != (n,) or self.tokens.shape != (self.lengths.sum(),))):
            labels = f", tokens {self.tokens.shape} by lengths {self.lengths.shape}" if labeled else ""
            raise ShapeError(f"split of {n} ids: frames {self.frames.shape} by num_frames "
                             f"{self.num_frames.shape} summing to {T}{labels}")

    def __len__(self) -> int:
        return self.ids.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Split):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in vars(self))

    def __add__(self, other: Split) -> Split:
        """The rows of this labeled split, then those of ``other``."""
        return Split(*(np.concatenate([getattr(self, f.name), getattr(other, f.name)])
                       for f in fields(Split)))

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return next(iter(self[[idx]]))
        rows, num_frames = ragged_rows(self.num_frames, idx)
        if self.tokens is None:
            return Split(self.ids[idx], self.frames[rows], num_frames)
        toks, lengths = ragged_rows(self.lengths, idx)
        return Split(self.ids[idx], self.frames[rows], num_frames, self.tokens[toks], lengths)

    def __iter__(self):
        ends = np.cumsum(self.num_frames).tolist()
        rows = (FeatureSequence(uid, self.frames[end - T:end])
                for uid, T, end in zip(self.ids.tolist(), self.num_frames.tolist(), ends))
        if self.tokens is None:
            return rows
        return zip(rows, map(LabelSequence, unstacked(self.tokens, self.lengths)))


def empty_split(feature_dim: int, labeled: bool = True) -> Split:
    """A split of no utterances, of frames ``feature_dim`` wide."""
    none = np.zeros(0, np.int64)
    return Split(np.empty(0, object), np.empty((0, feature_dim)), none, *((none, none) if labeled else ()))


class Transcripts(Mapping):
    """Token sequences by utterance id, as columns: ``ids[i]`` owns the next
    ``lengths[i]`` of ``tokens``; none by default. ``refs[uid]`` builds one
    :class:`LabelSequence`."""

    def __init__(self, ids=np.empty(0, object), tokens=np.zeros(0, np.int64), lengths=np.zeros(0, np.int64)):
        self.ids, self.tokens, self.lengths, self._rows = ids, tokens, lengths, None

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, uid) -> LabelSequence:
        return LabelSequence(self.columns([uid])[0].tolist())

    def columns(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """The stacked ``(tokens, lengths)`` of ``ids``: the columns themselves in their
        own order, else gathered by an id-to-row map (KeyError names a missing id)."""
        if np.array_equal(np.asarray(ids, dtype=object), self.ids):
            return self.tokens, self.lengths
        if self._rows is None:
            self._rows = dict(zip(self.ids.tolist(), range(len(self))))
        rows, lengths = ragged_rows(self.lengths, np.array([self._rows[uid] for uid in ids], dtype=np.int64))
        return self.tokens[rows], lengths


@dataclass
class CorpusSplits:
    """Labeled/unlabeled/dev/test splits, each a :class:`Split`; dev and test
    default to empty ones.

    ``unlabeled_refs`` holds the hidden transcripts of the unlabeled split, in
    its order, and exists only for oracle evaluation; training-path operations
    never receive it. It may be empty (truth withheld entirely) but, when
    present, must cover exactly the unlabeled utterance ids.
    """

    vocabulary: Vocabulary
    labeled: Split
    unlabeled: Split
    unlabeled_refs: Transcripts = field(default_factory=Transcripts)
    dev: Split | None = None
    test: Split | None = None

    def __post_init__(self):
        self.dev, self.test = (self.labeled[:0] if s is None else s for s in (self.dev, self.test))
        ids = np.concatenate([getattr(self, name).ids for name in SPLITS]).tolist()
        dupes = {i for i in ids if ids.count(i) > 1} if len(set(ids)) != len(ids) else set()
        if dupes:
            raise ManifestError(f"duplicate utterance_id(s): {sorted(dupes)}")
        refs, unl = self.unlabeled_refs, self.unlabeled.ids
        if refs and set(refs) != set(unl.tolist()):
            raise ManifestError("unlabeled_refs must cover exactly the unlabeled ids")
        self.unlabeled_refs = Transcripts(unl, *refs.columns(unl)) if refs else Transcripts()

    @property
    def feature_dim(self) -> int:
        if not (len(self.labeled) or len(self.unlabeled)):
            raise ValueError("corpus has no utterances")
        return self.labeled.frames.shape[1]


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


def _draw_split(rng, cfg: CorpusGenConfig, means: np.ndarray, prefix: str, n: int) -> Split:
    """``n`` utterances drawn straight into columns, one utterance at a time: its
    length, each token, its frame counts per token, then its noise.

    The noise is drawn into one frames buffer, which grows in place (a realloc,
    so no second copy of it exists), and becomes the frames in place:
    noise * sigma + mean equals mean + sigma * noise.
    """
    lo_len, hi_len = cfg.label_len
    lo_fr, hi_fr = cfg.frames_per_token
    tokens, lengths, counts, num_frames = [], [], [], []
    frames = np.empty((n * (lo_len + hi_len) * (lo_fr + hi_fr) // 4, cfg.feature_dim))  # the mean total
    end = 0
    for _ in range(n):
        length = int(rng.integers(lo_len, hi_len + 1))
        tok = int(rng.integers(1, cfg.vocab_size + 1))
        tokens.append(tok)
        # the others uniform over the other vocab_size - 1 tokens (no immediate repeat); one
        # array call draws what one call per token would
        for r in rng.integers(1, cfg.vocab_size, size=length - 1).tolist():
            tok = r if r < tok else r + 1
            tokens.append(tok)
        counts.append(rng.integers(lo_fr, hi_fr + 1, size=length))
        num_frames.append(int(counts[-1].sum()))
        if end + num_frames[-1] > len(frames):
            frames.resize((max(end + num_frames[-1], len(frames) * 5 // 4), cfg.feature_dim), refcheck=False)
        rng.standard_normal(out=frames[end:end + num_frames[-1]])
        end += num_frames[-1]
        lengths.append(length)
    frames.resize((end, cfg.feature_dim), refcheck=False)
    toks = np.array(tokens, dtype=np.int64)
    mean_rows = np.repeat(toks - 1, np.concatenate(counts))
    frames *= cfg.noise_sigma
    for a in range(0, end, 1024):  # the token means a block at a time, so no frames-sized temporary
        frames[a:a + 1024] += means[mean_rows[a:a + 1024]]
    return Split(np.array([f"{prefix}-{i:04d}" for i in range(n)], dtype=object), frames,
                 np.array(num_frames, dtype=np.int64), toks, np.array(lengths, dtype=np.int64))


def generate_corpus(gen_config: CorpusGenConfig, seed: int) -> CorpusSplits:
    """Deterministically generate all four splits from (gen_config, seed)."""
    s_means, *s_splits = np.random.SeedSequence(seed).spawn(1 + len(SPLITS))
    means = np.random.default_rng(s_means).standard_normal((gen_config.vocab_size, gen_config.feature_dim))
    drawn = {name: _draw_split(np.random.default_rng(s), gen_config, means, _ID_PREFIXES[name],
                               getattr(gen_config, f"n_{name}")) for name, s in zip(SPLITS, s_splits)}
    unl = drawn["unlabeled"]
    drawn["unlabeled"] = Split(unl.ids, unl.frames, unl.num_frames)  # its labels are the hidden truth
    return CorpusSplits(default_vocabulary(gen_config.vocab_size), unlabeled_refs=Transcripts(
        unl.ids, unl.tokens, unl.lengths), **drawn)


def json_lines(ids: np.ndarray, heads, tokens: np.ndarray | None = None, lengths=None):
    """A line per id as ``write_jsonl`` writes its record: the head (the keys before
    ``tokens``), the tokens if given, then ``utterance_id``."""
    parts = [""] * len(ids) if tokens is None else [f'"tokens": {t}, ' for t in unstacked(tokens, lengths)]
    return (f'{{{head}{part}"utterance_id": {encode_basestring_ascii(uid)}}}\n'
            for head, part, uid in zip(heads, parts, ids.tolist()))


def save_manifest(splits: CorpusSplits, out_dir) -> None:
    """Write one directory per corpus: meta, and per split a jsonl file and a frames file.

    A split's ``<split>.frames.npy`` stacks its frame matrices in line order,
    one little-endian float64 (``<f8``) array in C order, so the round trip is
    exact to the bit; each line holds ``utterance_id``, ``num_frames`` and, in
    a labeled split, ``tokens``. The hidden truth of the unlabeled split goes
    to a separate refs file read only by oracle paths.
    """
    out, refs, vocab = Path(out_dir), splits.unlabeled_refs, list(splits.vocabulary.tokens)
    write_json(out / _META_FILE, {"tokens": vocab, "feature_dim": splits.feature_dim}, MANIFEST_SCHEMA)
    for name in SPLITS:
        split = getattr(splits, name)
        write_npy(out / _FRAME_FILES[name], split.frames.astype(_FRAME_DTYPE, copy=False))
        heads = [f'"num_frames": {T}, ' for T in split.num_frames.tolist()]
        write_jsonl(out / _SPLIT_FILES[name], json_lines(split.ids, heads, split.tokens, split.lengths))
    write_jsonl(out / _REFS_FILE, json_lines(refs.ids, [""] * len(refs), refs.tokens, refs.lengths))


def _read_utterances(root: Path, name: str, vocab: Vocabulary, feature_dim: int):
    """Split ``name``: its frames file read, then its lines, then the frames checked against them."""
    npy, path, with_labels = root / _FRAME_FILES[name], root / _SPLIT_FILES[name], name != "unlabeled"
    frames = read_npy(npy, ManifestError)
    recs, where = read_jsonl(path, ManifestError, _LABELED_FIELDS if with_labels else _UTTERANCE_FIELDS)
    uids, counts = [rec["utterance_id"] for rec in recs], [rec["num_frames"] for rec in recs]
    if min(counts, default=1) < 1:
        i = next(i for i, T in enumerate(counts) if T < 1)
        raise ManifestError(f"{where(i)}: utterance {uids[i]}: num_frames must be >= 1, got {counts[i]}")
    tokens = [rec["tokens"] for rec in recs] if with_labels else None
    labels = () if tokens is None else checked_tokens(where, tokens, vocab.num_classes, uids)
    if frames.dtype != _FRAME_DTYPE:
        raise ManifestError(f"{npy}: dtype {frames.dtype.str}, expected {_FRAME_DTYPE.str}")
    if frames.ndim != 2 or frames.shape[1] != feature_dim:
        raise ManifestError(f"{npy}: shape {frames.shape}, expected (rows, {feature_dim}) by meta.json")
    if not frames.flags.c_contiguous:
        raise ManifestError(f"{npy}: frames in Fortran order, expected C order")
    if sum(counts) != len(frames):
        raise ManifestError(f"{npy}: {len(frames)} rows != {sum(counts)}, the num_frames total of {path}")
    if not np.isfinite(frames).all():  # training on a NaN or an infinity fails far from the file
        i = int(np.searchsorted(np.cumsum(counts), np.argmin(np.isfinite(frames).all(axis=1)), side="right"))
        raise ManifestError(f"{npy}: utterance {uids[i]} ({where(i)}): non-finite frame value")
    return Split(np.array(uids, dtype=object), frames, np.array(counts, dtype=np.int64), *labels)


def stacked(labels) -> tuple[np.ndarray, np.ndarray]:
    """The int64 columns ``(tokens, lengths)`` of token sequences: their tokens
    stacked, sequence b owning the next ``lengths[b]``."""
    labels = list(labels)
    lengths = np.fromiter(map(len, labels), np.int64, len(labels))
    return np.fromiter(chain.from_iterable(labels), np.int64, int(lengths.sum())), lengths


def checked_tokens(where, token_lists, num_classes: int | None = None, uids=None):
    """:func:`stacked` of token lists read from a file, list i from ``where(i)`` (a ``path:line``).

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
    for i, toks in enumerate([] if ok else token_lists):
        if any(type(t) is not int for t in toks):
            raise ManifestError(f"{where(i)}: tokens must be JSON integers")
        if min(toks, default=1) < 1:
            raise ManifestError(f"{where(i)}: label tokens must be >= 1; blank (0) is excluded")
        if max(toks, default=0) >= end:
            raise ManifestError(f"{where(i)}: token index out of vocabulary range")
    if uids is not None and not lengths.all():
        i = int(np.argmin(lengths))
        raise ManifestError(f"{where(i)}: utterance {uids[i]!r}: empty transcript")
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


def _read_refs(root: Path, vocab: Vocabulary) -> Transcripts:
    """The hidden transcripts; a corpus without a refs file has withheld them."""
    refs_path = root / _REFS_FILE
    if not refs_path.is_file():
        return Transcripts()
    recs, where = read_jsonl(refs_path, ManifestError, _REFS_FIELDS)
    ids, seen = [rec["utterance_id"] for rec in recs], set()
    for i in range(len(ids) if len(set(ids)) != len(ids) else 0):
        if ids[i] in seen or seen.add(ids[i]):
            raise ManifestError(f"{where(i)}: duplicate utterance_id {ids[i]!r}")
    tokens = checked_tokens(where, [rec["tokens"] for rec in recs], vocab.num_classes, ids)
    return Transcripts(np.array(ids, dtype=object), *tokens)


def load_manifest(in_dir, splits=SPLITS) -> CorpusSplits:
    """Inverse of :func:`save_manifest`; load(save(x)) == x.

    Only ``meta.json`` and the two files of each named split are opened,
    plus the refs file with the unlabeled split; a split not named is
    returned empty, and so are the refs without the unlabeled split. After
    the lines, a frames array is checked one call per rule: ``<f8``, 2-D,
    ``meta.json``'s columns, C order, rows = sum of ``num_frames``, finite.
    """
    if unknown := set(splits) - set(SPLITS):
        raise ValueError(f"unknown split(s) {sorted(unknown)}; splits are {SPLITS}")
    root = Path(in_dir)
    vocab, dim = read_meta(root)
    read = {name: _read_utterances(root, name, vocab, dim) if name in splits
            else empty_split(dim, name != "unlabeled") for name in SPLITS}
    refs = _read_refs(root, vocab) if "unlabeled" in splits else Transcripts()
    return CorpusSplits(vocabulary=vocab, unlabeled_refs=refs, **read)


def load_refs(in_dir) -> Transcripts:
    """The unlabeled split's hidden transcripts alone, as in ``load_manifest(in_dir).unlabeled_refs``.

    Opens ``meta.json`` and ``unlabeled_refs.jsonl`` only, so the refs are
    not checked against the unlabeled ids.
    """
    root = Path(in_dir)
    vocab, _ = read_meta(root)
    return _read_refs(root, vocab)
