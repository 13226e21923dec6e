"""Exact CTC machinery in log space.

Everything here works on plain (T, C) arrays of row-normalized
log-probabilities, with class 0 reserved for the blank. The forward/backward
recursions run over the blank-interleaved label sequence and accumulate with
log-sum-exp; -inf is the absorbing "no path" value and numpy's ``logaddexp``
propagates it without special casing. The same fact pads batches: a state or
frame whose emission is -inf stays -inf, and ``logaddexp(x, -inf)`` is
exactly ``x``, so one padded recursion over a whole minibatch gives every
utterance bit for bit what a recursion over that utterance alone gives.
For the gradient the batch is appended flipped in time and in state, so the
one forward loop also runs the backward recursion, operand for operand.

Infeasible (frames, label) pairs raise :class:`FeasibilityError` from the
training-facing entry points, while the brute-force oracle stays total and
returns -inf, so it can double as the ground truth for the error paths too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .corpus import BLANK, LabelSequence
from .errors import FeasibilityError

NEG_INF = float("-inf")

# brute_force_ctc refuses instances with more alignments than this
BRUTE_FORCE_LIMIT = 10**6


@dataclass
class CtcResult:
    """Path-sum log-probability and, optionally, d(-log P)/d(logits).

    For a stacked batch (see :func:`ctc_log_prob`) ``log_prob`` is a (B,)
    array and ``grad`` is stacked row for row like the input.
    """

    log_prob: float | np.ndarray
    grad: np.ndarray | None = None


def _as_logp(logp) -> np.ndarray:
    arr = np.asarray(getattr(logp, "logp", logp), dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("logp must be a (T, C) matrix with T >= 1")
    return arr


def collapse(alignment) -> LabelSequence:
    """Merge consecutive repeats, then drop blanks."""
    out = []
    prev = None
    for z in alignment:
        if z != prev and z != BLANK:
            out.append(int(z))
        prev = z
    return LabelSequence(tuple(out))


def is_feasible(num_frames: int, labels) -> bool:
    """A label fits in T frames iff T >= L + (# adjacent equal pairs)."""
    toks = list(labels)
    return num_frames >= len(toks) + sum(a == b for a, b in zip(toks, toks[1:]))


def ctc_log_prob(logp, labels, with_grad: bool = False, lengths=None) -> CtcResult:
    """Log path-sum probability of ``labels`` under a (T, C) log-prob matrix.

    Standard forward dynamic program over the blank-interleaved label
    sequence (Graves et al., ICML 2006). With ``with_grad`` the
    forward-backward occupancies are turned into the gradient of the loss
    -log P with respect to the logits behind the given log-softmax output.

    With ``lengths`` the call covers a batch: ``logp`` stacks the frames of
    B utterances (utterance b owns the next ``lengths[b]`` rows), ``labels``
    holds their B token sequences, and the result holds a (B,) array of
    log-probs and a gradient stacked like ``logp``. A single utterance is
    the batch of one; either way one padded, time-major pass covers the
    whole batch.
    """
    if lengths is None:
        arr = _as_logp(logp)
        log_prob, grad = _forward_backward(arr, [list(labels)], np.array([arr.shape[0]]), with_grad)
        return CtcResult(log_prob=float(log_prob[0]), grad=grad)
    arr = np.asarray(logp, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    labs = [list(lab) for lab in labels]
    if arr.ndim != 2 or lengths.ndim != 1:
        raise ValueError("a batch needs a stacked (N, C) logp and a 1-D lengths")
    if len(labs) != lengths.size:
        raise ValueError(f"batch length mismatch: {lengths.size} lengths vs {len(labs)} labels")
    if (lengths < 1).any() or lengths.sum() != arr.shape[0]:
        raise ValueError(f"lengths must be >= 1 and sum to the {arr.shape[0]} stacked frame(s)")
    if not labs:
        return CtcResult(log_prob=np.zeros(0), grad=np.zeros_like(arr) if with_grad else None)
    return CtcResult(*_forward_backward(arr, labs, lengths, with_grad))


def _forward_backward(arr: np.ndarray, labels: list[list[int]], lengths: np.ndarray, with_grad: bool):
    """(B,) log-probs and the stacked gradient (or None) of a stacked batch.

    Layout (T, S + 2, W): time-major, then state, then column, padded to the
    longest utterance and label. Frames past an utterance's end and states
    past its label have -inf emissions, and transitions only move along the
    state axis, so columns never mix. Every logaddexp/exp is the same
    elementwise operation a single utterance's recursion performs.

    Columns 0..B-1 hold the batch. With ``with_grad``, columns B..2B-1 hold
    it flipped in time and in state, where the forward recursion is the
    backward one: flipped utterance b enters at frame T - lengths[b] in
    states S - n_states[b] and the next, and beta is a reversed view.
    """
    N, C = arr.shape
    B = lengths.size
    ar = np.arange(B)
    n_states = np.array([2 * len(toks) + 1 for toks in labels])
    T, S = int(lengths.max()), int(n_states.max())
    ext = np.full((S, B), BLANK, dtype=np.int64)
    for b, toks in enumerate(labels):
        ext[1 : 2 * len(toks) : 2, b] = toks
    live = np.arange(S)[:, None] < n_states  # (S, B)
    bad_token = (live[1::2] & ((ext[1::2] <= BLANK) | (ext[1::2] >= C))).any(axis=0)
    repeats = ((ext[1:-2:2] == ext[3::2]) & (ext[1:-2:2] != BLANK)).sum(axis=0)
    for b in np.flatnonzero(bad_token | (lengths < n_states // 2 + repeats))[:1]:  # the first bad one
        if bad_token[b]:
            raise ValueError(f"utterance {b}: label token outside the non-blank class range")
        raise FeasibilityError(
            f"utterance {b}: label of length {n_states[b] // 2} with {repeats[b]} "
            f"repeat pair(s) does not fit in {lengths[b]} frame(s)"
        )

    starts = np.cumsum(lengths) - lengths
    row_b = np.repeat(ar, lengths)
    row_t = np.arange(N) - starts[row_b]
    padded = np.full((T, B, C), NEG_INF)
    padded[row_t, row_b] = arr
    e = padded[:, ar, ext]  # (T, S, B) emission log-probs
    e[:, ~live] = NEG_INF
    seed_times = set()
    if with_grad:
        ext, e = np.hstack([ext, ext[::-1]]), np.concatenate([e, e[::-1, ::-1]], axis=2)
        # the recursion leaves a flipped column -inf up to its first frame,
        # where its seed is set (one state if the label is empty)
        two = n_states > 1
        seed_t = T - np.concatenate([lengths, lengths[two]])
        seed_s = S - np.concatenate([n_states, n_states[two] - 1])
        seed_c = B + np.concatenate([ar, ar[two]])
        seed_times = set(seed_t.tolist())

    # A label state s (odd) may also come from s - 2, unless both carry the
    # same token; blanks (even) never skip. Forbidden skips add -inf, and
    # logaddexp(x, -inf) is exactly x. A flipped label's first state may
    # also "skip" from the padding before it, whose cells are always -inf.
    skip = np.full(ext.shape, NEG_INF)
    skip[2:][(ext[2:] != BLANK) & (ext[2:] != ext[:-2])] = 0.0
    into = skip[1::2]  # s - 2 -> s, for s = 1, 3, ..., S - 2

    # state s sits in row s + 2; the two -inf rows in front make the s-1 and
    # s-2 transitions plain slices
    alpha = np.full((T, S + 2, e.shape[2]), NEG_INF)
    alpha[0, 2:4] = e[0, :2]
    tmp = np.empty_like(into)
    for t in range(T):
        cur = alpha[t]
        if t:
            prev = alpha[t - 1]
            np.logaddexp(prev[2:], prev[1:-1], out=cur[2:])
            np.add(prev[1:-2:2], into, out=tmp)
            np.logaddexp(cur[3::2], tmp, out=cur[3::2])
            cur[2:] += e[t]
        if t in seed_times:
            at = seed_t == t
            cur[seed_s[at] + 2, seed_c[at]] = e[t, seed_s[at], seed_c[at]]

    last = lengths - 1
    log_prob = np.logaddexp(alpha[last, n_states + 1, ar], alpha[last, n_states, ar])
    if not with_grad:
        return log_prob, None

    # beta[t, s] of utterance b is cell (T-1-t, S-1-s) of its flipped column.
    # Padded cells have alpha = beta = e = -inf, and -inf - -inf is NaN, so
    # they subtract 0 instead and come out exp(-inf) = 0. alpha + beta counts
    # the emission at t twice. bincount adds in input order, (t, s, b), so
    # each class sums its states in increasing s, like the single recursion.
    beta = alpha[::-1, S + 1 : 1 : -1, B:]
    e, ext = e[:, :, :B], ext[:, :B]
    valid = (np.arange(T)[:, None] < lengths)[:, None, :] & live
    occupancy = np.exp(alpha[:, 2:, :B] + beta - np.where(valid, e, 0.0) - log_prob)
    cell = (np.arange(T)[:, None, None] * B + ar) * C + ext  # (T, S, B) -> (t, b, class)
    gamma = np.bincount(cell.ravel(), weights=occupancy.ravel(), minlength=T * B * C)
    return log_prob, np.exp(arr) - gamma.reshape(T, B, C)[row_t, row_b]


def greedy_decode(logp, lengths=None):
    """Collapse of the per-frame argmax path, plus each frame's max log-prob.

    Ties break toward the lowest class index, so decodes are reproducible.
    With ``lengths`` (stacked as in :func:`ctc_log_prob`) it returns B
    hypotheses and the stacked row maxima; an utterance's first frame always
    starts a new token, so tokens never merge across utterances.
    """
    if lengths is None:
        arr = _as_logp(logp)
        return collapse(arr.argmax(axis=1)), arr.max(axis=1)
    arr = np.asarray(logp, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if arr.ndim != 2 or lengths.ndim != 1 or (lengths < 1).any() or lengths.sum() != arr.shape[0]:
        raise ValueError("a batch needs a stacked (N, C) logp and 1-D lengths >= 1 summing to N")
    alignment = arr.argmax(axis=1)
    starts = np.cumsum(lengths) - lengths
    emit = np.ones(alignment.size, dtype=bool)
    emit[1:] = alignment[1:] != alignment[:-1]
    emit[starts] = True
    emit &= alignment != BLANK
    tokens = alignment[emit].tolist()
    ends = np.cumsum(np.add.reduceat(emit, starts, dtype=np.int64)).tolist()
    hyps = [LabelSequence(tuple(tokens[a:b])) for a, b in zip([0, *ends], ends)]
    return hyps, arr.max(axis=1)


def brute_force_ctc(logp, labels) -> float:
    """Literal path enumeration; the test oracle for :func:`ctc_log_prob`.

    Total over all inputs: an infeasible label simply has no compatible
    alignment and comes back as -inf.
    """
    arr = _as_logp(logp)
    T, C = arr.shape
    if C**T > BRUTE_FORCE_LIMIT:
        raise ValueError(f"instance too large to enumerate: {C}^{T} alignments")
    target = tuple(int(t) for t in labels)
    total = NEG_INF
    for z in itertools.product(range(C), repeat=T):
        if collapse(z).tokens != target:
            continue
        path_lp = sum(arr[t, k] for t, k in enumerate(z))
        total = np.logaddexp(total, path_lp)
    return float(total)
