"""Exact CTC machinery in log space.

Everything here works on plain (T, C) arrays of row-normalized
log-probabilities, with class 0 reserved for the blank. The forward/backward
recursions run over the blank-interleaved label sequence and accumulate with
log-sum-exp; -inf is the absorbing "no path" value and numpy's ``logaddexp``
propagates it without special casing. The same fact pads batches: a state or
frame whose emission is -inf stays -inf, and ``logaddexp(x, -inf)`` is
exactly ``x``, so one padded recursion over a whole minibatch gives every
utterance bit for bit what a recursion over that utterance alone gives.

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


def _num_repeat_pairs(labels) -> int:
    toks = list(labels)
    return sum(1 for a, b in zip(toks, toks[1:]) if a == b)


def is_feasible(num_frames: int, labels) -> bool:
    """A label fits in T frames iff T >= L + (# adjacent equal pairs)."""
    return num_frames >= len(list(labels)) + _num_repeat_pairs(labels)


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

    Layout (T, S + 2, B): time-major, then state, then utterance, padded to
    the longest utterance and label. Frames past an utterance's end and
    states past its label have -inf emissions, and transitions only move
    along the state axis, so utterances never mix. Every logaddexp/exp is
    the same elementwise operation a single utterance's recursion performs.
    """
    N, C = arr.shape
    B = lengths.size
    ar = np.arange(B)
    for b, toks in enumerate(labels):
        if any(t == BLANK or t >= C for t in toks):
            raise ValueError(f"utterance {b}: label token outside the non-blank class range")
        if not is_feasible(int(lengths[b]), toks):
            raise FeasibilityError(
                f"utterance {b}: label of length {len(toks)} with {_num_repeat_pairs(toks)} "
                f"repeat pair(s) does not fit in {lengths[b]} frame(s)"
            )

    T = int(lengths.max())
    n_states = np.array([2 * len(toks) + 1 for toks in labels])
    S = int(n_states.max())
    ext = np.full((S, B), BLANK, dtype=np.int64)
    for b, toks in enumerate(labels):
        ext[1 : 2 * len(toks) : 2, b] = toks
    live = np.arange(S)[:, None] < n_states  # (S, B)
    # A label state s (odd) may also come from s - 2, unless both carry the
    # same token; blanks (even) never skip. Forbidden skips add -inf, and
    # logaddexp(x, -inf) is exactly x.
    skip = np.full(ext.shape, NEG_INF)
    skip[2:][(ext[2:] != BLANK) & (ext[2:] != ext[:-2])] = 0.0
    into = skip[1::2]  # s - 2 -> s, for s = 1, 3, ..., S - 2
    back = np.full_like(into, NEG_INF)  # s + 2 -> s, for the same s
    back[:-1] = skip[3::2]

    starts = np.cumsum(lengths) - lengths
    row_b = np.repeat(ar, lengths)
    row_t = np.arange(N) - starts[row_b]
    padded = np.full((T, B, C), NEG_INF)
    padded[row_t, row_b] = arr
    e = padded[:, ar, ext]  # (T, S, B) emission log-probs
    e[:, ~live] = NEG_INF

    # state s sits in row s + 2; the two -inf rows in front make the s-1 and
    # s-2 transitions plain slices
    alpha = np.full((T, S + 2, B), NEG_INF)
    alpha[0, 2:4] = e[0, :2]
    tmp = np.empty_like(into)
    for t in range(1, T):
        prev, cur = alpha[t - 1], alpha[t]
        np.logaddexp(prev[2:], prev[1:-1], out=cur[2:])
        np.add(prev[1:-2:2], into, out=tmp)
        np.logaddexp(cur[3::2], tmp, out=cur[3::2])
        cur[2:] += e[t]

    last = lengths - 1
    log_prob = np.logaddexp(alpha[last, n_states + 1, ar], alpha[last, n_states, ar])
    if not with_grad:
        return log_prob, None

    # state s sits in row s; two -inf rows behind make s+1 and s+2 plain
    # slices. Past its last frame an utterance's column stays -inf (its
    # emissions there are -inf); at that frame it is reset to its seed.
    beta = np.full((T, S + 2, B), NEG_INF)
    seed_t = np.concatenate([last, last[n_states > 1]])
    seed_s = np.concatenate([n_states - 1, n_states[n_states > 1] - 2])
    seed_b = np.concatenate([ar, ar[n_states > 1]])
    beta[seed_t, seed_s, seed_b] = e[seed_t, seed_s, seed_b]
    seed_times = set(last.tolist())
    for t in range(T - 2, -1, -1):
        nxt, cur = beta[t + 1], beta[t]
        np.logaddexp(nxt[:S], nxt[1:-1], out=cur[:S])
        np.add(nxt[3::2], back, out=tmp)
        np.logaddexp(cur[1:S:2], tmp, out=cur[1:S:2])
        cur[:S] += e[t]
        if t in seed_times:
            at = seed_t == t
            cur[seed_s[at], seed_b[at]] = e[t, seed_s[at], seed_b[at]]

    # Padded cells have alpha = beta = e = -inf, and -inf - -inf is NaN, so
    # they subtract 0 instead and come out exp(-inf) = 0. alpha + beta counts
    # the emission at t twice. bincount adds in input order, (t, s, b), so
    # each class sums its states in increasing s, like the single recursion.
    valid = (np.arange(T)[:, None] < lengths)[:, None, :] & live
    occupancy = np.exp(alpha[:, 2:] + beta[:, :S] - np.where(valid, e, 0.0) - log_prob)
    cell = (np.arange(T)[:, None, None] * B + ar) * C + ext  # (T, S, B) -> (t, b, class)
    gamma = np.bincount(cell.ravel(), weights=occupancy.ravel(), minlength=T * B * C)
    return log_prob, np.exp(arr) - gamma.reshape(T, B, C)[row_t, row_b]


def greedy_decode(logp) -> tuple[LabelSequence, np.ndarray]:
    """Collapse of the per-frame argmax path, plus each frame's max log-prob.

    Ties break toward the lowest class index, so decodes are reproducible.
    """
    arr = _as_logp(logp)
    alignment = arr.argmax(axis=1)
    framewise_max = arr.max(axis=1)
    return collapse(alignment), framewise_max


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
