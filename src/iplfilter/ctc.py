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

A batch's labels and the kernel's work arrays live in a :class:`LabelPlan`,
which ``model.train`` builds once and slices per minibatch. Each call checks
tokens and frame counts against it; infeasible (frames, label) pairs raise
:class:`FeasibilityError` there, while the brute-force oracle stays total and
returns -inf, so it can double as the ground truth for the error paths too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BLANK, LabelSequence, stacked
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


@dataclass(frozen=True)
class LabelPlan:
    """The label side of a CTC batch, built once by :func:`label_plan`.

    Column b of ``ext`` is utterance b's blank-interleaved label (blank, y1,
    blank, ..., yL, blank), padded with -1 (no class) to the longest;
    ``n_states`` is 2L + 1, ``min_frames`` the fewest frames the label fits
    in, L + (# adjacent equal pairs), and ``max_token`` its largest token (0
    if empty, the int64 maximum if any is blank or negative), so that
    ``max_token >= C`` is the token-range check against C classes.
    ``plan[idx]`` is the plan of utterances ``idx``, padded to their longest;
    it shares ``scratch``, the kernel's work arrays, so one plan serves one
    call at a time.
    """

    ext: np.ndarray  # (S, n) int64
    n_states: np.ndarray
    min_frames: np.ndarray
    max_token: np.ndarray
    scratch: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return self.n_states.size

    def __getitem__(self, idx) -> "LabelPlan":
        n_states = self.n_states[idx]
        ext = self.ext[: n_states.max(initial=1), idx]
        return LabelPlan(ext, n_states, self.min_frames[idx], self.max_token[idx], self.scratch)


def label_plan(labels, lengths=None) -> LabelPlan:
    """The :class:`LabelPlan` of a list of token sequences, or with ``lengths``
    of their stacked tokens, sequence b owning the next ``lengths[b]``."""
    if lengths is None:
        labels, lengths = stacked(labels)
    flat = np.asarray(labels, dtype=np.int64)
    n_tokens = np.asarray(lengths, dtype=np.int64)
    col = np.repeat(np.arange(n_tokens.size), n_tokens)
    pos = np.arange(flat.size) - np.repeat(np.cumsum(n_tokens) - n_tokens, n_tokens)
    n_states = 2 * n_tokens + 1
    ext = np.where(np.arange(n_states.max(initial=1))[:, None] < n_states, BLANK, -1)
    ext[2 * pos + 1, col] = flat
    pairs = (col[1:] == col[:-1]) & (flat[1:] == flat[:-1])
    max_token = np.zeros(n_tokens.size, dtype=np.int64)
    np.maximum.at(max_token, col, np.where(flat > BLANK, flat, np.iinfo(np.int64).max))
    min_frames = n_tokens + np.bincount(col[1:][pairs], minlength=n_tokens.size)
    return LabelPlan(ext, n_states, min_frames, max_token)


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

    ``labels`` may also be a :class:`LabelPlan`, or its slice ``plan[idx]``,
    built once for many calls; token lists get a plan per call. Each call
    checks every label's largest token against C and its ``min_frames``
    against ``lengths`` (one vectorized compare each), and the first failing
    utterance is named by its position in the batch.
    """
    if lengths is None:  # a batch of one
        arr = _as_logp(logp)
        res = ctc_log_prob(arr, labels if isinstance(labels, LabelPlan) else [labels], with_grad, [len(arr)])
        return CtcResult(log_prob=float(res.log_prob[0]), grad=res.grad)
    arr = np.asarray(logp, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    plan = labels if isinstance(labels, LabelPlan) else label_plan(labels)
    if arr.ndim != 2 or lengths.ndim != 1:
        raise ValueError("a batch needs a stacked (N, C) logp and a 1-D lengths")
    if len(plan) != lengths.size:
        raise ValueError(f"batch length mismatch: {lengths.size} lengths vs {len(plan)} labels")
    if (lengths < 1).any() or lengths.sum() != arr.shape[0]:
        raise ValueError(f"lengths must be >= 1 and sum to the {arr.shape[0]} stacked frame(s)")
    if not len(plan):
        return CtcResult(log_prob=np.zeros(0), grad=np.zeros_like(arr) if with_grad else None)
    bad_token = plan.max_token >= arr.shape[1]
    for b in np.flatnonzero(bad_token | (lengths < plan.min_frames))[:1]:  # the first bad one
        if bad_token[b]:
            raise ValueError(f"utterance {b}: label token outside the non-blank class range")
        n_tokens = plan.n_states[b] // 2
        raise FeasibilityError(
            f"utterance {b}: label of length {n_tokens} with {plan.min_frames[b] - n_tokens} "
            f"repeat pair(s) does not fit in {lengths[b]} frame(s)"
        )
    return CtcResult(*_forward_backward(arr, plan.ext, plan.n_states, lengths, with_grad, plan.scratch))


def _work_array(scratch: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized ``shape`` view of ``scratch[name]``, which grows as needed."""
    size = math.prod(shape)
    if name not in scratch or scratch[name].size < size:
        scratch[name] = np.empty(size, dtype)
    return scratch[name][:size].reshape(shape)


def _forward_backward(arr: np.ndarray, ext: np.ndarray, n_states, lengths: np.ndarray, with_grad: bool,
                      scratch: dict):
    """(B,) log-probs and the stacked gradient (or None) of a stacked batch.

    ``ext``, ``n_states`` and ``scratch`` are those of a checked
    :class:`LabelPlan`. Every (T, S, ...) array lives in ``scratch`` (freed
    and allocated anew on every call, they page-faulted afresh each time);
    the returned arrays are new. Layout (T, S + 2, W): time-major, then state, then column, padded to the
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
    S, B = ext.shape
    ar = np.arange(B)
    T = int(lengths.max())
    # Cell (t, s, b) of the padded batch reads entry (row, class) of a copy of
    # arr with a dummy row N, for frames past an utterance's end, and a dummy
    # class C, for states past its label; the same index later sends each
    # cell's occupancy to the gradient entry it belongs to.
    frame = np.arange(T)[:, None]
    row = np.where(frame < lengths, np.cumsum(lengths) - lengths + frame, N)  # (T, B)
    cell = _work_array(scratch, "cell", (T, S, B), np.int64)
    np.add((row * (C + 1))[:, None, :], np.where(ext < 0, C, ext), out=cell)
    padded = np.full((N + 1, C + 1), NEG_INF)
    padded[:N, :C] = arr
    # emission log-probs, -inf in padded cells; every index is in range, and
    # mode "clip" lets take write into ``out`` directly
    gathered = _work_array(scratch, "gathered", (T, S, B))
    e = padded.ravel().take(cell, out=gathered, mode="clip")
    seeds = {}
    if with_grad:
        e = _work_array(scratch, "e", (T, S, 2 * B))
        e[:, :, :B], e[:, :, B:] = gathered, gathered[::-1, ::-1]
        ext = np.hstack([ext, ext[::-1]])
        # the recursion leaves a flipped column -inf up to its first frame,
        # where its seed is set (one state if the label is empty); seeds[t]
        # lists frame t's (cell, value) pairs, cells flat within the frame
        two = n_states > 1
        seed_t = T - np.concatenate([lengths, lengths[two]])
        seed_s = S - np.concatenate([n_states, n_states[two] - 1])
        seed_c = B + np.concatenate([ar, ar[two]])
        flat = ((seed_s + 2) * 2 * B + seed_c).tolist()
        for t, at, value in zip(seed_t.tolist(), flat, e[seed_t, seed_s, seed_c].tolist()):
            seeds.setdefault(t, []).append((at, value))

    # A label state s (odd) may also come from s - 2, unless both carry the
    # same token; blanks (even) never skip. Forbidden skips add -inf, and
    # logaddexp(x, -inf) is exactly x. A skip into or out of a padded state
    # may be allowed; padded cells are always -inf, so it adds nothing.
    skip = np.full(ext.shape, NEG_INF)
    skip[2:][(ext[2:] != BLANK) & (ext[2:] != ext[:-2])] = 0.0
    into = skip[1::2]  # s - 2 -> s, for s = 1, 3, ..., S - 2

    # state s sits in row s + 2; the two -inf rows in front make the s-1 and
    # s-2 transitions plain slices
    alpha = _work_array(scratch, "alpha", (T, S + 2, e.shape[2]))
    alpha.fill(NEG_INF)
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
        if t in seeds:
            cur.put(*zip(*seeds[t]))

    last = lengths - 1
    log_prob = np.logaddexp(alpha[last, n_states + 1, ar], alpha[last, n_states, ar])
    if not with_grad:
        return log_prob, None

    # beta[t, s] of utterance b is cell (T-1-t, S-1-s) of its flipped column.
    # Padded cells have alpha = beta = e = -inf, and -inf - -inf is NaN, so
    # they read 0 from the dummy entries instead and come out exp(-inf) = 0.
    # alpha + beta counts the emission at t twice. bincount adds in input
    # order, (t, s, b), so each class sums its states in increasing s, like
    # the single recursion; the zeros of padded cells go to the dummies.
    beta = alpha[::-1, S + 1 : 1 : -1, B:]
    padded[N] = padded[:, C] = 0.0
    occupancy = np.add(alpha[:, 2:, :B], beta, out=_work_array(scratch, "occupancy", (T, S, B)))
    occupancy -= padded.ravel().take(cell, out=gathered, mode="clip")
    occupancy -= log_prob
    np.exp(occupancy, out=occupancy)
    gamma = np.bincount(cell.ravel(), weights=occupancy.ravel(), minlength=padded.size)
    return log_prob, np.exp(arr) - gamma.reshape(N + 1, C + 1)[:N, :C]


def greedy_decode(logp, lengths=None):
    """Collapse of the per-frame argmax path, plus each frame's max log-prob.

    Ties break toward the lowest class index, so decodes are reproducible.
    With ``lengths`` (stacked as in :func:`ctc_log_prob`) the B hypotheses
    come back stacked too, as ``(tokens, token_lengths, frame_max)``; an
    utterance's first frame always starts a new token, so tokens never merge
    across utterances.
    """
    if lengths is None:  # a batch of one
        arr = _as_logp(logp)
        tokens, _, fmax = greedy_decode(arr, [len(arr)])
        return LabelSequence(tokens.tolist()), fmax
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
    # a row's first maximum is its maximum, NaN included
    frame_max = arr[np.arange(alignment.size), alignment]
    return alignment[emit], np.add.reduceat(emit, starts, dtype=np.int64), frame_max


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
