"""Exact CTC machinery in log space.

Everything here works on plain (T, C) arrays of row-normalized
log-probabilities, with class 0 reserved for the blank. The forward/backward
recursions run over the blank-interleaved label sequence and accumulate with
log-sum-exp; -inf is the absorbing "no path" value and numpy's ``logaddexp``
propagates it without special casing. The same fact pads batches: a state or
frame whose emission is -inf stays -inf, and ``logaddexp(x, -inf)`` is
exactly ``x``, so one padded recursion over a whole minibatch gives every
utterance bit for bit what a recursion over that utterance alone gives, and
a skip the label forbids is left out by a ``where`` mask. For the gradient
the batch is appended flipped in time and in state, so the one forward loop,
three ufunc calls a frame, also runs the backward recursion.

A batch's labels, their skip mask and the kernel's work arrays live in a
:class:`LabelPlan`, which ``model.train`` builds once and slices per
minibatch. Each call checks tokens and frame counts against it; infeasible
(frames, label) pairs raise :class:`FeasibilityError` there, while the
brute-force oracle stays total and returns -inf, so it can double as the
ground truth for the error paths too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
    arr = np.asarray(logp, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError("logp must be a (T, C) matrix with T >= 1")
    return arr


def collapse(alignment) -> LabelSequence:
    """Merge consecutive repeats, then drop blanks."""
    return LabelSequence(z for z, _ in itertools.groupby(alignment) if z != BLANK)


@dataclass(frozen=True)
class LabelPlan:
    """The label side of a CTC batch, built once by :func:`label_plan`.

    Column b of ``ext`` is utterance b's blank-interleaved label (blank, y1,
    blank, ..., yL, blank), padded with -1 (no class) to the longest, and
    ``allowed`` marks the states s >= 2 the skip from s - 2 may enter: a
    non-blank unlike s - 2 (padding too, harmless: its cells stay -inf).
    ``n_states`` is 2L + 1, ``min_frames`` the fewest frames the label fits
    in, L + (# adjacent equal pairs), and ``max_token`` its largest token (0
    if empty, the int64 maximum if any is blank or negative), so that
    ``max_token >= C`` is the token-range check against C classes.
    ``plan[idx]`` is the plan of utterances ``idx``, padded to their longest;
    it shares ``scratch``, the kernel's work arrays, so one plan serves one
    call at a time.
    """

    ext: np.ndarray  # (S, n) int64
    allowed: np.ndarray  # (S, n) bool
    n_states: np.ndarray
    min_frames: np.ndarray
    max_token: np.ndarray
    scratch: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return self.n_states.size

    def __getitem__(self, idx) -> "LabelPlan":
        n_states = self.n_states[idx]
        S = n_states.max(initial=1)
        return LabelPlan(self.ext[:S, idx], self.allowed[:S, idx], n_states, self.min_frames[idx],
                         self.max_token[idx], self.scratch)


def label_plan(tokens, lengths) -> LabelPlan:
    """The :class:`LabelPlan` of stacked token sequences, sequence b owning the
    next ``lengths[b]`` of ``tokens``."""
    flat = np.asarray(tokens, dtype=np.int64)
    n_tokens = np.asarray(lengths, dtype=np.int64)
    col = np.repeat(np.arange(n_tokens.size), n_tokens)
    pos = np.arange(flat.size) - np.repeat(np.cumsum(n_tokens) - n_tokens, n_tokens)
    n_states = 2 * n_tokens + 1
    ext = np.where(np.arange(n_states.max(initial=1))[:, None] < n_states, BLANK, -1)
    ext[2 * pos + 1, col] = flat
    allowed = np.zeros(ext.shape, dtype=bool)
    allowed[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    pairs = (col[1:] == col[:-1]) & (flat[1:] == flat[:-1])
    max_token = np.zeros(n_tokens.size, dtype=np.int64)
    np.maximum.at(max_token, col, np.where(flat > BLANK, flat, np.iinfo(np.int64).max))
    min_frames = n_tokens + np.bincount(col[1:][pairs], minlength=n_tokens.size)
    return LabelPlan(ext, allowed, n_states, min_frames, max_token)


def ctc_log_prob(logp, labels, with_grad: bool = False, lengths=None) -> CtcResult:
    """Log path-sum probability of ``labels`` under a (T, C) log-prob matrix.

    Standard forward dynamic program over the blank-interleaved label
    sequence (Graves et al., ICML 2006). With ``with_grad`` the
    forward-backward occupancies are turned into the gradient of the loss
    -log P with respect to the logits behind the given log-softmax output.

    Without ``lengths``, ``labels`` is one utterance's token sequence. With
    ``lengths`` the call covers a batch: ``logp`` stacks the frames of B
    utterances (utterance b owns the next ``lengths[b]`` rows), ``labels``
    is the :class:`LabelPlan` of their B token sequences, or its slice
    ``plan[idx]``, and the result holds a (B,) array of log-probs and a
    gradient stacked like ``logp``. A single utterance is the batch of one;
    either way one padded, time-major pass covers the whole batch.

    Each call checks every label's largest token against C and its
    ``min_frames`` against ``lengths`` (one vectorized compare each), and the
    first failing utterance is named by its position in the batch.
    """
    if lengths is None:  # a batch of one
        arr = _as_logp(logp)
        res = ctc_log_prob(arr, label_plan(labels, [len(labels)]), with_grad, [len(arr)])
        return CtcResult(log_prob=float(res.log_prob[0]), grad=res.grad)
    arr = np.asarray(logp, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    plan = labels
    if arr.ndim != 2 or lengths.ndim != 1:
        raise ValueError("a batch needs a stacked (N, C) logp and a 1-D lengths")
    sizes = lengths.tolist()
    if len(plan) != len(sizes):
        raise ValueError(f"batch length mismatch: {len(sizes)} lengths vs {len(plan)} labels")
    if min(sizes, default=1) < 1 or sum(sizes) != arr.shape[0]:
        raise ValueError(f"lengths must be >= 1 and sum to the {arr.shape[0]} stacked frame(s)")
    if not sizes:
        return CtcResult(log_prob=np.zeros(0), grad=np.zeros_like(arr) if with_grad else None)
    bad = (plan.max_token >= arr.shape[1]) | (lengths < plan.min_frames)
    for b in bad.nonzero()[0][:1]:  # the first bad one
        if plan.max_token[b] >= arr.shape[1]:
            raise ValueError(f"utterance {b}: label token outside the non-blank class range")
        n_tokens = plan.n_states[b] // 2
        raise FeasibilityError(
            f"utterance {b}: label of length {n_tokens} with {plan.min_frames[b] - n_tokens} "
            f"repeat pair(s) does not fit in {lengths[b]} frame(s)"
        )
    return CtcResult(*_forward_backward(arr, plan, lengths, with_grad))


def _work_array(scratch: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized ``shape`` view of ``scratch[name]``, which grows as needed."""
    size = math.prod(shape)
    if name not in scratch or scratch[name].size < size:
        scratch[name] = np.empty(size, dtype)
    return scratch[name][:size].reshape(shape)


def _skip_mask(allowed: np.ndarray, with_grad: bool) -> np.ndarray:
    """Rows 1, 3, ... of ``allowed``; with ``with_grad``, beside the flipped columns', its rows reversed."""
    if with_grad:
        S, B = allowed.shape
        allowed = np.concatenate([allowed, np.zeros((S, B), dtype=bool)], axis=1)
        allowed[2:, B:] = allowed[S - 1 : 1 : -1, :B]
    return allowed[1::2]


def _forward_backward(arr: np.ndarray, plan: LabelPlan, lengths: np.ndarray, with_grad: bool):
    """(B,) log-probs and the stacked gradient (or None) of a stacked batch.

    ``plan`` is a checked :class:`LabelPlan`; every (T, S, ...) array lives
    in its ``scratch`` (allocated anew per call, they page-faulted each
    time), the returned arrays are new. Layout (T, S + 2, W): time-major,
    then state, then column, padded to the longest utterance and label.
    Frames past an utterance's end and states past its label have -inf
    emissions, and transitions only move along the state axis, so columns
    never mix; every logaddexp/exp is the one a single recursion performs.

    Columns 0..B-1 hold the batch. With ``with_grad``, columns B..2B-1 hold
    it flipped in time and in state, where the forward recursion is the
    backward one: flipped utterance b enters at frame T - lengths[b] in
    states S - n_states[b] and the next, and beta is a reversed view.

    A frame is three ufunc calls on views of ``alpha``: the s and s - 1
    transitions, the s - 2 skip where the plan allows it (``where`` leaves the
    other states as a -inf skip would), and the emission.
    """
    ext, n_states, scratch = plan.ext, plan.n_states, plan.scratch
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
    seeds, skip = {}, _skip_mask(plan.allowed, with_grad)
    if with_grad:
        e = _work_array(scratch, "e", (T, S, 2 * B))
        e[:, :, :B], e[:, :, B:] = gathered, gathered[::-1, ::-1]
        # the recursion leaves a flipped column -inf up to its first frame,
        # where its seed is set (one state if the label is empty); seeds[t]
        # lists frame t's (cell, value) pairs, cells flat within the frame
        for c, t, first in zip(range(B, 2 * B), (T - lengths).tolist(), (S - n_states).tolist()):
            for s in range(first, min(first + 2, S)):
                seeds.setdefault(t, []).append(((s + 2) * 2 * B + c, e[t, s, c]))

    # state s sits in row s + 2; the two -inf rows in front make the s - 1
    # and s - 2 transitions plain views: s from s and s - 1 over rows 2:,
    # odd s from s - 2 over rows 3::2
    alpha = _work_array(scratch, "alpha", (T, S + 2, e.shape[2]))
    alpha.fill(NEG_INF)
    alpha[0, 2:4] = e[0, :2]
    if 0 in seeds:
        alpha[0].put(*zip(*seeds[0]))
    same, back, odd = alpha[:, 2:], alpha[:, 1:-1], alpha[:, 3::2]
    frames = zip(range(1, T), same[1:], same, back, odd[1:], alpha[:, 1:-2:2], e[1:])
    for t, cur, prev, prev_back, cur_odd, prev_skipped, emit in frames:
        np.logaddexp(prev, prev_back, out=cur)
        np.logaddexp(cur_odd, prev_skipped, out=cur_odd, where=skip)
        cur += emit
        if t in seeds:
            alpha[t].put(*zip(*seeds[t]))

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
        if collapse(z) != target:
            continue
        path_lp = sum(arr[t, k] for t, k in enumerate(z))
        total = np.logaddexp(total, path_lp)
    return float(total)
