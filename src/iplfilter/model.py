"""A small per-frame acoustic model, its optimizer, and the LR schedule.

The model maps each D-dimensional frame independently to log-probabilities
over |V|+1 classes (blank included): either a single affine layer or one
tanh hidden layer followed by an affine layer. Gradients are computed by
hand, which keeps every parameter checkable against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import VERSION, read_json, write_json
from .corpus import FeatureSequence, LabelSequence
from .ctc import ctc_log_prob, label_plan
from .errors import ConfigurationError, ShapeError, TrainingError

CHECKPOINT_SCHEMA = "acoustic-model"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
OPTIMIZERS = ("adam", "sgd")


@dataclass
class FrameLogProbs:
    """(T, C) row-normalized log-probabilities for one utterance."""

    utterance_id: str
    logp: np.ndarray


@dataclass
class AcousticModel:
    feature_dim: int
    vocab_size: int  # non-blank tokens; output dimension is vocab_size + 1
    hidden_dim: int  # 0 = plain affine model
    seed: int
    params: dict[str, np.ndarray]

    def copy(self) -> "AcousticModel":
        return AcousticModel(
            feature_dim=self.feature_dim,
            vocab_size=self.vocab_size,
            hidden_dim=self.hidden_dim,
            seed=self.seed,
            params={k: v.copy() for k, v in self.params.items()},
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    base_lr: float = 0.15
    warmup_frac: float = 0.10
    hold_frac: float = 0.40
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("epochs must be >= 0 and batch_size >= 1")
        if not (0.0 <= self.warmup_frac <= 1.0 and 0.0 <= self.hold_frac <= 1.0):
            raise ConfigurationError("schedule fractions must lie in [0, 1]")
        if self.warmup_frac + self.hold_frac > 1.0:
            raise ConfigurationError("warmup_frac + hold_frac must be <= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}")
        if not (math.isfinite(self.base_lr) and self.base_lr >= 0):
            raise ConfigurationError(f"base_lr must be finite and >= 0, got {self.base_lr}")


def _param_shapes(feature_dim: int, vocab_size: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes, in initialization order."""
    C = vocab_size + 1
    if hidden_dim == 0:
        return {"W": (feature_dim, C), "b": (C,)}
    return {"W1": (feature_dim, hidden_dim), "b1": (hidden_dim,), "W2": (hidden_dim, C), "b2": (C,)}


def init_model(feature_dim: int, vocab_size: int, hidden_dim: int = 0, seed: int = 0) -> AcousticModel:
    """Deterministic initialization; weights scale with 1/sqrt(fan-in)."""
    if feature_dim < 1 or vocab_size < 1 or hidden_dim < 0:
        raise ConfigurationError("feature_dim, vocab_size >= 1 and hidden_dim >= 0 required")
    rng = np.random.default_rng(seed)
    params = {
        k: rng.standard_normal(shape) / math.sqrt(shape[0]) if len(shape) == 2 else np.zeros(shape)
        for k, shape in _param_shapes(feature_dim, vocab_size, hidden_dim).items()
    }
    return AcousticModel(
        feature_dim=feature_dim,
        vocab_size=vocab_size,
        hidden_dim=hidden_dim,
        seed=seed,
        params=params,
    )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))


def _forward_cache(model: AcousticModel, frames: np.ndarray):
    if model.hidden_dim == 0:
        logits = frames @ model.params["W"] + model.params["b"]
        hidden = None
    else:
        hidden = np.tanh(frames @ model.params["W1"] + model.params["b1"])
        logits = hidden @ model.params["W2"] + model.params["b2"]
    return _log_softmax(logits), hidden


def forward_frames(model: AcousticModel, frames: np.ndarray) -> np.ndarray:
    """(T, D) frames -> (T, C) log-probabilities."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != model.feature_dim:
        raise ShapeError(
            f"expected (T, {model.feature_dim}) frames, got {frames.shape}"
        )
    logp, _ = _forward_cache(model, frames)
    return logp


def check_feature_dim(model: AcousticModel, features: FeatureSequence) -> None:
    """Raise :class:`ShapeError` naming the utterance if its frames do not fit the model."""
    if features.feature_dim != model.feature_dim:
        raise ShapeError(
            f"utterance {features.utterance_id}: feature_dim {features.feature_dim} "
            f"!= model feature_dim {model.feature_dim}"
        )


def forward(model: AcousticModel, features: FeatureSequence) -> FrameLogProbs:
    check_feature_dim(model, features)
    return FrameLogProbs(features.utterance_id, forward_frames(model, features.frames))


def _backprop(model: AcousticModel, frames: np.ndarray, hidden, dlogits: np.ndarray):
    grads = {}
    if model.hidden_dim == 0:
        grads["W"] = frames.T @ dlogits
        grads["b"] = dlogits.sum(axis=0)
    else:
        grads["W2"] = hidden.T @ dlogits
        grads["b2"] = dlogits.sum(axis=0)
        dpre = (dlogits @ model.params["W2"].T) * (1.0 - hidden**2)
        grads["W1"] = frames.T @ dpre
        grads["b1"] = dpre.sum(axis=0)
    return grads


def utterance_loss_and_grads(model: AcousticModel, features: FeatureSequence, labels: LabelSequence):
    """-log P and its gradient with respect to every model parameter."""
    logp, hidden = _forward_cache(model, features.frames)
    res = ctc_log_prob(logp, labels, with_grad=True)
    return -res.log_prob, _backprop(model, features.frames, hidden, res.grad)


def _first_nonfinite(ids, losses, dlogits) -> str:
    """The first utterance with a non-finite loss or CTC gradient; else all of them."""
    for uid, loss, g in zip(ids, losses, dlogits):
        if not (np.isfinite(loss) and np.isfinite(g).all()):
            return uid
    return ", ".join(ids)


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Tri-state schedule over training progress step / (total_steps - 1).

    Linear 0 -> base_lr over the warmup fraction, flat through the hold
    fraction, then linear back to exactly 0 at the final step.
    """
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} out of range [0, {total_steps})")
    if total_steps == 1:
        return 0.0  # single step is both the first and the last
    p = step / (total_steps - 1)
    warm = cfg.warmup_frac
    hold_end = cfg.warmup_frac + cfg.hold_frac
    if p < warm:
        return cfg.base_lr * (p / warm)
    if p <= hold_end:
        return cfg.base_lr
    return cfg.base_lr * (1.0 - p) / (1.0 - hold_end)


@dataclass
class TrainResult:
    model: AcousticModel
    loss_curve: list[float] = field(default_factory=list)


def train(model: AcousticModel, data, cfg: TrainConfig, weights=None) -> TrainResult:
    """Run `cfg.epochs` of minibatch CTC training; returns an updated copy.

    The shuffle order, and therefore the final weights, are a pure function
    of (model, data order, cfg). Batch gradients are the mean of per-utterance
    gradients, optionally weighted (used to down/up-weight pseudo-labels).
    Each minibatch is one step over its stacked frames: one forward pass,
    one batched CTC call (exact per utterance) and one backprop, with each
    frame's logit gradient scaled by its utterance's weight. The weights
    therefore match a per-utterance loop to rounding, not bit for bit.
    The loss curve records the per-epoch mean of unweighted utterance losses.

    The labels are fixed for all epochs: one :func:`~iplfilter.ctc.label_plan`
    per call holds them, checked against the vocabulary and the frames before
    any step, and each minibatch passes ``plan[idx]`` to ``ctc_log_prob``.
    The parameters (``out.params`` are views), the gradient, which becomes
    the update, and Adam's two moments are the rows of one flat buffer, so a
    step is one set of elementwise operations for all parameters.

    A token outside the vocabulary, an infeasible label, or a non-finite loss
    or batch gradient raises :class:`TrainingError` naming the utterance; a
    non-finite Adam second moment or update raises it naming the parameter.
    A non-finite value is also named with its epoch and step (counted from
    0), and is raised before any weight of that step is written.
    """
    pairs = list(data)
    plan = label_plan(lab for _, lab in pairs)
    num_frames = np.array([fs.num_frames for fs, _ in pairs], dtype=np.int64)
    bad_token = plan.max_token > model.vocab_size
    bad = bad_token | (num_frames < plan.min_frames)
    for i, (fs, _) in enumerate(pairs):
        check_feature_dim(model, fs)
        if bad[i]:
            raise TrainingError(f"utterance {fs.utterance_id}: " + (
                f"label token outside the vocabulary 1..{model.vocab_size}" if bad_token[i] else
                f"label of length {plan.n_states[i] // 2} infeasible for {fs.num_frames} frame(s)"))
    if weights is None:
        w = np.ones(len(pairs))
    else:
        w = np.asarray(list(weights), dtype=np.float64)
        if w.shape != (len(pairs),):
            raise ConfigurationError("weights must match the number of utterances")

    out = model.copy()
    n = len(pairs)
    if n == 0 or cfg.epochs == 0:
        return TrainResult(model=out, loss_curve=[])

    rng = np.random.default_rng(cfg.seed)
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * batches_per_epoch
    # rows: the parameters, the batch gradient (then the update), Adam's m and v
    shapes = {k: p.shape for k, p in out.params.items()}
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    flat = np.zeros((4, ends[-1]))
    flat[0] = np.concatenate([p.ravel() for p in out.params.values()])
    out.params, upd, _, adam_v = (
        {k: part.reshape(shapes[k]) for k, part in zip(shapes, np.split(row, ends[:-1]))} for row in flat
    )
    param, g, m, v = flat
    step = 0
    curve = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        for b in range(batches_per_epoch):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            lengths = num_frames[idx]
            x = np.concatenate([pairs[i][0].frames for i in idx])
            logp, hidden = _forward_cache(out, x)
            res = ctc_log_prob(logp, plan[idx], with_grad=True, lengths=lengths)
            losses = -res.log_prob
            batch_grads = _backprop(out, x, hidden, res.grad * np.repeat(w[idx], lengths)[:, None])
            np.concatenate([batch_grads[k].ravel() for k in upd], out=g)
            if not (np.isfinite(losses).all() and np.isfinite(g).all()):
                dlogits = np.split(res.grad, np.cumsum(lengths)[:-1])
                uid = _first_nonfinite([pairs[i][0].utterance_id for i in idx], losses, dlogits)
                raise TrainingError(
                    f"utterance {uid}: non-finite loss or gradient in epoch {epoch}, step {step}"
                )
            epoch_losses.extend(losses.tolist())
            lr = lr_at(step, total_steps, cfg)
            g /= idx.size  # g becomes the update, applied once it is finite
            if cfg.optimizer == "sgd":
                g *= lr
            else:
                m[...] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
                v[...] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g**2
                m_hat = m / (1 - ADAM_BETA1 ** (step + 1))
                v_hat = v / (1 - ADAM_BETA2 ** (step + 1))
                g[...] = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if not (np.isfinite(v).all() and np.isfinite(g).all()):
                    k = next(k for k in batch_grads if not np.isfinite([adam_v[k], upd[k]]).all())
                    raise TrainingError(f"parameter {k}: non-finite Adam state in epoch {epoch}, step {step}")
            param -= g
            step += 1
        curve.append(float(np.mean(epoch_losses)))
    return TrainResult(model=out, loss_curve=curve)


def save_checkpoint(model: AcousticModel, path) -> None:
    rec = {
        "schema": CHECKPOINT_SCHEMA,
        "version": VERSION,
        "feature_dim": model.feature_dim,
        "vocab_size": model.vocab_size,
        "hidden_dim": model.hidden_dim,
        "seed": model.seed,
        "params": {k: v.tolist() for k, v in sorted(model.params.items())},
    }
    write_json(path, rec)


def load_checkpoint(path) -> AcousticModel:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Anything else raises :class:`ConfigurationError`: invalid JSON, another
    schema or version, a missing or non-integer dimension, or parameters that
    are not finite or whose names or shapes do not follow from the dimensions.
    """
    rec = read_json(path, ConfigurationError, CHECKPOINT_SCHEMA)
    dims = {k: rec.get(k) for k in ("feature_dim", "vocab_size", "hidden_dim", "seed")}
    if not all(type(v) is int for v in dims.values()) or not isinstance(rec.get("params"), dict):
        raise ConfigurationError(
            f"{path}: checkpoint needs integer feature_dim, vocab_size, hidden_dim and seed, and params"
        )
    if dims["feature_dim"] < 1 or dims["vocab_size"] < 1 or dims["hidden_dim"] < 0:
        raise ConfigurationError(f"{path}: feature_dim, vocab_size >= 1 and hidden_dim >= 0 required")
    shapes = _param_shapes(dims["feature_dim"], dims["vocab_size"], dims["hidden_dim"])
    if sorted(rec["params"]) != sorted(shapes):
        raise ConfigurationError(
            f"{path}: parameters {sorted(rec['params'])}, expected {sorted(shapes)} "
            f"for hidden_dim {dims['hidden_dim']}"
        )
    params = {}
    for k, shape in shapes.items():
        try:
            params[k] = np.asarray(rec["params"][k], dtype=np.float64)
        except (TypeError, ValueError) as e:  # ragged or non-numeric lists
            raise ConfigurationError(f"{path}: parameter {k}: {e}") from e
        if params[k].shape != shape:
            raise ConfigurationError(
                f"{path}: parameter {k} has shape {params[k].shape}, expected {shape} from "
                f"feature_dim {dims['feature_dim']}, vocab_size {dims['vocab_size']}, "
                f"hidden_dim {dims['hidden_dim']}"
            )
        if not np.isfinite(params[k]).all():
            raise ConfigurationError(f"{path}: parameter {k} has non-finite entries")
    return AcousticModel(params=params, **dims)
