"""The benchmark's workloads and the checks on their outputs.

Each workload is a pass over one generated corpus, driven only through
iplfilter's public functions (``ipl-*``) or ``iplfilter.cli.main``
(``cli-pipeline``). Outputs are checked outside the timed passes, and every
operation and check is counted in a :class:`Ledger`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from iplfilter import cli, corpus, ctc, metrics, model, pipeline

SCORE_THRESHOLD = -0.08
MAX_WER = 0.10
N_CTC_SAMPLES = 3  # brute-force CTC costs ~0.2 s at T = 5 and ~2 s at T = 6
N_EDIT_SAMPLES = 64

CORPUS = {
    "ipl-study": corpus.CorpusGenConfig(),
    "ipl-long": corpus.CorpusGenConfig(label_len=(8, 16)),
    "cli-pipeline": corpus.CorpusGenConfig(n_unlabeled=2000),
}
IPL_TRAIN = model.TrainConfig(epochs=30, base_lr=0.15)
CLI_EPOCHS = 1
WORKLOADS = tuple(CORPUS)


@dataclass
class Ledger:
    """Operations attempted and a reason for each one that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def run(self, what: str, fn, *args, **kwargs):
        """Call ``fn``; an exception is a failed operation and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - every failure is counted, none stops the run
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            return None

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    """What one pass produced, summarized outside the timed region."""

    train_evals: int  # utterance-gradient evaluations: sum of epochs x training-set size
    final_dev_wers: list[float]
    fingerprint: str  # deterministic outputs; equal across passes of one seed


def setup(workload: str, seed: int, out_dir: Path, tracer=None) -> corpus.CorpusSplits:
    """Generate the workload's corpus and round-trip it through a manifest."""
    splits = corpus.generate_corpus(CORPUS[workload], seed=seed)
    if tracer is None:
        corpus.save_manifest(splits, out_dir)
        return corpus.load_manifest(out_dir)
    with tracer.span("corpus.manifest.save"):
        corpus.save_manifest(splits, out_dir)
    with tracer.span("corpus.manifest.load"):
        splits = corpus.load_manifest(out_dir)
    tracer.count("corpus.manifest.bytes", 2 * sum(p.stat().st_size for p in out_dir.iterdir()))
    return splits


# ---------------------------------------------------------------------------
# ipl-study / ipl-long: teacher, then an unfiltered IPL run, in process
# ---------------------------------------------------------------------------


def _ipl_config(seed: int) -> pipeline.IplConfig:
    # The "none" filter trains on every unlabeled utterance, so a pass does the
    # same training work on every seed. With the score or WER filter the
    # number of kept utterances, and with it the training work of a
    # default-corpus pass, ranged from 29k to 53k utterance-gradient
    # evaluations over seeds 1-20; no bound on a pass time could hold across
    # seeds. The filters run in cli-pipeline.
    return pipeline.IplConfig(iter_max=3, filter_mode="none", train=IPL_TRAIN, seed=seed)


def ipl_pass(splits, seed: int, ledger: Ledger):
    teacher = ledger.run("train_teacher", pipeline.train_teacher, splits, _ipl_config(seed))
    if teacher is None:
        return None
    run = ledger.run("run_ipl", pipeline.run_ipl, splits, _ipl_config(seed), teacher=teacher.model)
    if run is None:
        return None
    return teacher, run


def ipl_outcome(splits, result, ledger: Ledger) -> Outcome:
    teacher, run = result
    n_lab = len(splits.labeled)
    ledger.check("teacher loss/WER finite", _finite(
        [*teacher.report.loss_curve, teacher.report.dev_wer, teacher.report.test_wer]))
    evals = IPL_TRAIN.epochs * n_lab
    recs = [pipeline.report_record(r) for r in run.reports]
    for rec in recs:
        _check_report(rec, ledger)
        evals += IPL_TRAIN.epochs * (n_lab + rec["kept"])
    records = [teacher.report.dev_wer, teacher.report.test_wer, teacher.report.loss_curve, recs]
    return Outcome(
        train_evals=evals,
        final_dev_wers=[run.reports[-1].dev_wer],
        fingerprint=json.dumps(records, sort_keys=True),
    )


def ipl_checks(splits, result, ledger: Ledger) -> None:
    final = result[1].model
    logps = [(model.forward(final, fs).logp, lab) for fs, lab in splits.dev]
    ctc_check(logps, ledger)
    pairs = [(lab, ctc.greedy_decode(lp)[0]) for lp, lab in logps[:N_EDIT_SAMPLES]]
    edit_check(pairs, ledger)


# ---------------------------------------------------------------------------
# cli-pipeline: the README walk-through, one command at a time
# ---------------------------------------------------------------------------


def cli_commands(seed: int, d: Path) -> list[tuple[str, list[str]]]:
    c, pls = d / "corpus", d / "pl" / "pseudolabels.jsonl"
    common = ["--seed", str(seed)]
    epochs = ["--epochs", str(CLI_EPOCHS)]
    cmds = [
        ("gen-corpus", ["gen-corpus", "--out-dir", c,
                        "--n-unlabeled", CORPUS["cli-pipeline"].n_unlabeled]),
        ("train-teacher", ["train-teacher", "--corpus", c, "--out-dir", d / "teacher", *epochs]),
        ("pseudolabel", ["pseudolabel", "--corpus", c, "--model", d / "teacher" / "teacher_model.json",
                         "--out-dir", d / "pl", "--annotate-oracle"]),
        ("filter-score", ["filter", "--pseudo-labels", pls, "--score-threshold", SCORE_THRESHOLD,
                          "--out-dir", d / "kept"]),
        ("filter-wer", ["filter", "--pseudo-labels", pls, "--max-wer", MAX_WER, "--corpus", c,
                        "--out-dir", d / "kept-oracle"]),
        ("ipl", ["ipl", "--corpus", c, "--out-dir", d / "ipl", "--filter-mode", "score",
                 "--score-threshold", SCORE_THRESHOLD, "--iter-max", 3, *epochs]),
        ("sweep", ["sweep", "--corpus", c, "--out-dir", d / "sweep", "--max-updates", 2, *epochs]),
        ("estimate-threshold", ["estimate-threshold", "--corpus", c, "--out-dir", d / "estimate",
                                "--max-wer", MAX_WER, "--probe", "dev", *epochs]),
        ("report", ["report", "--run-dir", d / "sweep", "--out-dir", d / "report"]),
    ]
    return [(name, [str(a) for a in argv] + common) for name, argv in cmds]


CLI_COMMANDS = [name for name, _ in cli_commands(0, Path("."))]


def cli_pass(seed: int, d: Path, ledger: Ledger, tracer=None):
    for name, argv in cli_commands(seed, d):
        span = tracer.span(f"cli.{name}") if tracer is not None else contextlib.nullcontext()
        with span:
            code = ledger.run(name, cli.main, argv)
        if code != 0:
            if code is not None:
                ledger.failures.append(f"{name}: exit code {code}")
            return None
    return d


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def cli_outcome(d: Path, ledger: Ledger) -> Outcome:
    n_lab = len((d / "corpus" / "labeled.jsonl").read_text(encoding="utf-8").splitlines())
    evals = 0
    wers = []
    for run in ("teacher", "ipl", "sweep", "estimate"):
        snap = json.loads((d / run / "config.json").read_text(encoding="utf-8"))
        epochs = snap["config"]["epochs"]
        teacher = _read_jsonl(d / run / "teacher_report.jsonl")[0]
        ledger.check(f"{run}: teacher loss/WER finite",
                     _finite([*teacher["loss_curve"], teacher["dev_wer"], teacher["test_wer"]]))
        evals += epochs * n_lab
        if run in ("ipl", "sweep"):
            recs = _read_jsonl(d / run / "reports.jsonl")
            for rec in recs:
                _check_report(rec, ledger)
                evals += epochs * (n_lab + rec["kept"])
            wers.append(recs[-1]["dev_wer"])
    fingerprint = "".join(
        (d / run / "reports.jsonl").read_text(encoding="utf-8") for run in ("ipl", "sweep"))
    return Outcome(train_evals=evals, final_dev_wers=wers, fingerprint=fingerprint)


def cli_checks(d: Path, ledger: Ledger) -> None:
    """The README's rerun guarantee, plus the sampled oracle checks."""
    splits = corpus.load_manifest(d / "corpus")
    rerun = d / "ipl-rerun"
    code = ledger.run("ipl rerun", cli.main,
                      ["ipl", "--config", str(d / "ipl" / "config.json"), "--out-dir", str(rerun)])
    if code == 0:
        ledger.check("ipl rerun byte-identical", _same_files(d / "ipl", rerun, skip={"timings.txt"}))
    final = model.load_checkpoint(d / "ipl" / "iter-03.model.json")
    ctc_check([(model.forward(final, fs).logp, lab) for fs, lab in splits.dev], ledger)
    pls = _read_jsonl(d / "pl" / "pseudolabels.jsonl")[:N_EDIT_SAMPLES]
    refs = splits.unlabeled_refs
    pairs = [(refs[p["utterance_id"]], p["tokens"]) for p in pls]
    edit_check(pairs, ledger)
    for p, (ref, hyp) in zip(pls, pairs):
        ledger.check(f"{p['utterance_id']}: oracle_wer matches recursive Levenshtein",
                     p["oracle_wer"] == levenshtein(ref, hyp) / len(ref))


def _same_files(a: Path, b: Path, skip: set[str]) -> bool:
    names = {p.name for p in a.iterdir()} - skip
    if names != {p.name for p in b.iterdir()} - skip:
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


# ---------------------------------------------------------------------------
# Output checks shared by all workloads
# ---------------------------------------------------------------------------


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_report(rec: dict, ledger: Ledger) -> None:
    it = rec["iteration"]
    ledger.check(f"iteration {it}: generated == kept + rejected",
                 rec["generated"] == rec["kept"] + rec["rejected"])
    ledger.check(f"iteration {it}: dev/test WER finite", _finite([rec["dev_wer"], rec["test_wer"]]))


def ctc_check(logps, ledger: Ledger) -> None:
    """ctc_log_prob against literal path enumeration on the shortest inputs.

    Utterances longer than 5 frames (all of them on ipl-long) are cut to
    their first 5 frames and first 2 tokens, which still fit.
    """
    for lp, lab in sorted(logps, key=lambda x: x[0].shape[0])[:N_CTC_SAMPLES]:
        tokens = list(lab)
        if lp.shape[0] > 5:
            lp, tokens = lp[:5], tokens[:2]
        fast = ctc.ctc_log_prob(lp, tokens).log_prob
        slow = ctc.brute_force_ctc(lp, tokens)
        ledger.check(f"ctc_log_prob vs brute force (T={lp.shape[0]})", abs(fast - slow) <= 1e-6)


def levenshtein(a, b) -> int:
    """Plain recursive edit distance, the reference for ``edit_counts``."""
    a, b = tuple(a), tuple(b)

    @functools.lru_cache(maxsize=None)
    def d(i, j):
        if i == 0 or j == 0:
            return i + j
        return min(d(i - 1, j) + 1, d(i, j - 1) + 1, d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return d(len(a), len(b))


def edit_check(pairs, ledger: Ledger) -> None:
    for ref, hyp in pairs:
        c = metrics.edit_counts(ref, hyp)
        ledger.check(
            "edit_counts vs recursive Levenshtein",
            c.errors == levenshtein(ref, hyp)
            and c.reference_length == len(list(ref))
            and c.substitutions + c.insertions + c.hits == len(list(hyp)),
        )
