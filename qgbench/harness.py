"""Closed-loop benchmark of quatgan training, evaluation and checkpointing.

One caller drives the public quatgan API; each operation waits for the one
before it. A run repeats *rounds* until its time budget is spent. A round is
a fresh set-up from the run's seed followed by a fixed sequence of
operations, so every round of a run must reproduce the first one bit for
bit; that is the determinism gate, and a digest of each round is also kept
across runs of the same code and seed. Rounds after the first stop early at
the deadline and are then compared with the first round's prefix.

* Training workloads: a round is ``train()`` with eval and checkpoint cadence
  off: set-up, the initial eval point, ``per_round`` steps, the final eval
  point and the final checkpoint, which is round-tripped
  ``final_round_trips`` times.
* The eval/checkpoint workload: set-up runs one seeding training step, then
  each of ``per_round`` operations is one eval point followed by one
  checkpoint round trip.

Every training step, eval point and round trip is one attempted operation;
a non-finite loss or distance, a raised ``QuatError``, a round trip that does
not reload bitwise, or a digest or exact count that does not repeat counts
as a failed one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quatgan import autodiff as ad
from quatgan import checkpoint as ckpt
from quatgan import data as D
from quatgan import losses as LS
from quatgan import metrics as M
from quatgan import models as MD
from quatgan import train as T
from quatgan.errors import QuatError
from quatgan.optim import AdamState, adam_step
from quatgan.qtensor import QTensor

from hostspeed import REFERENCE_S, HostSpeed
from spans import FLOP_OPS, NAMED_OPS, NullTracer, Tracer, instrument

PHASES = ("data", "fake", "sn", "d_fwd", "d_bwd", "g_fwd", "g_bwd", "adam")
EVAL_PARTS = ("sn", "sigmas", "generate", "features", "fit", "frechet")
# Spans whose self time is a layer's; any other span's self time is glue,
# reported as unattributed.
LAYER_PREFIXES = ("phase.", "op.", "eval.", "checkpoint.")
# The layer spans must account for a step or operation: glue above this share
# of it means work the trace does not attribute, and fails the traced run.
MAX_UNATTRIBUTED_PCT = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    loss: str
    sn_mode: str
    per_round: int
    eval_ckpt: bool = False
    batch: int = 32
    n_images: int = 256
    eval_samples: int = 128
    final_round_trips: int = 20

    @property
    def unit(self) -> str:
        """The span that is one primary operation of this workload."""
        return "operation" if self.eval_ckpt else "step"


WORKLOADS = {
    # North-star reference; conv-backward bound, about 60% of it the G step.
    "sngan16_hinge": Workload("sngan16_hinge", "qsngan_toy16", "hinge", "full", per_round=5),
    # Transposed and strided 4x4 convs, QBN and qdense; no SN or residual
    # blocks; short steps expose per-op Python and tape overhead.
    "dcgan16_qce": Workload("dcgan16_qce", "qdcgan_toy16", "qce", "none", per_round=30),
    # Forward-only conv at batch 64 plus checkpoint writes and reads;
    # backward and Adam run only in the seeding step.
    "sngan16_eval_ckpt": Workload("sngan16_eval_ckpt", "qsngan_toy16", "hinge", "full",
                                  per_round=6, eval_ckpt=True),
}


# -- inputs --------------------------------------------------------------------


def make_images(seed: int, n: int, size: int) -> np.ndarray:
    """(n, 3, size, size) images in [-1, 1] from the benchmark's own generator:
    an oriented sinusoid plus one Gaussian blob, scaled per channel so the RGB
    channels stay correlated, plus a little noise. Uses stream 4 of the seed;
    ``train()`` spawns streams 0-3 for init, noise, data and aux."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[4])
    yy, xx = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size), indexing="ij")
    angle = rng.uniform(0, 2 * np.pi, (n, 1, 1))
    freq = rng.uniform(0.5, 2.0, (n, 1, 1))
    lum = np.sin(np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy))
    cy, cx = rng.uniform(-0.6, 0.6, (2, n, 1, 1))
    width = rng.uniform(0.15, 0.4, (n, 1, 1))
    lum = lum + rng.choice([-1.0, 1.0], (n, 1, 1)) * np.exp(
        -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
    lum /= np.abs(lum).max(axis=(1, 2), keepdims=True)
    weights = rng.uniform(0.35, 1.0, (n, 3, 1, 1))
    noise = 0.04 * rng.standard_normal((n, 3, size, size))
    return np.clip(weights * lum[:, None] + noise, -1.0, 1.0)


# -- one train()-like session --------------------------------------------------


@dataclass
class Session:
    config: T.TrainConfig
    spec: MD.ModelSpec
    images: np.ndarray
    g: MD.Model
    d: MD.Model
    g_adam: AdamState
    d_adam: AdamState
    rngs: dict
    extractor: M.PixelFeatures
    mu_r: np.ndarray
    cov_r: np.ndarray
    iteration: int = 0
    trace: list = field(default_factory=list)  # losses (f32) and distances, in order

    @property
    def sn(self) -> bool:
        return self.config.sn_mode != "none"

    def checkpoint_args(self):
        return (self.config, self.g, self.d, self.g_adam, self.d_adam, self.rngs, self.iteration)


def set_up(wl: Workload, seed: int, images: np.ndarray | None = None) -> Session:
    """Validate the config, make the data, build and initialise both nets,
    warm up spectral norm and fit the real features, as ``train()`` does."""
    config = T.TrainConfig(
        model=wl.model, batch_size=wl.batch,
        iterations=1 if wl.eval_ckpt else wl.per_round, seed=seed, sn_mode=wl.sn_mode,
        loss=wl.loss, dataset=f"qgbench-synthetic-n{wl.n_images}",
        out_dir="qgbench", eval_samples=wl.eval_samples,
    )
    spec = MD.preset_spec(config.model)
    spec.sn = config.sn_mode
    if images is None:
        images = make_images(seed, wl.n_images, spec.image_size)
    images = images.astype(np.float32)
    init_ss, noise_ss, data_ss, aux_ss = np.random.SeedSequence(config.seed).spawn(4)
    init_rng = np.random.default_rng(init_ss)
    g, d = MD.build_gan(spec, dtype=np.float32)
    g.init_params(init_rng, config.init_criterion)
    d.init_params(init_rng, config.init_criterion)
    adams = [AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2) for _ in range(2)]
    rngs = {"noise": np.random.default_rng(noise_ss), "data": np.random.default_rng(data_ss),
            "aux": np.random.default_rng(aux_ss)}
    if config.sn_mode != "none":
        MD.sn_warmup(d, iters=20)
    extractor = M.PixelFeatures()
    mu_r, cov_r = M.fit_gaussian(extractor(images[: max(config.eval_samples, 2)]))
    return Session(config, spec, images, g, d, adams[0], adams[1], rngs, extractor, mu_r, cov_r)


def _d_loss(s: Session, tape, leaves, real, fake):
    d_real = s.d.forward(tape, real, training=True, leaves=leaves)
    d_fake = s.d.forward(tape, fake, training=True, leaves=leaves)
    if s.config.loss == "hinge":
        return LS.hinge_discriminator_op(d_real, d_fake)
    b = d_real.value.shape[0]
    ones = QTensor(np.ones((4, b, 1), dtype=np.float32))
    zeros = QTensor.zeros((b, 1), dtype=np.float32)
    return ad.add(LS.qce_op(ones, d_real), LS.qce_op(zeros, d_fake))


def _g_loss(s: Session, d_fake):
    if s.config.loss == "hinge":
        return LS.hinge_generator_op(d_fake)
    ones = QTensor(np.ones((4, d_fake.value.shape[0], 1), dtype=np.float32))
    return LS.qce_op(ones, d_fake)


def train_step(s: Session, tr) -> list[float]:
    """One iteration of the ``train()`` loop with one critic step; returns its
    losses (D then G)."""
    cfg, spec, g, d, rngs = s.config, s.spec, s.g, s.d, s.rngs
    losses = []
    with tr.span("phase.data"):
        idx = rngs["data"].integers(0, s.images.shape[0], size=cfg.batch_size)
        real = D.encapsulate_batch(s.images[idx])
        z = T.make_noise(spec, cfg.batch_size, rngs["noise"])
    with tr.span("phase.fake"):
        fake = g.forward_array(z, training=True, update_stats=True)
    if s.sn:
        with tr.span("phase.sn"):
            MD.apply_spectral_norm(d)
    with tr.span("phase.d_fwd"):
        tape = ad.Tape()
        loss = _d_loss(s, tape, d.bind(tape), tape.constant(real), tape.constant(fake))
        losses.append(float(loss.value.q0.reshape(-1)[0]))
    with tr.span("phase.d_bwd"):
        grads = tape.backward(loss)
    with tr.span("phase.adam"):
        adam_step(d.param_tensors(), grads, s.d_adam)
    with tr.span("phase.data"):
        z = T.make_noise(spec, cfg.batch_size, rngs["noise"])
    if s.sn:
        with tr.span("phase.sn"):
            MD.apply_spectral_norm(d)
    with tr.span("phase.g_fwd"):
        tape = ad.Tape()
        g_leaves, d_leaves = g.bind(tape), d.bind(tape)
        fake_node = g.forward(tape, tape.constant(z), training=True, leaves=g_leaves)
        loss = _g_loss(s, d.forward(tape, fake_node, training=True, leaves=d_leaves))
        losses.append(float(loss.value.q0.reshape(-1)[0]))
    with tr.span("phase.g_bwd"):
        grads = tape.backward(loss)
    with tr.span("phase.adam"):
        g_params = g.param_tensors()
        adam_step(g_params, {k: grads[k] for k in g_params}, s.g_adam)
    s.iteration += 1
    s.trace += losses
    return losses


def evaluate(s: Session, tr) -> float:
    """One eval point as ``train()`` runs it; returns the Frechet distance."""
    with tr.span("eval.sn"):
        if s.sn:
            MD.apply_spectral_norm(s.d)
    with tr.span("eval.sigmas"):
        MD.measure_sigmas(s.d)
    with tr.span("eval.generate"):
        fakes = T.generate_images(s.g, s.spec, s.config.eval_samples, s.rngs["aux"])
    with tr.span("eval.features"):
        feats = s.extractor(fakes)
    with tr.span("eval.fit"):
        mu_g, cov_g = M.fit_gaussian(feats)
    with tr.span("eval.frechet"):
        fd = M.frechet_distance(mu_g, cov_g, s.mu_r, s.cov_r)
    s.trace.append(fd)
    return fd


# -- checks ---------------------------------------------------------------------


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def state_mismatches(live, loaded) -> list[str]:
    """Names of every piece of run state that did not reload bitwise.

    ``live`` and ``loaded`` are ``(config, g, d, g_adam, d_adam, rngs,
    iteration)`` tuples as ``load_checkpoint`` returns them.
    """
    (cfg_a, g_a, d_a, ga_a, da_a, rng_a, it_a) = live
    (cfg_b, g_b, d_b, ga_b, da_b, rng_b, it_b) = loaded
    bad = []
    if cfg_a.to_json() != cfg_b.to_json():
        bad.append("config")
    if it_a != it_b:
        bad.append("iteration")
    for net, a, b in (("g", g_a, g_b), ("d", d_a, d_b)):
        pa, pb = a.param_tensors(), b.param_tensors()
        if pa.keys() != pb.keys():
            bad.append(f"param.{net} names")
        bad += [f"param.{net}.{k}" for k in pa.keys() & pb.keys() if not _same(pa[k].data, pb[k].data)]
        sa, sb = a.states(), b.states()
        if sa.keys() != sb.keys():
            bad.append(f"state.{net} names")
        bad += [f"state.{net}.{k}" for k in sa.keys() & sb.keys() if not _same(sa[k], sb[k])]
    for opt, a, b in (("g", ga_a, ga_b), ("d", da_a, da_b)):
        if a.step != b.step:
            bad.append(f"adam.{opt}.step")
        for moment in ("m", "v"):
            ma, mb = getattr(a, moment), getattr(b, moment)
            if ma.keys() != mb.keys():
                bad.append(f"adam.{opt}.{moment} names")
            bad += [f"adam.{opt}.{moment}.{k}" for k in ma.keys() & mb.keys()
                    if not _same(ma[k], mb[k])]
    if rng_a.keys() != rng_b.keys():
        bad.append("rng names")
    bad += [f"rng.{k}" for k in rng_a.keys() & rng_b.keys()
            if rng_a[k].bit_generator.state != rng_b[k].bit_generator.state]
    return sorted(bad)


def checkpoint_counts(path: Path, s: Session) -> dict:
    """Exact counts of a checkpoint file: bytes, tensors, and bytes of the
    all-zero q1..q3 planes of real-kind parameters and their Adam moments."""
    tensors = ckpt.load_tensors(path)
    zero = 0
    for net in ("g", "d"):
        model = s.g if net == "g" else s.d
        for name, p in model.parameters().items():
            if p.kind != "real":
                continue
            for key in (f"param.{net}.{name}", f"adam.{net}.m.{name}", f"adam.{net}.v.{name}"):
                planes = tensors.get(key)
                if planes is not None and not planes[1:].any():
                    zero += planes[1:].nbytes
    return {"ckpt_bytes": path.stat().st_size, "tensors": len(tensors), "zero_bytes": zero}


def round_digest(s: Session) -> str:
    """SHA-256 of the f32 loss trace, the distances and the final parameter bytes."""
    h = hashlib.sha256(np.asarray(s.trace, dtype=np.float64).tobytes())
    for net in (s.g, s.d):
        for name, p in sorted(net.param_tensors().items()):
            h.update(name.encode())
            h.update(p.data.tobytes())
    return h.hexdigest()


class RunState:
    """Samples, attempts and failures of one run."""

    def __init__(self, host: HostSpeed):
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: tuple[list, str] | None = None  # first full round: trace, digest
        self.counts: dict | None = None
        self.rounds = {"complete": 0, "truncated": 0, "aborted": 0}
        self.host = host

    def fail(self, what: str, n: int = 1):
        self.failed += n
        self.problems.append(what)


class RoundAborted(Exception):
    pass


class Round:
    """One round's operations; each is timed, counted and checked."""

    def __init__(self, wl: Workload, run: RunState, tr, traced: bool, tmp: Path):
        self.wl, self.run, self.tr, self.tmp = wl, run, tr, tmp
        self.samples = run.samples[traced]
        self.ops = 0
        self.last_checkpoint: Path | None = None

    def _op(self, kind: str, fn):
        self.run.attempted += 1
        self.ops += 1
        t0 = time.perf_counter()
        try:
            with self.tr.span(kind):
                out = fn()
        except QuatError as exc:
            self.run.fail(f"{kind}: {type(exc).__name__}: {exc}")
            raise RoundAborted from exc
        self.samples[kind].append(time.perf_counter() - t0)
        return out

    def set_up(self, seed: int) -> Session:
        t0 = time.perf_counter()
        try:
            with self.tr.span("setup"):
                s = set_up(self.wl, seed)
                if self.wl.eval_ckpt:
                    self.step(s)
        except QuatError as exc:
            self.run.fail(f"setup: {type(exc).__name__}: {exc}")
            raise RoundAborted from exc
        self.samples["setup"].append(time.perf_counter() - t0)
        return s

    def step(self, s: Session):
        losses = self._op("step", lambda: train_step(s, self.tr))
        if not all(math.isfinite(v) for v in losses):
            self.run.fail(f"step {s.iteration}: non-finite loss {losses}")
            raise RoundAborted

    def evaluate(self, s: Session):
        fd = self._op("eval", lambda: evaluate(s, self.tr))
        if not math.isfinite(fd):
            self.run.fail(f"eval at {s.iteration}: non-finite distance {fd}")
            raise RoundAborted

    def round_trip(self, s: Session):
        """save -> load -> save; returns what was loaded."""
        a, b = self.tmp / "a.qgn", self.tmp / "b.qgn"

        def trip():
            self._timed("save", "checkpoint.save", lambda: T.save_checkpoint(a, *s.checkpoint_args()))
            loaded = self._timed("load", "checkpoint.load", lambda: T.load_checkpoint(a))
            self._timed("save", "checkpoint.save", lambda: T.save_checkpoint(b, *loaded))
            return loaded

        self.last_checkpoint = a
        return self._op("round_trip", trip)

    def verify(self, s: Session, loaded):
        """The reload must match the live state bitwise and re-save to the same bytes."""
        bad = state_mismatches(s.checkpoint_args(), loaded)
        if self.last_checkpoint.read_bytes() != (self.tmp / "b.qgn").read_bytes():
            bad.append("save->load->save bytes")
        if bad:
            self.run.fail(f"round trip at {s.iteration}: not bitwise: {bad[:8]}")

    def operation(self, s: Session):
        """One operation of the eval/checkpoint workload; checked after timing."""
        t0 = time.perf_counter()
        with self.tr.span("operation"):
            self.evaluate(s)
            loaded = self.round_trip(s)
        self.samples["operation"].append(time.perf_counter() - t0)
        self.verify(s, loaded)

    def check_counts(self, s: Session):
        """Exact checkpoint counts must repeat on every round."""
        if self.last_checkpoint is None:
            return
        counts = checkpoint_counts(self.last_checkpoint, s)
        if self.run.counts is None:
            self.run.counts = counts
        elif counts != self.run.counts:
            self.run.fail(f"checkpoint counts changed: {counts} vs {self.run.counts}")

    def _timed(self, kind: str, span: str, fn):
        t0 = time.perf_counter()
        with self.tr.span(span):
            out = fn()
        self.samples[kind].append(time.perf_counter() - t0)
        return out


def run_round(wl: Workload, seed: int, run: RunState, tr, traced: bool, tmp: Path,
              deadline: float, may_stop: bool):
    """Run one round; compare it with the first complete round. The host speed
    is sampled only here, between top-level calls, so that no sample falls
    inside a timed interval or span."""
    rnd = Round(wl, run, tr, traced, tmp)
    poll = run.host.poll
    # Start every round from the same collector state, so that where the
    # cyclic GC runs within a round, and with it the heap's peak, does not
    # depend on how many rounds came before.
    gc.collect()
    try:
        poll()
        s = rnd.set_up(seed)
        complete = True
        if not wl.eval_ckpt:
            poll()
            rnd.evaluate(s)
        for i in range(wl.per_round):
            if may_stop and i and time.perf_counter() >= deadline:
                complete = False
                break
            poll()
            if wl.eval_ckpt:
                rnd.operation(s)
            else:
                rnd.step(s)
        if complete and not wl.eval_ckpt:
            # The steps leave tapes in reference cycles; free them here, so
            # that no collection, and no return of their memory to the
            # system, lands inside the final eval point or round trips.
            gc.collect()
            poll()
            rnd.evaluate(s)
            for _ in range(wl.final_round_trips):
                poll()
                rnd.verify(s, rnd.round_trip(s))
        rnd.check_counts(s)
    except RoundAborted:
        run.rounds["aborted"] += 1
        return
    run.rounds["complete" if complete else "truncated"] += 1
    if complete:
        digest = round_digest(s)
        if run.reference is None:
            run.reference = (list(s.trace), digest)
        elif digest != run.reference[1]:
            run.fail(f"round digest {digest[:12]} differs from first round "
                     f"{run.reference[1][:12]}", rnd.ops)
    elif run.reference is not None and s.trace != run.reference[0][: len(s.trace)]:
        run.fail("truncated round's trace differs from the first round's prefix", rnd.ops)


# -- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, never below
    the median: (value, percentile, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(wl: Workload, run: RunState, factors: dict | None = None) -> dict:
    """End-to-end metrics. Checkpoint saves are multiplied by the ``write``
    host-speed factor, every other time by the ``compute`` one; without
    ``factors`` the times are raw."""
    f = factors["compute"] if factors else 1.0
    fw = factors["write"] if factors else 1.0
    s = run.samples[False]
    steps = s["step"]
    tail_s, _, _ = tail(steps)
    rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "setup_s": (f * statistics.median(s["setup"]), "s"),
        "train_img_per_s": (wl.batch * len(steps) / (f * sum(steps)), "img/s"),
        "step_ms_p50": (f * 1e3 * statistics.median(steps), "ms"),
        "step_ms_tail": (f * 1e3 * tail_s, "ms"),
        "eval_ms_p50": (f * 1e3 * statistics.median(s["eval"]), "ms"),
        "ckpt_save_ms_p50": (fw * 1e3 * statistics.median(s["save"]), "ms"),
        "ckpt_load_ms_p50": (f * 1e3 * statistics.median(s["load"]), "ms"),
        "ckpt_mb": (run.counts["ckpt_bytes"] / 1e6, "MB"),
        "peak_rss_mb": (rss_bytes / 1e6, "MB"),
    }


def per_layer(wl: Workload, run: RunState, tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds, and the exact counts they
    imply per step (checked to repeat across steps)."""
    names = tracer.names
    self_t = tracer.self_times()
    dur = tracer.durations()
    everywhere = np.ones(len(names), dtype=bool)
    in_step = tracer.nearest("step") >= 0
    in_unit = tracer.nearest(wl.unit) >= 0
    in_save = tracer.nearest("checkpoint.save") >= 0
    in_load = tracer.nearest("checkpoint.load") >= 0
    n_steps = names.count("step")
    n_units = names.count(wl.unit)
    n_evals = names.count("eval")
    by_name = defaultdict(list)
    for i, n in enumerate(names):
        by_name[n].append(i)

    def total(name, mask, values=self_t):
        return float(sum(values[i] for i in by_name.get(name, ()) if mask[i]))

    def attr_sum(key, idxs):
        return sum(tracer.attrs.get(i, {}).get(key, 0) for i in idxs)

    out = {}
    for p in PHASES:
        out[f"phase.{p}_ms"] = (1e3 * total(f"phase.{p}", in_step) / n_steps, "ms")
    op_names = {n[3:-4] for n in by_name if n.startswith("op.") and n.endswith(".fwd")}
    for op in NAMED_OPS:
        out[f"op.{op}.fwd_ms"] = (1e3 * total(f"op.{op}.fwd", in_unit) / n_units, "ms")
        out[f"op.{op}.bwd_ms"] = (1e3 * total(f"op.{op}.bwd", in_unit) / n_units, "ms")
        out[f"op.{op}.calls"] = (sum(in_unit[i] for i in by_name.get(f"op.{op}.fwd", ())) / n_units,
                                 "count")
    others = op_names - set(NAMED_OPS)
    for way in ("fwd", "bwd"):
        out[f"op.other.{way}_ms"] = (
            1e3 * sum(total(f"op.{op}.{way}", in_unit) for op in others) / n_units, "ms")
    for op in FLOP_OPS:
        idxs = [i for way in ("fwd", "bwd") for i in by_name.get(f"op.{op}.{way}", ()) if in_unit[i]]
        gflop = attr_sum("flop", idxs) / n_units / 1e9
        secs = (out[f"op.{op}.fwd_ms"][0] + out[f"op.{op}.bwd_ms"][0]) / 1e3
        out[f"op.{op}.gflop"] = (gflop, "GFLOP")
        out[f"op.{op}.gflop_per_s"] = (gflop / secs if secs > 0 else 0.0, "GFLOP/s")
    fwd_in_step = [i for i, n in enumerate(names) if in_step[i] and n.startswith("op.")
                   and n.endswith(".fwd")]
    out["tape.nodes"] = (len(fwd_in_step) / n_steps, "count")
    out["tape.value_mb"] = (attr_sum("bytes", fwd_in_step) / n_steps / 1e6, "MB")
    for part in EVAL_PARTS:
        out[f"eval.{part}_ms"] = (1e3 * total(f"eval.{part}", everywhere) / n_evals, "ms")
    saves, loads = by_name["checkpoint.save"], by_name["checkpoint.load"]
    out["checkpoint.collect_ms"] = (1e3 * sum(self_t[i] for i in saves) / len(saves), "ms")
    out["checkpoint.save_tensors_ms"] = (
        1e3 * total("checkpoint.save_tensors", in_save, dur) / len(saves), "ms")
    out["checkpoint.load_tensors_ms"] = (
        1e3 * total("checkpoint.load_tensors", in_load, dur) / len(loads), "ms")
    out["checkpoint.rebuild_ms"] = (1e3 * sum(self_t[i] for i in loads) / len(loads), "ms")
    out["checkpoint.tensors"] = (run.counts["tensors"], "count")
    out["checkpoint.zero_mb"] = (run.counts["zero_bytes"] / 1e6, "MB")

    traced, untraced = run.samples[True][wl.unit], run.samples[False][wl.unit]
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
    glue = sum(self_t[i] for i in range(len(names))
               if in_unit[i] and not names[i].startswith(LAYER_PREFIXES))
    unattributed_pct = 100.0 * glue / sum(dur[i] for i in by_name[wl.unit])
    out["trace.unattributed_ms"] = (1e3 * glue / n_units, "ms")
    out["trace.unattributed_pct"] = (unattributed_pct, "%")
    if not unattributed_pct <= MAX_UNATTRIBUTED_PCT:
        run.fail(f"trace accounting: {unattributed_pct:.3g}% of {wl.unit} time is in no "
                 f"layer span (limit {MAX_UNATTRIBUTED_PCT}%)")

    # exact counts per step, which must repeat on every traced step
    step_of = tracer.nearest("step")
    per_step = defaultdict(lambda: defaultdict(float))
    for i, n in enumerate(names):
        if step_of[i] >= 0 and n.startswith("op."):
            c = per_step[int(step_of[i])]
            c[n] += 1
            c["flop"] += tracer.attrs.get(i, {}).get("flop", 0)
            c["bytes"] += tracer.attrs.get(i, {}).get("bytes", 0)
    distinct = {json.dumps(c, sort_keys=True) for c in per_step.values()}
    if len(distinct) > 1:
        run.fail(f"per-step op counts differ across {len(per_step)} traced steps")
    counts = json.loads(distinct.pop()) if distinct else {}
    return out, counts


# -- the run ------------------------------------------------------------------------


def code_id(root: Path) -> str:
    """SHA-256 over the library and benchmark sources."""
    h = hashlib.sha256()
    for sub in ("src/quatgan", "qgbench"):
        for p in sorted((root / sub).glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def check_records(path: Path, entries: dict) -> list[str]:
    """Compare ``entries`` with what earlier runs recorded under the same keys,
    then record any new keys. Returns the keys whose values differ."""
    records = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k, v in entries.items() if k in records and records[k] != v]
    new = {k: v for k, v in entries.items() if k not in records}
    if new:
        records.update(new)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return differ


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cores": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        code: str) -> tuple[dict, dict]:
    """Run one workload; returns (info, result) where result is the
    benchmark's final JSON object."""
    work_dir.mkdir(parents=True, exist_ok=True)
    tmp = work_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    tracer = Tracer()
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    try:
        with HostSpeed(tmp) as host:
            state = RunState(host)
            # In a traced run rounds alternate traced/untraced, so the tracing
            # overhead is measured in the same process; two rounds always run.
            while r < (2 if trace else 1) or time.perf_counter() < deadline:
                traced = trace and r % 2 == 0
                if traced:
                    with instrument(tracer):
                        run_round(wl, seed, state, tracer, True, tmp, deadline, may_stop=r > 0)
                else:
                    run_round(wl, seed, state, NullTracer(), False, tmp, deadline, may_stop=r > 0)
                r += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    elapsed = time.perf_counter() - start

    env = environment()
    info = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "measured_s": elapsed, "rounds": state.rounds, "environment": env,
            "digest": state.reference[1] if state.reference else None,
            "checkpoint": state.counts}
    if state.reference is None or state.counts is None:
        state.fail("no round completed")
        return info, _result(state, {})

    if trace:
        metrics, step_counts = per_layer(wl, state, tracer)
        spans_path = work_dir / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        info["spans"] = spans_path.name
        info["step_counts"] = step_counts
        info["flop_note"] = ("op.*.gflop is computed from shapes: 32 flop per quaternion "
                             "multiply-accumulate; backward counts twice the forward")
        exact = {"checkpoint": state.counts, "step": step_counts}
    else:
        factors = state.host.factors()
        metrics = end_to_end(wl, state, factors)
        info["host_speed"] = {
            k: {"kernel_ms_p50": 1e3 * REFERENCE_S[k] / f, "factor": f,
                "samples": len(state.host.samples[k])} for k, f in factors.items()}
        info["raw"] = {k: v for k, (v, _) in end_to_end(wl, state).items()}
        steps = state.samples[False]["step"]
        _, pct, beyond = tail(steps)
        info["step_ms_tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(steps)}
        info["samples"] = {k: len(v) for k, v in state.samples[False].items()}
        exact = {"checkpoint": state.counts}

    threads = env["blas_threads"]
    differ = check_records(work_dir / "records.json", {
        f"digest|{code}|{wl.name}|seed={seed}|threads={threads}": state.reference[1],
        # the config text in the checkpoint, and so its size, holds the seed
        f"counts|{code}|{wl.name}|seed={seed}|trace={int(trace)}": exact,
    })
    if differ:
        state.fail(f"differs from an earlier run of the same code: {differ}", state.attempted)
    info["problems"] = state.problems
    return info, _result(state, metrics)


def _result(state: RunState, metrics: dict) -> dict:
    return {
        "correct": state.failed == 0 and not state.problems,
        "attempted": max(state.attempted, 1),
        "failed": min(state.failed, max(state.attempted, 1)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
