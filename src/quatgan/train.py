"""Training harness: experiment configuration, the alternating GAN loop with
critic iterations, deterministic checkpoint/resume, sample emission, and the
built-in Frechet-distance evaluation.

Training runs in float32 (checkpoints store f32 payloads bitwise); fixed seed
plus config reproduce losses, checkpoints and emitted bytes exactly on one
platform. Gradient checks and algebra tests live elsewhere and use float64.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import data as D
from . import losses as LS
from . import metrics as M
from . import models as MD
from .errors import CheckpointError, ConfigError, NumericError
from .optim import AdamState, adam_step
from .qtensor import QTensor, live_array

__all__ = ["TrainConfig", "train", "save_checkpoint", "load_checkpoint",
           "emit_samples", "make_noise", "generate_images"]

LOSS_FAMILIES = {"qce": "qdcgan", "hinge": "qsngan"}

# Config fields a resume may change: none of them touches the state that a
# checkpoint holds before it is written. Every other field must match.
RESUME_FREE_FIELDS = frozenset({"iterations", "out_dir", "checkpoint_every", "sample_count"})

INT_FIELDS = ("batch_size", "iterations", "critic_iters", "seed", "checkpoint_every",
              "eval_every", "eval_samples", "sample_count")
FLOAT_FIELDS = ("lr", "beta1", "beta2")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class TrainConfig:
    model: str
    batch_size: int = 32
    iterations: int = 200
    critic_iters: int = 1
    lr: float = 2e-4
    beta1: float = 0.0
    beta2: float = 0.9
    seed: int = 0
    sn_mode: str = "full"
    loss: str = "hinge"
    checkpoint_every: int = 0
    eval_every: int = 0
    dataset: str | None = None
    synth: dict | None = None
    out_dir: str = "runs/out"
    eval_samples: int = 128
    sample_count: int = 16
    init_criterion: str = "glorot"

    def __post_init__(self):
        for name in INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in FLOAT_FIELDS:
            if not _is_finite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(f"out_dir must be a non-empty path string, got {self.out_dir!r}")
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise ConfigError(f"dataset must be a path string, got {self.dataset!r}")
        if self.critic_iters < 1:
            raise ConfigError(f"critic_iters must be >= 1, got {self.critic_iters}")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (QBN needs batch variance)")
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.sample_count < 1:
            raise ConfigError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.eval_samples < 2:
            raise ConfigError(f"eval_samples must be >= 2, got {self.eval_samples}")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ConfigError("checkpoint_every and eval_every must be nonnegative")
        if self.loss not in LOSS_FAMILIES:
            raise ConfigError(f"unknown loss {self.loss!r}; choose from {sorted(LOSS_FAMILIES)}")
        if self.sn_mode not in ("none", "split", "full"):
            raise ConfigError(f"unknown sn_mode {self.sn_mode!r}")
        if (self.dataset is None) == (self.synth is None):
            raise ConfigError("exactly one of dataset path or synth spec is required")
        if self.synth is not None:
            _check_synth(self.synth)
        spec = MD.preset_spec(self.model)
        if LOSS_FAMILIES[self.loss] != spec.family:
            raise ConfigError(
                f"loss {self.loss!r} pairs with {LOSS_FAMILIES[self.loss]} models, "
                f"but {self.model!r} is a {spec.family} preset"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:  # a missing field, or a value of the wrong type
            raise ConfigError(f"invalid config: {exc}") from exc


def _check_synth(synth):
    """A synth spec is an object of integer ``n`` and ``size`` and an optional
    nonnegative integer ``seed``; ``data.synth_dataset`` checks the ranges
    of ``n`` and ``size``."""
    if not isinstance(synth, dict):
        raise ConfigError(f"synth must be an object, got {type(synth).__name__}")
    if not {"n", "size"} <= synth.keys() <= {"n", "size", "seed"}:
        raise ConfigError(f"synth needs keys n and size and allows seed, got {sorted(synth)}")
    for key, value in synth.items():
        if not _is_int(value):
            raise ConfigError(f"synth {key} must be an integer, got {value!r}")
    if synth.get("seed", 0) < 0:
        raise ConfigError(f"synth seed must be nonnegative, got {synth['seed']}")


def make_noise(spec: MD.ModelSpec, n: int, rng: np.random.Generator) -> QTensor | np.ndarray:
    """Float32 standard normal noise: a plain real (n, noise_dim) array for
    qsngan, a full quaternion tensor for qdcgan."""
    if spec.family == "qsngan":
        return rng.standard_normal((n, spec.noise_dim)).astype(np.float32)
    return QTensor(rng.standard_normal((4, n, spec.noise_dim // 4)).astype(np.float32))


def _load_images(config: TrainConfig) -> np.ndarray:
    if config.synth is not None:
        images = D.synth_dataset(
            n=config.synth["n"], size=config.synth["size"], seed=config.synth.get("seed", 0)
        )
    else:
        images = D.load_dataset(config.dataset)
    return images


def check_image_size(images: np.ndarray, spec: MD.ModelSpec, model: str) -> None:
    """Raise :class:`ConfigError` unless (N, 3, H, W) ``images`` have the
    size that ``spec``, the spec of preset ``model``, generates."""
    size = spec.image_size
    if images.shape[2:] != (size, size):
        raise ConfigError(
            f"dataset images are {images.shape[2]}x{images.shape[3]} but model "
            f"{model!r} generates {size}x{size}"
        )


def _param_norms(model: MD.Model) -> dict[str, float]:
    return {k: float(np.linalg.norm(live_array(p.value))) for k, p in model.parameters().items()}


def _check_finite(label: str, value: float, iteration: int, g, d):
    if math.isfinite(value):
        return
    diag = {
        "iteration": iteration,
        "loss": label,
        "value": value,
        "g_param_norms": _param_norms(g),
        "d_param_norms": _param_norms(d),
    }
    raise NumericError(f"{label} became non-finite at iteration {iteration}", diagnostic=diag)


# QBN normalizes each batch by its own statistics, so the batch size is part
# of what a sample is: the same noise in another batching is another image.
_SAMPLE_BATCH = 64


def generate_images(g: MD.Model, spec: MD.ModelSpec, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Sample n images as (n, 3, H, W) floats from float32 noise, in batches
    of at most 64. Sampling never mutates the model."""
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    out = []
    remaining = n
    while remaining > 0:
        take = min(_SAMPLE_BATCH, remaining)
        z = make_noise(spec, take, rng)
        imgs = g.forward_array(z)
        out.append(D.decapsulate_batch(imgs))
        remaining -= take
    return np.concatenate(out, axis=0)


def emit_samples(g: MD.Model, spec: MD.ModelSpec, n: int, out_dir,
                 rng: np.random.Generator) -> list[str]:
    """Write n PPM samples into ``out_dir`` and their n-up grid image beside
    it, as ``<out_dir>_grid.ppm``, so the directory holds only same-sized
    images and loads as a dataset; returns the paths, the grid's last."""
    images = generate_images(g, spec, n, rng)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        p = os.path.join(out_dir, f"sample_{i:03d}.ppm")
        D.write_ppm(p, img)
        paths.append(p)
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    h, w = images.shape[2], images.shape[3]
    grid = -np.ones((3, rows * h, cols * w))
    for i, img in enumerate(images):
        r, c = divmod(i, cols)
        grid[:, r * h : (r + 1) * h, c * w : (c + 1) * w] = img
    gp = os.path.abspath(out_dir) + "_grid.ppm"
    D.write_ppm(gp, grid)
    paths.append(gp)
    return paths


# -- checkpointing -------------------------------------------------------------------


RNG_STREAMS = ("noise", "data", "aux")


def _run_arrays(g: MD.Model, d: MD.Model, g_adam: AdamState,
                d_adam: AdamState) -> dict[str, np.ndarray]:
    """Every array of a run's state under its checkpoint name.

    These are the live arrays, each at the shape it is stored in: parameters
    (a quaternion parameter's (4, ...) data, a real parameter's own array),
    module states (``Model.states``) and, for a net whose Adam step is above
    0, both moments of each of its parameters. ``save_checkpoint`` writes
    these arrays and ``load_checkpoint`` copies the file's tensors into them.
    """
    out = {}
    for net, model, adam in (("g", g, g_adam), ("d", d, d_adam)):
        for k, p in model.parameters().items():
            out[f"param.{net}.{k}"] = live_array(p.value)
            if adam.step > 0:
                out[f"adam.{net}.m.{k}"], out[f"adam.{net}.v.{k}"] = adam.m[k], adam.v[k]
        out.update((f"state.{net}.{k}", arr) for k, arr in model.states().items())
    return out


def save_checkpoint(path, config: TrainConfig, g: MD.Model, d: MD.Model,
                    g_adam: AdamState, d_adam: AdamState,
                    rngs: dict[str, np.random.Generator], iteration: int):
    """Write the run state to ``path`` (see :func:`_run_arrays`)."""
    tensors = _run_arrays(g, d, g_adam, d_adam)
    for net, adam in (("g", g_adam), ("d", d_adam)):
        tensors[f"adam.{net}.step"] = ckpt.pack_count(adam.step)
    for stream, gen in rngs.items():
        tensors[f"rng.{stream}"] = ckpt.pack_rng_state(gen)
    tensors["meta.iteration"] = ckpt.pack_count(iteration)
    tensors["meta.config"] = ckpt.pack_text(config.to_json())
    ckpt.save_tensors(path, tensors)


def _count(tensors, name) -> int:
    """A checkpoint counter, stored as 16-bit limbs (``ckpt.pack_count``)."""
    arr = tensors.get(name)
    if arr is None:
        raise CheckpointError(f"checkpoint lacks tensor {name!r}")
    return ckpt.unpack_count(arr, name)


def load_checkpoint(path):
    """Rebuild (config, g, d, g_adam, d_adam, rngs, iteration) from a file.

    Builds a fresh run from the saved config and copies each tensor into the
    array :func:`_run_arrays` names for it. A malformed file raises
    :class:`CheckpointError`: an undecodable config or counter, a missing or
    unknown tensor, or a tensor whose shape does not match its array. The
    file must hold exactly the arrays of ``_run_arrays`` (so Adam moments
    only for a net whose step is above 0), both Adam steps, every RNG stream
    and ``meta.config``/``meta.iteration``.
    """
    tensors = ckpt.load_tensors(path)
    if "meta.config" not in tensors:
        raise CheckpointError("checkpoint lacks tensor 'meta.config'")
    try:
        config = TrainConfig.from_json(ckpt.unpack_text(tensors["meta.config"]))
        spec = MD.preset_spec(config.model)
    except ConfigError as exc:
        raise CheckpointError(f"meta.config does not hold a valid config: {exc}") from exc
    iteration = _count(tensors, "meta.iteration")
    spec.sn = config.sn_mode
    g, d = MD.build_gan(spec, dtype=np.float32)
    adams = []
    for net, model in (("g", g), ("d", d)):
        adam = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                         step=_count(tensors, f"adam.{net}.step"))
        if adam.step > 0:
            for k, p in model.parameters().items():
                arr = live_array(p.value)
                adam.m[k], adam.v[k] = np.empty_like(arr), np.empty_like(arr)
        adams.append(adam)
    arrays = _run_arrays(g, d, *adams)
    expected = arrays.keys() | {"meta.config", "meta.iteration", "adam.g.step", "adam.d.step"}
    expected |= {f"rng.{s}" for s in RNG_STREAMS}
    problems = []
    missing, unknown = sorted(expected - tensors.keys()), sorted(tensors.keys() - expected)
    if missing:
        problems.append(f"checkpoint lacks tensors: {', '.join(missing)}")
    if unknown:
        problems.append(f"unknown tensors: {', '.join(unknown)}")
    if problems:
        raise CheckpointError("; ".join(problems))
    for name, arr in arrays.items():
        if tensors[name].shape != arr.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {tensors[name].shape}, expected {arr.shape}")
        arr[...] = tensors[name]
    rngs = {s: ckpt.unpack_rng_state(tensors[f"rng.{s}"]) for s in RNG_STREAMS}
    return config, g, d, adams[0], adams[1], rngs, iteration


# -- the loop ------------------------------------------------------------------------


def _d_loss_node(config, tape, d, d_leaves, real_node, fake_node):
    d_real = d.forward(tape, real_node, d_leaves)
    d_fake = d.forward(tape, fake_node, d_leaves)
    if config.loss == "hinge":
        return LS.hinge_discriminator_op(d_real, d_fake)
    b = d_real.value.shape[0]
    ones = QTensor(np.ones((4, b, 1), dtype=np.float32))
    zeros = QTensor.zeros((b, 1), dtype=np.float32)
    return ad.add(LS.qce_op(ones, d_real), LS.qce_op(zeros, d_fake))


def _g_loss_node(config, d_fake):
    if config.loss == "hinge":
        return LS.hinge_generator_op(d_fake)
    b = d_fake.value.shape[0]
    ones = QTensor(np.ones((4, b, 1), dtype=np.float32))
    return LS.qce_op(ones, d_fake)


def train(config: TrainConfig, resume_from: str | None = None) -> dict:
    """Run the alternating optimization and return the run report.

    The report carries loss curves, spectral-norm traces, Frechet-distance
    evaluations, and checkpoint/sample paths. Raises :class:`NumericError`
    with a diagnostic dump if any loss goes non-finite.

    The curves cover the iterations this call runs, ``start_iteration`` (0,
    or the checkpoint's iteration on resume) to ``config.iterations``.
    ``fd_init`` is the distance at iteration 0, so it is ``None`` on a
    resume; ``fd_best`` and ``fd_final`` are taken over the evaluations of
    this call.

    ``resume_from`` continues from a checkpoint to ``config.iterations``, and
    the result equals the uninterrupted run bitwise (losses and every
    checkpoint tensor except ``meta.config``). Only the fields in
    ``RESUME_FREE_FIELDS`` (``iterations``, ``out_dir``, ``checkpoint_every``,
    ``sample_count``) may differ from the checkpoint's config; any other
    difference, or ``iterations`` below the checkpoint's iteration, raises
    :class:`ConfigError`. ``eval_every`` and ``eval_samples`` must match too:
    each eval point draws ``eval_samples`` images from the saved ``aux`` stream
    and, under spectral norm, advances the discriminator's power-iteration
    vectors, so the eval cadence is part of the trajectory.

    The final checkpoint is written before the closing evaluation that runs
    when ``config.iterations`` is not an eval point, so it holds the state an
    uninterrupted longer run passes through.
    """
    images = _load_images(config)
    spec = MD.preset_spec(config.model)
    spec.sn = config.sn_mode
    check_image_size(images, spec, config.model)
    images = images.astype(np.float32)
    n_images = images.shape[0]

    if resume_from is not None:
        saved_config, g, d, g_adam, d_adam, rngs, start_iter = load_checkpoint(resume_from)
        saved, requested = json.loads(saved_config.to_json()), json.loads(config.to_json())
        differing = [k for k in saved if k not in RESUME_FREE_FIELDS and saved[k] != requested[k]]
        if differing:
            raise ConfigError(f"checkpoint config differs in: {', '.join(differing)}")
        if config.iterations < start_iter:
            raise ConfigError(
                f"iterations={config.iterations} is below the checkpoint's "
                f"iteration {start_iter}"
            )
    else:
        ss = np.random.SeedSequence(config.seed)
        init_ss, noise_ss, data_ss, aux_ss = ss.spawn(4)
        init_rng = np.random.default_rng(init_ss)
        g, d = MD.build_gan(spec, dtype=np.float32)
        g.init_params(init_rng, config.init_criterion)
        d.init_params(init_rng, config.init_criterion)
        g_adam = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
        d_adam = AdamState(lr=config.lr, beta1=config.beta1, beta2=config.beta2)
        rngs = {
            "noise": np.random.default_rng(noise_ss),
            "data": np.random.default_rng(data_ss),
            "aux": np.random.default_rng(aux_ss),
        }
        start_iter = 0
        if config.sn_mode != "none":
            MD.sn_warmup(d, iters=20)

    extractor = M.PixelFeatures()
    real_feats = extractor(images[: config.eval_samples])
    mu_r, cov_r = M.fit_gaussian(real_feats)

    report = {
        "config": json.loads(config.to_json()),
        "d_losses": [],
        "g_losses": [],
        "fd_trace": [],
        "sigma_trace": [],
        "checkpoints": [],
        "samples": [],
        "start_iteration": start_iter,
    }

    def evaluate(iteration):
        if config.sn_mode != "none":
            MD.apply_spectral_norm(d)
        sigmas = MD.measure_sigmas(d)
        fakes = generate_images(g, spec, config.eval_samples, rngs["aux"])
        mu_g, cov_g = M.fit_gaussian(extractor(fakes))
        fd = M.frechet_distance(mu_g, cov_g, mu_r, cov_r)
        report["fd_trace"].append([iteration, fd])
        report["sigma_trace"].append([iteration, sigmas])
        return fd

    os.makedirs(config.out_dir, exist_ok=True)
    if resume_from is None:
        evaluate(0)

    g_params = g.param_tensors()
    d_params = d.param_tensors()

    for iteration in range(start_iter + 1, config.iterations + 1):
        d_losses = []
        for _ in range(config.critic_iters):
            idx = rngs["data"].integers(0, n_images, size=config.batch_size)
            real = D.encapsulate_batch(images[idx])
            z = make_noise(spec, config.batch_size, rngs["noise"])
            fake = g.forward_array(z)
            if config.sn_mode != "none":
                MD.apply_spectral_norm(d)
            tape = ad.Tape()
            d_leaves = d.bind(tape)
            loss_node = _d_loss_node(config, tape, d, d_leaves,
                                     tape.constant(real), tape.constant(fake))
            loss_val = float(loss_node.value.q0.reshape(-1)[0])
            _check_finite("d_loss", loss_val, iteration, g, d)
            grads = tape.backward(loss_node)
            adam_step(d_params, grads, d_adam)
            d_losses.append(loss_val)

        z = make_noise(spec, config.batch_size, rngs["noise"])
        if config.sn_mode != "none":
            MD.apply_spectral_norm(d)
        tape = ad.Tape()
        g_leaves = g.bind(tape)
        d_leaves = d.bind(tape)
        fake_node = g.forward(tape, tape.constant(z), g_leaves)
        d_fake = d.forward(tape, fake_node, d_leaves)
        g_loss_node = _g_loss_node(config, d_fake)
        g_loss = float(g_loss_node.value.q0.reshape(-1)[0])
        _check_finite("g_loss", g_loss, iteration, g, d)
        grads = tape.backward(g_loss_node)
        adam_step(g_params, {k: grads[k] for k in g_params}, g_adam)

        report["d_losses"].append(d_losses if config.critic_iters > 1 else d_losses[0])
        report["g_losses"].append(g_loss)

        if config.eval_every and iteration % config.eval_every == 0:
            evaluate(iteration)
        if config.checkpoint_every and iteration % config.checkpoint_every == 0:
            path = os.path.join(config.out_dir, f"checkpoint_{iteration:06d}.qgn")
            save_checkpoint(path, config, g, d, g_adam, d_adam, rngs, iteration)
            report["checkpoints"].append(path)

    final_path = os.path.join(config.out_dir, "checkpoint_final.qgn")
    save_checkpoint(final_path, config, g, d, g_adam, d_adam, rngs, config.iterations)
    report["checkpoints"].append(final_path)
    if not report["fd_trace"] or report["fd_trace"][-1][0] != config.iterations:
        evaluate(config.iterations)
    report["samples"] = emit_samples(
        g, spec, config.sample_count, os.path.join(config.out_dir, "samples"), rngs["aux"]
    )
    fds = report["fd_trace"]
    report["fd_init"] = fds[0][1] if fds and fds[0][0] == 0 else None
    report["fd_best"] = min(fd for _, fd in fds) if fds else None
    report["fd_final"] = fds[-1][1] if fds else None
    with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return report
