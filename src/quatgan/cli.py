"""Command-line surface.

Subcommands: train, sample, eval, count-params, grad-check.
eval prints the Frechet distance between the 8x8 average-pooled pixels of a
checkpoint's samples and of a dataset, a stand-in for FID (see quatgan.metrics).
train prints the run's distances and its largest discriminator sigma, so a
config's sn_mode runs a spectral-norm ablation.
Exit codes: 0 success, 1 config error, 2 numeric failure, 3 I/O error.
The QGAN_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import checks
from . import metrics as M
from . import models as MD
from . import train as T
from .errors import CheckpointError, ConfigError, NumericError, QuatError


def _load_config(path) -> T.TrainConfig:
    with open(path) as fh:
        config = T.TrainConfig.from_json(fh.read())
    env_seed = os.environ.get("QGAN_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"QGAN_SEED must be an integer, got {env_seed!r}") from None
        config = dataclasses.replace(config, seed=seed)  # revalidates
    return config


def _fd(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_train(args) -> int:
    config = _load_config(args.config)
    if args.out:
        config.out_dir = args.out
    report = T.train(config, resume_from=args.resume)
    print(f"finished {config.iterations} iterations")
    print(f"fd init {_fd(report['fd_init'])} best {_fd(report['fd_best'])} "
          f"final {_fd(report['fd_final'])}")
    worst = max(max(sigmas.values()) for _, sigmas in report["sigma_trace"])
    print(f"max sigma over discriminator layers and eval points: {worst:.4f}")
    print(f"report: {os.path.join(config.out_dir, 'report.json')}")
    return 0


def _sample_rng(seed) -> np.random.Generator:
    """The generator of ``sample`` and ``eval``, which draw noise from ``--seed``."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def cmd_sample(args) -> int:
    rng = _sample_rng(args.seed)
    config, g, d, *_ , rngs, iteration = T.load_checkpoint(args.checkpoint)
    spec = MD.preset_spec(config.model)
    paths = T.emit_samples(g, spec, args.n, args.out, rng)
    print(f"wrote {len(paths) - 1} samples under {args.out} and their grid to {paths[-1]} "
          f"(checkpoint iteration {iteration})")
    return 0


def cmd_eval(args) -> int:
    from . import data as D

    rng = _sample_rng(args.seed)
    config, g, d, *_rest = T.load_checkpoint(args.checkpoint)
    spec = MD.preset_spec(config.model)
    images = D.load_dataset(args.data)
    T.check_image_size(images, spec, config.model)
    features = M.PixelFeatures()
    n = args.n or images.shape[0]
    fakes = T.generate_images(g, spec, n, rng)
    mu_g, cov_g = M.fit_gaussian(features(fakes))
    mu_r, cov_r = M.fit_gaussian(features(images))
    fd = M.frechet_distance(mu_g, cov_g, mu_r, cov_r)
    print(f"frechet distance (pixels features, {n} samples): {fd:.6f}")
    print("note: features are 8x8 average-pooled pixels, a stand-in for Inception-v3; "
          "values are comparable only with other quatgan distances")
    return 0


def cmd_count_params(args) -> int:
    spec = MD.preset_spec(args.spec)
    g, d = MD.build_gan(spec)
    gq, dq = MD.count_parameters(g), MD.count_parameters(d)
    gr, dr = MD.count_twin_parameters(spec)
    print(f"model {args.spec}")
    print(f"  quaternion G: {gq:>12,}   real twin G: {gr:>12,}")
    print(f"  quaternion D: {dq:>12,}   real twin D: {dr:>12,}")
    print(f"  total       : {gq + dq:>12,}   twin total : {gr + dr:>12,}")
    print(f"  ratio quaternion/real: {(gq + dq) / (gr + dr):.4f}")
    return 0


def cmd_grad_check(args) -> int:
    results = checks.run_grad_checks(module=args.module)
    failed = 0
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {name}: max rel err {report.max_error:.3e} (tol {report.tolerance:g})")
        failed += 0 if report.passed else 1
    if failed:
        print(f"{failed}/{len(results)} gradient checks failed")
        return 2
    print(f"all {len(results)} gradient checks passed")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="quatgan", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--resume", default=None)
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="emit samples from a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--n", type=int, default=16)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=cmd_sample)

    e = sub.add_parser("eval", help="frechet distance of a checkpoint's samples to a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--n", type=int, default=0)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("count-params", help="parameter accounting for a model spec")
    c.add_argument("--spec", required=True)
    c.set_defaults(fn=cmd_count_params)

    gch = sub.add_parser("grad-check", help="finite-difference gradient checks")
    gch.add_argument("--module", default=None,
                     help=f"restrict to one suite ({', '.join(checks.SUITES)})")
    gch.set_defaults(fn=cmd_grad_check)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        print(json.dumps(exc.diagnostic, indent=2, default=float), file=sys.stderr)
        return 2
    except (OSError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except QuatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
