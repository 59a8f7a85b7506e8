import pytest

from quatgan import autodiff as ad
from quatgan import checks
from quatgan import train as T

CASES = [(f"{suite}/{name}", fn) for suite, entries in checks.SUITES.items()
         for name, fn in entries]


def test_every_suite_entry_is_collected():
    assert len(CASES) == 25


@pytest.mark.parametrize("fn", [fn for _, fn in CASES], ids=[name for name, _ in CASES])
def test_grad_check(fn):
    report = checks._try_seeds(fn)
    assert report.passed, str(report)


def test_layer_checks_rerun_bitwise():
    first = checks.run_grad_checks("layers")
    again = checks.run_grad_checks("layers")
    assert [(n, r.per_param) for n, r in first] == [(n, r.per_param) for n, r in again]


def _differentiated_ops(run) -> set[str]:
    """Kinds of the ops with a backward that ``run()`` records on tapes that
    need gradients."""
    ops = set()
    record = ad.Tape.record

    def spy(tape, op, inputs, forward, backward=None):
        if tape.needs_grad and backward is not None:
            ops.add(op)
        return record(tape, op, inputs, forward, backward)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad.Tape, "record", spy)
        run()
    return ops


@pytest.fixture(scope="module")
def checked_ops():
    return _differentiated_ops(checks.run_grad_checks)


@pytest.mark.parametrize("model, loss, sn_mode", [
    ("qsngan_toy8", "hinge", "full"),
    ("qsngan_toy8", "wgan_gp", "full"),
    ("qdcgan_toy8", "qce", "none"),
])
def test_training_step_ops_are_grad_checked(tmp_path, checked_ops, model, loss, sn_mode):
    """Every op kind that one training step differentiates is differentiated
    by some grad check too."""
    config = T.TrainConfig(model=model, loss=loss, sn_mode=sn_mode, batch_size=4,
                           iterations=1, eval_samples=8, sample_count=4,
                           synth={"n": 8, "size": 8, "seed": 3},
                           out_dir=str(tmp_path / "run"))
    trained = _differentiated_ops(lambda: T.train(config))
    assert "qconv2d" in trained  # the spy saw the step
    assert trained - checked_ops == set()
