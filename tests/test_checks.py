import pytest

from quatgan import autodiff as ad
from quatgan import checks, cli
from quatgan import train as T

CASES = [(f"{suite}/{name}", fn) for suite, entries in checks.SUITES.items()
         for name, fn in entries]


def test_every_suite_entry_is_collected():
    assert len(CASES) == 29


@pytest.mark.parametrize("fn", [fn for _, fn in CASES], ids=[name for name, _ in CASES])
def test_grad_check(fn):
    report = checks._try_seeds(fn)
    assert report.passed, str(report)


def test_layer_checks_rerun_bitwise():
    first = checks.run_grad_checks("layers")
    again = checks.run_grad_checks("layers")
    assert [(n, r.per_param) for n, r in first] == [(n, r.per_param) for n, r in again]


def test_cli_grad_check_prints_one_line_per_entry(capsys):
    assert cli.main(["grad-check", "--module", "layers"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [name for name, _ in checks.SUITES["layers"]]
    assert [line.split(":")[0] for line in lines[:-1]] == [f"[PASS] layers/{n}" for n in names]
    assert lines[-1] == f"all {len(names)} gradient checks passed"


def test_cli_grad_check_unknown_suite_exits_1(capsys):
    assert cli.main(["grad-check", "--module", "nope"]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_grad_check_failure_exits_2(capsys, monkeypatch):
    def wrong(rng):
        report = ad.GradCheckReport(tolerance=checks.TOL, step=checks.STEP)
        report.per_param["x"] = 1.0
        return report

    entries = [*checks.SUITES["losses"], ("wrong", wrong)]
    monkeypatch.setitem(checks.SUITES, "losses", entries)
    assert cli.main(["grad-check", "--module", "losses"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("[FAIL] losses/wrong:")
    assert out[-1] == f"1/{len(entries)} gradient checks failed"


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
    """Op kinds that the per-op suites differentiate; the whole-model checks
    are left out, so an op reached only through a model has no direct check."""
    return _differentiated_ops(
        lambda: [checks.run_grad_checks(suite) for suite in ("layers", "norm", "losses")])


@pytest.mark.parametrize("model, loss, sn_mode", [
    ("qsngan_toy8", "hinge", "full"),
    ("qdcgan_toy8", "qce", "none"),
])
def test_training_step_ops_are_grad_checked(tmp_path, checked_ops, model, loss, sn_mode):
    """Every op kind that one training step differentiates is differentiated
    by a layers, norm or losses check too."""
    config = T.TrainConfig(model=model, loss=loss, sn_mode=sn_mode, batch_size=4,
                           iterations=1, eval_samples=8, sample_count=4,
                           synth={"n": 8, "size": 8, "seed": 3},
                           out_dir=str(tmp_path / "run"))
    trained = _differentiated_ops(lambda: T.train(config))
    assert "qconv2d" in trained  # the spy saw the step
    assert trained - checked_ops == set()
