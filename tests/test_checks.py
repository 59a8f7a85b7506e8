import pytest

from quatgan import checks

CASES = [(f"{suite}/{name}", fn) for suite, entries in checks.SUITES.items()
         for name, fn in entries]


def test_every_suite_entry_is_collected():
    assert len(CASES) == 26


@pytest.mark.parametrize("fn", [fn for _, fn in CASES], ids=[name for name, _ in CASES])
def test_grad_check(fn):
    report = checks._try_seeds(fn)
    assert report.passed, str(report)


def test_layer_checks_rerun_bitwise():
    first = checks.run_grad_checks("layers")
    again = checks.run_grad_checks("layers")
    assert [(n, r.per_param) for n, r in first] == [(n, r.per_param) for n, r in again]
