"""A wrong answer is counted as a failed operation, never as a sample."""

from types import SimpleNamespace

import checks
import inproc


def rng(low, high):
    return SimpleNamespace(low=low, high=high)


class CorruptOnce:
    """A stand-in engine whose third answer is corrupted."""

    def __init__(self):
        self.calls = 0

    def answer(self, query, mapping, aggregate):
        self.calls += 1
        return rng(1, 3) if self.calls != 3 else rng(1, 4)


def test_corrupted_answer_is_failed():
    stream = [inproc.Request("SELECT COUNT(*) FROM T", "by-tuple", "range")]
    loop = inproc.Loop(stream, start=0)
    inproc.run_loop(CorruptOnce(), loop, 0.05, {0: ("range", 1, 3)})
    failed = [s for _, s in loop.samples if s < 0]
    assert len(loop.samples) > 3
    assert len(failed) == 1


def test_bytable_reference_checks():
    bytable = ("range", 2, 3)
    assert checks.check_against_bytable(("by-tuple", "range"), ("range", 1, 3), bytable)
    assert not checks.check_against_bytable(("by-tuple", "range"), ("range", 2.5, 3), bytable)
    assert checks.check_against_bytable(("by-table", "range"), ("range", 2, 3 + 1e-12), bytable)
    assert not checks.check_against_bytable(("by-table", "range"), ("range", 2, 3.01), bytable)
    ev = ("expected-value", 10.0)
    assert checks.check_against_bytable(("by-tuple", "expected-value"), ("expected-value", 10.0), ev)
    assert not checks.check_against_bytable(("by-tuple", "expected-value"), ("expected-value", 10.5), ev)


def test_distributions_compare_by_cdf():
    a = [(1.0, 0.5), (2.0, 0.5)]
    split = [(1.0, 0.25), (1.0 + 1e-13, 0.25), (2.0, 0.5)]
    assert checks.distributions_close(a, split)
    assert not checks.distributions_close(a, [(1.0, 0.4), (2.0, 0.6)])


def test_grouped_expected_values_allow_empty_groups():
    bytable = ("grouped", ((31, ("expected-value", 2.0)),))
    bytuple = ("grouped", ((31, ("expected-value", 2.0)), (32, ("expected-value", 0.0))))
    assert checks.expected_equal(bytuple, bytable)
    wrong = ("grouped", ((31, ("expected-value", 2.0)), (32, ("expected-value", 1.0))))
    assert not checks.expected_equal(wrong, bytable)
