"""Package errors survive pickling, as they do coming back from a worker."""

import pickle

import pytest

from rsmfg.errors import (
    AssumptionViolated,
    DimensionMismatch,
    FiniteEscape,
    NonFiniteState,
    NotConverged,
    OutOfRange,
    ParseError,
    RsmfgError,
)

EXAMPLES = [
    RsmfgError("base"),
    NonFiniteState(0.5),
    NonFiniteState(0.5, "state left the bound"),
    FiniteEscape(0.25),
    FiniteEscape(0.25, "escape"),
    OutOfRange("t=2 outside [0, 1]"),
    AssumptionViolated("R positive definite"),
    DimensionMismatch("A has shape (2,), expected (1, 1)"),
    NotConverged(3, 1e-3),
    ParseError("missing field 'model'"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_examples_cover_every_error_class():
    assert {type(e) for e in EXAMPLES} \
        == {RsmfgError, *_subclasses(RsmfgError)}


@pytest.mark.parametrize("error", EXAMPLES, ids=repr)
def test_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)
    for name in ("t", "iterations", "last_error", "name"):
        assert getattr(back, name, None) == getattr(error, name, None)
    # a note, such as the traceback a forked child adds, comes back too
    back.add_note("raised in a forked child")
    again = pickle.loads(pickle.dumps(back))
    assert again.__notes__ == ["raised in a forked child"]
