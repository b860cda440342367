"""What a status call answers and what it charges the step tally: the
observations the tests compare between a folded value and its stepped
reference."""

from synthtop.sierpinski import TALLY


def charged(sv, fuel):
    """One fresh status call: its answer and its ``TALLY`` charge."""
    t0 = TALLY.n
    got = sv.status(fuel)
    return got, TALLY.n - t0


def observe(sv, fuels):
    """A fresh status call per fuel: the answer, or the exception's type
    and message, with the ``TALLY`` delta."""
    out = []
    for f in fuels:
        t0 = TALLY.n
        try:
            got = ("ok", sv.status(f))
        except Exception as exc:
            got = ("raised", type(exc).__name__, str(exc))
        out.append((got, TALLY.n - t0))
    return out
