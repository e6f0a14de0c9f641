"""Write facts read back from a traced run, for tests of either engine."""


def write_profile(outcome, n: int) -> tuple:
    """(per-cell write counts over cells 0..n+1, step of the last write or 0).

    A write is a trace record whose read and write letters differ: a write
    that sticks.  Map jumps record -2 for both, so they never count.
    """
    counts = [0] * (n + 2)
    last = 0
    for rec in outcome.trace:
        if rec[3] != rec[4]:
            counts[rec[1]] += 1
            last = rec[0]
    return counts, last

