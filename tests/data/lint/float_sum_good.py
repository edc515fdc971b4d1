"""Known-good fixture: integer sum()s, and float totals folded left to right."""

from repro.obs.metrics import plain_sum


def good_count(jobs):
    return sum(1 for job in jobs if job.done)


def good_flags(values):
    return sum(value > 0 for value in values)


def good_byte_counts(entries, problems):
    return sum(e.payload_bytes for e in entries) + sum(p.updates for p in problems)


def good_lengths(groups):
    return sum(len(group) * 2 + 1 for group in groups)


def good_float_fold(spans):
    return plain_sum(span.duration for span in spans)


def good_suppressed(indices):
    return sum(stop - start for start, stop in indices)  # repro-lint: disable=float-sum -- ints
