"""Known-bad fixture: builtin sum() over items that may be floats."""


def bad_float_total(spans):
    return sum(span.duration for span in spans)


def bad_float_list(a, b):
    return sum([a, 0.5 * b])


def bad_opaque_iterable(values):
    return sum(values)


def bad_true_division(counts):
    return sum(count / 2 for count in counts)
