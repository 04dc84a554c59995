"""Element-level helpers on process values that several test files share."""


def seen_value(value, u):
    """The value a process recorded at time u."""
    for time, x in value.seen:
        if time == u:
            return x
    raise KeyError(f"no recorded value at time {u}")
