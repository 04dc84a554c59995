"""Element-level helpers on process values that several test files share."""
from proccat.process import Ongoing, Terminated


def seen_value(value, u):
    """The value a process recorded at time u."""
    for time, x in value.seen:
        if time == u:
            return x
    raise KeyError(f"no recorded value at time {u}")


def rest_after(value, u):
    """The suffix of a process value strictly after time u.

    The result is a process value based at present time u (same horizon).
    For a Terminated value u must lie strictly before the stop time.
    """
    later = tuple((time, x) for time, x in value.seen if time > u)
    if isinstance(value, Terminated):
        if u >= value.at_time:
            raise ValueError(f"no suffix after {u}: process stopped at {value.at_time}")
        return Terminated(value.at_time, later, value.result)
    return Ongoing(later)
