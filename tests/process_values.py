"""Element-level helpers on process values, and an index lookup, that
several test files share."""
from proccat.process import LiveSpace, Ongoing, ProcSpace, StepSpace, Terminated


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


def decode_live(space, i, elem):
    """The (current value, process value) pair an element of a
    `LiveSpace` carrier at i represents."""
    return elem.items[0], space.proc.decode(i, elem.items[1])


def render_value(value):
    """A process value as `proccat dump` prints it."""
    seen = ", ".join(f"{u} -> {x!r}" for u, x in value.seen)
    if isinstance(value, Terminated):
        return f"term({value.at_time}; {seen}; {value.result!r})"
    return f"ongoing({seen})"


def render_element(space, i, e):
    """The `dump` line of carrier element e at index i, by decoding it:
    the reference `process.listing` is held to."""
    if isinstance(space, ProcSpace):
        return render_value(space.decode(i, e))
    if isinstance(space, LiveSpace):
        x, v = decode_live(space, i, e)
        return f"now {x!r}; {render_value(v)}"
    if isinstance(space, StepSpace):
        if e.tag == 0:
            return f"done({e.value!r})"
        return render_element(space.live, i, e.value)
    return repr(e)


def arrow(scale, t, t0, t0p):
    """The index morphism (t, t0, t0') of `scale`, found by its points."""
    src, dst = scale.pair(t, t0p), scale.pair(t, t0)
    return scale.arrows(dst.r0, src.r0)[dst.r]
