"""Finite sets and maps with chosen products and coproducts.

Elements are canonical tagged trees so that equality and ordering are
structural: atoms, tuples (products), tagged injections (coproducts), and
function tables (elements of function spaces).  Objects keep their
elements sorted by a total structural key, which makes every enumeration
in the package deterministic.

A map is stored by position, as in Catlab.jl's finite functions: the
codomain position of each domain element's image.  Identity, composition,
equality, projections, injections and (co)pairings are then integer
arithmetic, and the element trees are only read where a map is built from
a step function or a table, or applied to an element.

Products and coproducts are hash-consed: the same factor objects give the
identical result object for as long as anything holds it (see
`_interned`).  Their carriers keep the factors and the size, and build
their elements only when something reads them.
"""
from __future__ import annotations

import weakref
from functools import cached_property, partial
from itertools import chain, product as iter_product, repeat
from math import prod
from typing import Callable, Iterable, Sequence

from .times import Value


class Atom(Value):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __repr__(self) -> str:
        return self.name


class Tup(Value):
    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        object.__setattr__(self, "items", items)

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(x) for x in self.items) + ")"


class Inj(Value):
    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: object) -> None:
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    def __repr__(self) -> str:
        return f"in{self.tag}({self.value!r})"


class FnTab(Value):
    __slots__ = ("entries",)  # ((input, output), ...) sorted by input key

    def __init__(self, entries: tuple) -> None:
        object.__setattr__(self, "entries", entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}->{v!r}" for k, v in self.entries)
        return "{" + inner + "}"


Elem = object


def elem_key(e: Elem):
    if isinstance(e, Atom):
        return (0, e.name)
    if isinstance(e, Inj):
        return (1, e.tag, elem_key(e.value))
    if isinstance(e, Tup):
        return (2, tuple(elem_key(x) for x in e.items))
    if isinstance(e, FnTab):
        return (3, tuple((elem_key(k), elem_key(v)) for k, v in e.entries))
    raise TypeError(f"not an element: {e!r}")


class FinObj:
    """A finite set; the constructor takes any iterable of elements,
    sorts them by `elem_key` and rejects duplicates.  `product` and
    `coproduct` make theirs from a `kind` and `size`, and build elements
    on read from the factors that `_interned` pins on them as `_parts`."""

    kind = None  # "product" or "coproduct" for such a carrier
    _parts = ()

    def __init__(self, elements: Iterable[Elem]) -> None:
        elements = tuple(elements)
        keys = [elem_key(e) for e in elements]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        for a, b in zip(order, order[1:]):
            if keys[a] == keys[b]:
                raise ValueError(f"duplicate element {elements[a]!r}")
        self.elements = tuple(elements[k] for k in order)
        self.size = len(self.elements)

    @classmethod
    def _structured(cls, kind: str, size: int) -> "FinObj":
        obj = cls.__new__(cls)
        obj.kind, obj.size = kind, size
        return obj

    @cached_property
    def elements(self) -> tuple:
        """A structured carrier's elements, in the order `product` gives."""
        if self.kind == "product":
            return tuple(map(Tup, iter_product(*(f.elements for f in self._parts))))
        return tuple(Inj(tag, e) for tag, s in enumerate(self._parts) for e in s.elements)

    @cached_property
    def index(self) -> dict:
        """Position of each element, built on the first query."""
        return dict(zip(self.elements, range(self.size)))

    def __eq__(self, other) -> bool:
        """Equal elements; nonempty carriers of one kind and arity have
        them exactly when their parts are equal, so compare those."""
        if self is other:
            return True
        if not isinstance(other, FinObj):
            return NotImplemented
        if self.size != other.size or not self.size:  # sizes decide
            return self.size == other.size
        if self.kind and self.kind == other.kind and len(self._parts) == len(other._parts):
            return self._parts == other._parts
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __contains__(self, e: Elem) -> bool:
        return e in self.index

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self.elements) + "}"


EMPTY = FinObj([])
UNIT_ELEM = Tup(())
UNIT = FinObj([UNIT_ELEM])


def flag_obj(n: int = 2) -> FinObj:
    """n atoms; CapExceeded above DEFAULT_CAP, as for `product`."""
    if n > DEFAULT_CAP:
        raise CapExceeded(n, DEFAULT_CAP)
    return FinObj([Atom(f"v{i}") for i in range(n)])


class FinMor:
    """A map dom -> cod, stored as `pos`: the codomain position of the
    image of each domain element, in domain order.

    The positions are validated once: they must lie in `range(len(cod))`.
    """

    __hash__ = None  # like the dict tables they replace, maps go in no set

    def __init__(self, dom: FinObj, cod: FinObj, *, pos: Sequence[int]) -> None:
        pos = tuple(pos)
        if len(pos) != dom.size:
            raise ValueError("map positions must cover the domain exactly")
        n = cod.size
        if pos and (min(pos) < 0 or max(pos) >= n):
            bad = next(p for p in pos if not 0 <= p < n)
            raise ValueError(f"map position {bad} is outside the codomain")
        self.dom, self.cod, self.pos = dom, cod, pos

    @cached_property
    def table(self) -> dict:
        """The map as a dict from each domain element to its image."""
        return dict(zip(self.dom.elements, map(self.cod.elements.__getitem__, self.pos)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinMor):
            return NotImplemented
        return self.pos == other.pos and self.dom == other.dom and self.cod == other.cod

    def __call__(self, e: Elem) -> Elem:
        return self.table[e]

    def __repr__(self) -> str:
        cod = self.cod.elements
        inner = ", ".join(f"{k!r}->{cod[p]!r}" for k, p in zip(self.dom.elements, self.pos))
        return "[" + inner + "]"


def fin_mor(dom: FinObj, cod: FinObj, fn: Callable[[Elem], Elem]) -> FinMor:
    """The map sending each element e of dom to fn(e)."""
    images = [fn(e) for e in dom.elements]
    try:
        pos = list(map(cod.index.__getitem__, images))
    except KeyError as missing:
        raise ValueError(f"map value {missing.args[0]!r} is outside the codomain") from None
    return FinMor(dom, cod, pos=pos)


def identity(obj: FinObj) -> FinMor:
    return FinMor(obj, obj, pos=range(len(obj)))


def compose(f: FinMor, g: FinMor) -> FinMor:
    """f after g."""
    if g.cod != f.dom:
        raise ValueError("maps not composable")
    return FinMor(g.dom, f.cod, pos=map(f.pos.__getitem__, g.pos))


class CapExceeded(Exception):
    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration of {count} candidates exceeds cap {cap}")
        self.count = count
        self.cap = cap


DEFAULT_CAP = 10**6


# -- hash-consing -----------------------------------------------------------

_INTERNED: dict = {}  # key -> weakref.ref to the shared object


def _interned(kind, parts: Sequence, build: Callable[[], object]):
    """The object `build()` makes from `parts`, shared by every call with
    the identical `parts` while anything still holds it.

    The key is `kind` plus the identities of the parts, so a lookup never
    compares carriers.  The result pins its parts: while it lives none of
    its keyed ids can be reused by another object.  The table holds weak
    references, so it keeps nothing alive that no caller does.
    """
    parts = tuple(parts)
    key = (kind, *map(id, parts))
    ref = _INTERNED.get(key)
    found = None if ref is None else ref()
    if found is None:
        found = build()
        object.__setattr__(found, "_parts", parts)
        _INTERNED[key] = weakref.ref(found, partial(_forget, key))
    return found


def _forget(key: tuple, ref: weakref.ref) -> None:
    """Drop a dead result's entry, unless a new result has taken it."""
    if _INTERNED.get(key) is ref:
        del _INTERNED[key]


# -- products ---------------------------------------------------------------
#
# A product's elements sort by their first component, then the second, and
# so on (the order `iter_product` yields them in), so position p of a
# product of factors sized n_0, ..., n_k has the mixed-radix digits
# (d_0, ..., d_k) with d_0 most significant: the factor positions.  A
# coproduct's elements sort by tag, so summand k fills the positions from
# its offset, the sizes of the summands before it added up.  Both carriers
# build their elements in that order, with no sort, on first read.


def product(factors: Sequence[FinObj]) -> FinObj:
    """Chosen product: tuples in factor order; the empty product is UNIT.
    CapExceeded when it would have more than DEFAULT_CAP elements."""
    def build() -> FinObj:
        count = prod(f.size for f in factors)
        if count > DEFAULT_CAP:
            raise CapExceeded(count, DEFAULT_CAP)
        return FinObj._structured("product", count)

    return _interned("product", factors, build)


def _digits(sizes: Sequence[int], k: int) -> tuple:
    """Digit k of every position of a product of factors of these sizes."""
    inner = prod(sizes[k + 1:])
    block = tuple(chain.from_iterable(repeat(d, inner) for d in range(sizes[k])))
    return block * prod(sizes[:k])


def proj(factors: Sequence[FinObj], k: int) -> FinMor:
    return FinMor(product(factors), factors[k],
                  pos=_digits([len(f) for f in factors], k))


def pairing(fs: Sequence[FinMor]) -> FinMor:
    """Unique map into the product commuting with every projection."""
    if not fs:
        raise ValueError("pairing needs at least one component")
    dom = fs[0].dom
    if any(f.dom != dom for f in fs):
        raise ValueError("pairing components must share a domain")
    cod = product([f.cod for f in fs])
    pos = fs[0].pos
    for f in fs[1:]:
        n = len(f.cod)
        pos = [p * n + q for p, q in zip(pos, f.pos)]
    return FinMor(dom, cod, pos=pos)


def product_pos(fs: Sequence[FinMor]) -> list:
    """The positions of `product_mor(fs)`, without building its ends."""
    pos = [0]
    for f in fs:
        n = f.cod.size
        pos = [p * n + q for p in pos for q in f.pos]
    return pos


def product_mor(fs: Sequence[FinMor]) -> FinMor:
    return FinMor(product([f.dom for f in fs]), product([f.cod for f in fs]),
                  pos=product_pos(fs))


# -- coproducts -------------------------------------------------------------


def coproduct(summands: Sequence[FinObj]) -> FinObj:
    return _interned("coproduct", summands, lambda: FinObj._structured(
        "coproduct", sum(s.size for s in summands)))


def inj(summands: Sequence[FinObj], k: int) -> FinMor:
    offset = sum(len(s) for s in summands[:k])
    return FinMor(summands[k], coproduct(summands),
                  pos=range(offset, offset + len(summands[k])))


def copairing(fs: Sequence[FinMor]) -> FinMor:
    """Unique map out of the coproduct commuting with every injection."""
    if not fs:
        raise ValueError("copairing needs at least one component")
    cod = fs[0].cod
    if any(f.cod != cod for f in fs):
        raise ValueError("copairing components must share a codomain")
    dom = coproduct([f.dom for f in fs])
    return FinMor(dom, cod, pos=chain.from_iterable(f.pos for f in fs))


def coproduct_mor(fs: Sequence[FinMor]) -> FinMor:
    dom = coproduct([f.dom for f in fs])
    cod = coproduct([f.cod for f in fs])
    pos, offset = [], 0
    for f in fs:
        pos.extend(offset + p for p in f.pos)
        offset += len(f.cod)
    return FinMor(dom, cod, pos=pos)


# -- enumeration of maps ---------------------------------------------------


def enumerate_mors(dom: FinObj, cod: FinObj, cap: int = DEFAULT_CAP) -> list[FinMor]:
    """Every map dom -> cod, in lexicographic table order."""
    count = len(cod) ** len(dom)
    if count > cap:
        raise CapExceeded(count, cap)
    return [FinMor(dom, cod, pos=pos)
            for pos in iter_product(range(len(cod)), repeat=len(dom))]
