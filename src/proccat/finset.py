"""Finite sets and maps with chosen products and coproducts.

Elements are canonical tagged trees so that equality and ordering are
structural: atoms, tuples (products), tagged injections (coproducts), and
function tables (elements of function spaces).  Objects keep their
elements sorted by a total structural key, which makes every enumeration
in the package deterministic.

Products and coproducts are hash-consed: the same factor objects give the
identical result object for as long as anything holds it (see
`_interned`).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Tup:
    items: tuple

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(x) for x in self.items) + ")"


@dataclass(frozen=True)
class Inj:
    tag: int
    value: object

    def __repr__(self) -> str:
        return f"in{self.tag}({self.value!r})"


@dataclass(frozen=True)
class FnTab:
    entries: tuple  # ((input, output), ...) sorted by input key

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


@dataclass(frozen=True)
class FinObj:
    """A finite set; the constructor sorts the given elements by
    `elem_key` and rejects duplicates."""

    elements: tuple

    def __post_init__(self) -> None:
        keys = [elem_key(e) for e in self.elements]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        for a, b in zip(order, order[1:]):
            if keys[a] == keys[b]:
                raise ValueError(f"duplicate element {self.elements[a]!r}")
        object.__setattr__(self, "elements", tuple(self.elements[k] for k in order))

    @cached_property
    def members(self) -> frozenset:
        """Hashed membership index, built on the first query."""
        return frozenset(self.elements)

    def __contains__(self, e: Elem) -> bool:
        return e in self.members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(e) for e in self.elements) + "}"


def fin_obj(elements: Iterable[Elem]) -> FinObj:
    return FinObj(tuple(elements))


EMPTY = fin_obj([])
UNIT_ELEM = Tup(())
UNIT = fin_obj([UNIT_ELEM])


def flag_obj(n: int = 2) -> FinObj:
    return fin_obj([Atom(f"v{i}") for i in range(n)])


@dataclass(frozen=True, eq=True)
class FinMor:
    dom: FinObj
    cod: FinObj
    table: dict

    def __post_init__(self) -> None:
        if self.table.keys() != self.dom.members:
            raise ValueError("map table must cover the domain exactly")
        for v in self.table.values():
            if v not in self.cod:
                raise ValueError(f"map value {v!r} is outside the codomain")

    __hash__ = None  # tables are dicts; these never go in sets

    def __call__(self, e: Elem) -> Elem:
        return self.table[e]

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}->{self.table[k]!r}" for k in self.dom.elements)
        return "[" + inner + "]"


def fin_mor(dom: FinObj, cod: FinObj, fn: Callable[[Elem], Elem]) -> FinMor:
    return FinMor(dom, cod, {e: fn(e) for e in dom})


def identity(obj: FinObj) -> FinMor:
    return FinMor(obj, obj, {e: e for e in obj})


def compose(f: FinMor, g: FinMor) -> FinMor:
    """f after g."""
    if g.cod != f.dom:
        raise ValueError("maps not composable")
    return FinMor(g.dom, f.cod, {e: f(g(e)) for e in g.dom})


def is_injective(f: FinMor) -> bool:
    return len(set(f.table.values())) == len(f.table)


def is_bijective(f: FinMor) -> bool:
    return is_injective(f) and len(f.dom) == len(f.cod)


def inverse(f: FinMor) -> FinMor:
    if not is_bijective(f):
        raise ValueError("map is not a bijection")
    return FinMor(f.cod, f.dom, {v: k for k, v in f.table.items()})


# -- hash-consing -----------------------------------------------------------

_INTERNED = weakref.WeakValueDictionary()


def _interned(kind, parts: Sequence, build: Callable[[], object]):
    """The object `build()` makes from `parts`, shared by every call with
    the identical `parts` while anything still holds it.

    The key is `kind` plus the identities of the parts, so a lookup never
    compares carriers.  The result pins its parts: while an entry exists
    none of its keyed ids can be reused by another object.  The table
    holds results weakly, so it keeps nothing alive that no caller does.
    """
    parts = tuple(parts)
    key = (kind, *map(id, parts))
    found = _INTERNED.get(key)
    if found is None:
        found = build()
        object.__setattr__(found, "_parts", parts)
        _INTERNED[key] = found
    return found


# -- products ---------------------------------------------------------------


def product(factors: Sequence[FinObj]) -> FinObj:
    """Chosen product: tuples in factor order; the empty product is UNIT."""
    return _interned("product", factors, lambda: fin_obj(
        Tup(items) for items in iter_product(*(f.elements for f in factors))))


def proj(factors: Sequence[FinObj], k: int) -> FinMor:
    return fin_mor(product(factors), factors[k], lambda e: e.items[k])


def pairing(fs: Sequence[FinMor]) -> FinMor:
    """Unique map into the product commuting with every projection."""
    if not fs:
        raise ValueError("pairing needs at least one component")
    dom = fs[0].dom
    if any(f.dom != dom for f in fs):
        raise ValueError("pairing components must share a domain")
    cod = product([f.cod for f in fs])
    return fin_mor(dom, cod, lambda e: Tup(tuple(f(e) for f in fs)))


def product_mor(fs: Sequence[FinMor]) -> FinMor:
    dom = product([f.dom for f in fs])
    cod = product([f.cod for f in fs])
    return fin_mor(dom, cod, lambda e: Tup(tuple(f(x) for f, x in zip(fs, e.items))))


# -- coproducts -------------------------------------------------------------


def coproduct(summands: Sequence[FinObj]) -> FinObj:
    return _interned("coproduct", summands, lambda: fin_obj(
        Inj(tag, e) for tag, s in enumerate(summands) for e in s.elements))


def inj(summands: Sequence[FinObj], k: int) -> FinMor:
    return fin_mor(summands[k], coproduct(summands), lambda e: Inj(k, e))


def copairing(fs: Sequence[FinMor]) -> FinMor:
    """Unique map out of the coproduct commuting with every injection."""
    if not fs:
        raise ValueError("copairing needs at least one component")
    cod = fs[0].cod
    if any(f.cod != cod for f in fs):
        raise ValueError("copairing components must share a codomain")
    dom = coproduct([f.dom for f in fs])
    return fin_mor(dom, cod, lambda e: fs[e.tag](e.value))


def coproduct_mor(fs: Sequence[FinMor]) -> FinMor:
    dom = coproduct([f.dom for f in fs])
    cod = coproduct([f.cod for f in fs])
    return fin_mor(dom, cod, lambda e: Inj(e.tag, fs[e.tag](e.value)))


# -- enumeration of maps ---------------------------------------------------


class CapExceeded(Exception):
    def __init__(self, count: int, cap: int):
        super().__init__(f"enumeration of {count} candidates exceeds cap {cap}")
        self.count = count
        self.cap = cap


DEFAULT_CAP = 10**6


def enumerate_mors(dom: FinObj, cod: FinObj, cap: int = DEFAULT_CAP) -> list[FinMor]:
    """Every map dom -> cod, in lexicographic table order."""
    count = len(cod) ** len(dom)
    if count > cap:
        raise CapExceeded(count, cap)
    if len(dom) == 0:
        return [FinMor(dom, cod, {})]
    if len(cod) == 0:
        return []
    inputs = dom.elements
    return [
        FinMor(dom, cod, dict(zip(inputs, outputs)))
        for outputs in iter_product(cod.elements, repeat=len(inputs))
    ]
