"""Time-indexed objects and natural families over a finite time scale.

A temporal object assigns a finite set to every index pair (t, t0) and a
restriction map to every index morphism, contravariantly in the observation
time: restricting along (t, t0, t0') forgets what was learned after t0.
Temporal morphisms are families of maps, one per index, commuting with all
restrictions.

An object is its carriers and its covers, the restrictions (t, p, q)
between consecutive points.  The carriers are built with the object.
Each restriction is built on first read and kept: a cover by the function
the object was built from, an identity arrow's as the identity map and
any other's as the composite of its covers, so naturality squares need
checking along covers only.  A morphism is its component function, each
component likewise built on first read, so a check or a map builds only
what it reads.  Object equality, `mor_equal` and the whole-family reads
(`components`, `covers`, `restrict`) read every index; a morphism has no
`==` of its own.  A component or cover that cannot
be built raises where it is first read.

`TemporalObj` and `TemporalMor` build without checking either law;
`require_functor` and `require_natural` check them where a value enters.
"""
from __future__ import annotations

from math import prod
from typing import Callable, Optional, Sequence

from .finset import (
    CapExceeded,
    DEFAULT_CAP,
    EMPTY,
    FinMor,
    FinObj,
    FnTab,
    Tup,
    UNIT,
    _interned,
    compose as f_compose,
    copairing,
    coproduct,
    coproduct_mor,
    enumerate_mors,
    flag_obj,
    identity as f_identity,
    inj,
    product,
    product_mor,
    proj,
)
from .times import IndexMor, IndexPair, TimeScale


class TemporalObj:
    """The object presented by its carriers, which `carrier_at` builds
    here for every index, and its restrictions along covers, which
    `restrict_at` builds when `res` first reads them."""

    __hash__ = None

    def __init__(self, scale: TimeScale, carrier_at: Callable[[IndexPair], FinObj],
                 restrict_at: Callable[[IndexMor], FinMor]) -> None:
        self.scale = scale
        self.carrier = {i: carrier_at(i) for i in scale.indices()}
        # Asked for covers by `res`, and for every arrow by `check_functor`.
        self.restrict_at = restrict_at
        self._derived = {}  # IndexMor -> FinMor, each restriction read so far

    def at(self, index: IndexPair) -> FinObj:
        return self.carrier[index]

    def res(self, mor: IndexMor) -> FinMor:
        """The restriction along `mor`, built on first read and kept: a
        cover's by `restrict_at`, an identity arrow's as the identity map,
        and any other as the composite of its covers."""
        found = self._derived.get(mor)
        if found is None:
            if mor.src is mor.dst:
                found = f_identity(self.carrier[mor.dst])
            elif mor.r0p - mor.r0 == 1:
                found = self.restrict_at(mor)
            else:
                # The arrow one cover shorter after the cover out of mor.src.
                lo, arrows = mor.r0p - 1, self.scale.arrows
                found = f_compose(self.res(arrows(mor.r0, lo)[mor.r]),
                                  self.res(arrows(lo, mor.r0p)[mor.r]))
            self._derived[mor] = found
        return found

    @property
    def covers(self) -> dict:
        """The restriction along every cover, each built now if not read yet."""
        return {m: self.res(m) for m in self.scale.covers()}

    @property
    def restrict(self) -> dict:
        """The restriction along every index morphism, built now where not
        read yet."""
        return {m: self.res(m) for m in self.scale.index_mors()}

    def __eq__(self, other) -> bool:
        """Same scale, carriers and covers, which decide every other
        restriction; an object equals itself without building any."""
        if self is other:
            return True
        if not isinstance(other, TemporalObj):
            return NotImplemented
        return (self.scale == other.scale and self.carrier == other.carrier
                and self.covers == other.covers)


def require_functor(obj: TemporalObj) -> TemporalObj:
    """obj itself, once `check_functor` finds nothing; ValueError
    otherwise."""
    witness = check_functor(obj)
    if witness is not None:
        raise ValueError(f"not a functor: {witness}")
    return obj


def check_functor(obj: TemporalObj) -> Optional[str]:
    """Identities map to identities; restriction composes as the indices do.

    The restrictions `res` derives compose by construction, so what is
    checked is that the restriction the object was built from agrees with
    them along every arrow (a cover's is the one `res` keeps, so each is
    built once): None when it does, else a witness."""
    for mor in obj.scale.index_mors():
        derived = obj.res(mor)
        direct = derived if mor.r0p - mor.r0 == 1 else obj.restrict_at(mor)
        if direct.dom != obj.at(mor.src) or direct.cod != obj.at(mor.dst):
            return f"restriction along {mor} has wrong endpoints"
        if direct == derived:
            continue
        if mor.src is mor.dst:
            return f"restriction along identity {mor} is not the identity"
        bad = next(e for e in obj.at(mor.src) if direct(e) != derived(e))
        return (f"restriction along {mor} is not the composite of its covers at "
                f"{bad!r}: {direct(bad)!r} vs {derived(bad)!r}")
    return None


class TemporalMor:
    """A family of maps dom.at(i) -> cod.at(i), one per index: `at` builds
    each component by `component_at` on first read and keeps it."""

    def __init__(self, dom: TemporalObj, cod: TemporalObj,
                 component_at: Callable[[IndexPair], FinMor]) -> None:
        self.dom, self.cod, self.component_at = dom, cod, component_at
        self._built = {}  # IndexPair -> FinMor, each component read so far

    def at(self, index: IndexPair) -> FinMor:
        found = self._built.get(index)
        if found is None:
            found = self._built[index] = self.component_at(index)
        return found

    @property
    def components(self) -> dict:
        """The component at every index, each built now if not read yet."""
        return {i: self.at(i) for i in self.dom.scale.indices()}


def require_natural(mor: TemporalMor) -> TemporalMor:
    """mor itself, once `naturality_witness` finds nothing; ValueError
    otherwise."""
    witness = naturality_witness(mor)
    if witness is not None:
        raise ValueError(f"not natural: {witness}")
    return mor


def _square(a: TemporalObj, b: TemporalObj, m: IndexMor) -> tuple:
    """The two sides of the naturality square of the cover `m` for a -> b,
    by positions: ``rb . c`` of c at m.src, and ``d . ra`` of d at m.dst."""
    rb, ra = b.res(m).pos.__getitem__, a.res(m).pos
    return lambda c: tuple(map(rb, c.pos)), lambda d: tuple(map(d.pos.__getitem__, ra))


def naturality_witness(mor: TemporalMor) -> Optional[str]:
    for index in mor.dom.scale.indices():
        comp = mor.at(index)
        if comp.dom != mor.dom.at(index) or comp.cod != mor.cod.at(index):
            return f"component at {index} has wrong endpoints"
    # Covers suffice: every other restriction of both ends is a composite
    # of covers, and squares paste.
    for i in mor.dom.scale.covers():
        after, before = _square(mor.dom, mor.cod, i)
        left, right = after(mor.at(i.src)), before(mor.at(i.dst))
        if left != right:
            p = next(p for p, (x, y) in enumerate(zip(left, right)) if x != y)
            cod = mor.cod.at(i.dst).elements
            return (f"square for {i} fails at {mor.dom.at(i.src).elements[p]!r}: "
                    f"{cod[left[p]]!r} vs {cod[right[p]]!r}")
    return None


def mor_equal(f: TemporalMor, g: TemporalMor) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("comparing morphisms with different endpoints")
    return f.components == g.components


def first_difference(f: TemporalMor, g: TemporalMor) -> Optional[str]:
    """Where two parallel morphisms first disagree: the index, the element,
    and the two images, as a printable witness.  None when equal."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("comparing morphisms with different endpoints")
    # Positions decide; `first_mismatch` walks the first index where they
    # differ, to print the witness.
    i = next((i for i in f.dom.scale.indices() if f.at(i).pos != g.at(i).pos), None)
    return None if i is None else first_mismatch(f, lambda j, p: g.at(j).pos[p], [i])


def first_mismatch(f: TemporalMor, image: Callable,
                   indices: Optional[Sequence] = None) -> Optional[str]:
    """Where ``f`` first disagrees with ``image(i, p)``, the codomain
    position of every domain position ``p`` at index ``i``, visited in
    index (all of them, or `indices`) then position order, printed by
    elements: the witness `first_difference` prints; None if none."""
    for i in indices or f.dom.scale.indices():
        fi = f.at(i)
        for p, left in enumerate(fi.pos):
            right = image(i, p)
            if left != right:
                cod = fi.cod.elements
                return (f"at {i}: {fi.dom.elements[p]!r} maps to {cod[left]!r} "
                        f"vs {cod[right]!r}")
    return None


# -- constructions on objects ----------------------------------------------


def const_obj(scale: TimeScale, value: FinObj) -> TemporalObj:
    return TemporalObj(scale, lambda i: value, lambda m: f_identity(value))


def unit_obj(scale: TimeScale) -> TemporalObj:
    return const_obj(scale, UNIT)


def empty_obj(scale: TimeScale) -> TemporalObj:
    return const_obj(scale, EMPTY)


def flag_temporal(scale: TimeScale, n: int = 2) -> TemporalObj:
    return const_obj(scale, flag_obj(n))


def _pointwise_product(factors: Sequence[TemporalObj]) -> TemporalObj:
    scale = factors[0].scale
    if any(f.scale != scale for f in factors):
        raise ValueError("factors live over different scales")
    return TemporalObj(scale, lambda i: product([f.at(i) for f in factors]),
                       lambda m: product_mor([f.res(m) for f in factors]))


def pointwise_product(factors: Sequence[TemporalObj]) -> TemporalObj:
    """Hash-consed like `product`: the same factor objects give the
    identical result while it is held."""
    return _interned("pointwise_product", factors, _pointwise_product, factors)


def _pointwise_coproduct(summands: Sequence[TemporalObj]) -> TemporalObj:
    scale = summands[0].scale
    if any(s.scale != scale for s in summands):
        raise ValueError("summands live over different scales")
    return TemporalObj(scale, lambda i: coproduct([s.at(i) for s in summands]),
                       lambda m: coproduct_mor([s.res(m) for s in summands]))


def pointwise_coproduct(summands: Sequence[TemporalObj]) -> TemporalObj:
    """Hash-consed like `coproduct`."""
    return _interned("pointwise_coproduct", summands, _pointwise_coproduct, summands)


# -- combinators on morphisms ----------------------------------------------


def t_identity(obj: TemporalObj) -> TemporalMor:
    return TemporalMor(obj, obj, lambda i: obj.res(i.identity))


def t_compose(f: TemporalMor, g: TemporalMor) -> TemporalMor:
    """f after g."""
    if g.cod != f.dom:
        raise ValueError("temporal morphisms not composable")
    return TemporalMor(g.dom, f.cod, lambda i: f_compose(f.at(i), g.at(i)))


def t_proj(factors: Sequence[TemporalObj], k: int) -> TemporalMor:
    src = pointwise_product(factors)
    return TemporalMor(src, factors[k], lambda i: proj([f.at(i) for f in factors], k))


def t_product_mor(fs: Sequence[TemporalMor]) -> TemporalMor:
    dom = pointwise_product([f.dom for f in fs])
    cod = pointwise_product([f.cod for f in fs])
    return TemporalMor(dom, cod, lambda i: product_mor([f.at(i) for f in fs]))


def t_inj(summands: Sequence[TemporalObj], k: int) -> TemporalMor:
    cod = pointwise_coproduct(summands)
    return TemporalMor(summands[k], cod, lambda i: inj([s.at(i) for s in summands], k))


def t_copairing(fs: Sequence[TemporalMor]) -> TemporalMor:
    dom = pointwise_coproduct([f.dom for f in fs])
    return TemporalMor(dom, fs[0].cod, lambda i: copairing([f.at(i) for f in fs]))


def t_coproduct_mor(fs: Sequence[TemporalMor]) -> TemporalMor:
    dom = pointwise_coproduct([f.dom for f in fs])
    cod = pointwise_coproduct([f.cod for f in fs])
    return TemporalMor(dom, cod, lambda i: coproduct_mor([f.at(i) for f in fs]))


# -- function spaces --------------------------------------------------------


def _fn_tab(m: FinMor) -> FnTab:
    return FnTab(tuple(zip(m.dom.elements, map(m.cod.elements.__getitem__, m.pos))))


def _row(a: TemporalObj, b: TemporalObj, r: int, candidates: Callable,
         keep: Optional[Callable] = None):
    """For each index (t, t0) of row r, t0 ascending (every arrow keeps
    the present time t, of rank r), the index and the compatible families
    of maps a -> b up to it, as (members, last map, prefix position).

    `candidates(i)` lists (member, map) pairs in `enumerate_mors` order,
    and a map joins only if `keep(i, map)` (when given) holds.  Families
    at (t, q) extend each family at the point before q by every map c
    whose cover square commutes with its last map d, found by the key
    ``rb . c == d . ra``; `keep` is asked only of maps whose key some
    family needs.  Families come out in element order."""
    for q in range(r, len(a.scale.points)):
        i = a.scale.column(q)[r]
        if q == r:
            families = [((x,), c, 0) for x, c in candidates(i)
                        if keep is None or keep(i, c)]
        else:
            after, before = _square(a, b, a.scale.arrows(q - 1, q)[r])
            keys = [before(d) for _, d, _ in families]
            matches = {key: [] for key in keys}
            for x, c in candidates(i) if families else ():
                found = matches.get(after(c))
                if found is not None and (keep is None or keep(i, c)):
                    found.append((x, c))
            families = [(xs + (x,), c, k) for k, (xs, _, _) in enumerate(families)
                        for x, c in matches[keys[k]]]
        yield i, families


def exponential_end(a: TemporalObj, b: TemporalObj) -> TemporalObj:
    """Internal hom b^a: at (t, t0), the compatible families of maps
    a(t, t'') -> b(t, t'') for every scale point t'' in [t, t0].

    Compatible means every restriction square between two family members
    commutes; squares along covers suffice, as in `naturality_witness`.
    Elements are tuples of function tables in ascending t'' order;
    restriction drops the members beyond the new horizon.  A carrier whose
    candidate families, all maps at every point, number more than
    DEFAULT_CAP raises CapExceeded before any is listed.  The carriers
    of a row are the families `_row` joins along it, and restriction
    along a cover sends each to its prefix's position.
    """
    scale = a.scale
    if b.scale != scale:
        raise ValueError("objects live over different scales")
    for i in scale.indices():  # t ascending, then t0: a running product per row
        total = (1 if i.r0 == i.r else total) * len(b.at(i)) ** len(a.at(i))
        if total > DEFAULT_CAP:
            raise CapExceeded(total, DEFAULT_CAP)
    carriers, cut = {}, {}  # cut[m]: the cover m as the position of each prefix
    for r in range(len(scale.points)):
        for i, families in _row(a, b, r, lambda i: [
                (_fn_tab(c), c) for c in enumerate_mors(a.at(i), b.at(i))]):
            carriers[i] = FinObj([Tup(tabs) for tabs, _, _ in families])
            if i.r0 > i.r:
                cut[scale.arrows(i.r0 - 1, i.r0)[i.r]] = [k for _, _, k in families]

    def restrict_at(m: IndexMor) -> FinMor:
        """Each family's prefix, one cover at a time from m.src."""
        pos = range(carriers[m.src].size)
        for q in range(m.r0p, m.r0, -1):
            pos = map(cut[scale.arrows(q - 1, q)[m.r]].__getitem__, pos)
        return FinMor(carriers[m.src], carriers[m.dst], pos=pos)

    return require_functor(TemporalObj(scale, carriers.__getitem__, restrict_at))


# -- exhaustive enumeration of natural families -----------------------------


def nat_trans_space(a: TemporalObj, b: TemporalObj) -> int:
    return prod(len(b.at(i)) ** len(a.at(i)) for i in a.scale.indices())


def solve_order(scale: TimeScale) -> list[IndexPair]:
    """Every index, latest stop first: t descending, then t0 ascending."""
    return sorted(scale.indices(), key=lambda i: (-i.r, i.r0))


def _unfixed(index: IndexPair) -> FinMor:
    """The component builder of a family under construction: a component
    not fixed yet is never guessed."""
    raise LookupError(f"the equation read the candidate at {index}, "
                      "which is not fixed yet")


def fixpoint(dom: TemporalObj, cod: TemporalObj, image: Callable) -> TemporalMor:
    """The family f: dom -> cod equal to its image ``image(f)``, a map
    ``(i, p) -> position`` that reads f only at later stops: in
    `solve_order`, each component is the image of those fixed before it.
    Reading an index not fixed yet, its own included, raises LookupError."""
    f = TemporalMor(dom, cod, _unfixed)
    at = image(f)
    for i in solve_order(dom.scale):
        row = dom.at(i)
        f._built[i] = FinMor(row, cod.at(i), pos=[at(i, p) for p in range(len(row))])
    return f


def enumerate_nat_trans(
    a: TemporalObj, b: TemporalObj, cap: int = DEFAULT_CAP,
    equation: Optional[Callable[[TemporalMor], Callable]] = None,
) -> list[TemporalMor]:
    """Every natural family a -> b; with an `equation`, only the families
    equal to ``equation(f)``, their own pointwise image ``(i, p) -> position``.

    Each row of a natural family is one that `_row` joins, as
    `exponential_end` lists them at (t, end).  Rows are fixed latest
    first, as `fixpoint` fixes indices, and the image at index i is read
    with the later rows and i itself fixed: it may read the candidate
    only there, as every solver equation does (it restarts strictly
    later); reading an earlier index raises LookupError.  The cap bounds
    the whole candidate space, and the result comes in the order of a
    plain filter over it: indices ascending, maps in enumerate_mors order.
    """
    space = nat_trans_space(a, b)
    if space > cap:
        raise CapExceeded(space, cap)
    scale, n = a.scale, len(a.scale.points)
    maps = {i: [(c, c) for c in enumerate_mors(a.at(i), b.at(i), cap)]
            for i in scale.indices()}
    searched = TemporalMor(a, b, _unfixed)
    image = None if equation is None else equation(searched)

    def keep(i: IndexPair, c: FinMor) -> bool:
        searched._built[i] = c
        kept = all(q == image(i, p) for p, q in enumerate(c.pos))
        del searched._built[i]
        return kept

    fixed = [{}]  # the components of each family at the rows fixed so far
    for r in range(n - 1, -1, -1):
        row, grown = [scale.column(q)[r] for q in range(r, n)], []
        for known in fixed:
            # The components fixed so far, kept as if read: reading any other raises.
            searched._built = dict(known)
            *_, (_, families) = _row(a, b, r, maps.__getitem__, keep if image else None)
            grown += [{**known, **dict(zip(row, members))} for members, _, _ in families]
        fixed = grown
    # enumerate_mors lists maps in position order.
    return sorted((TemporalMor(a, b, f.__getitem__) for f in fixed),
                  key=lambda f: [f.at(i).pos for i in scale.indices()])
