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

from itertools import product as iter_product
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
    fin_mor,
    flag_obj,
    identity as f_identity,
    inj,
    pairing,
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


def _commutes(a: TemporalObj, b: TemporalObj, m: IndexMor,
              at_src: FinMor, at_dst: FinMor) -> bool:
    """Whether the naturality square of `m` commutes for the components
    `at_src` (at m.src) and `at_dst` (at m.dst) of a family a -> b, by
    positions: restrict-after-map equals map-after-restrict."""
    rb, ra = b.res(m), a.res(m)
    return [*map(rb.pos.__getitem__, at_src.pos)] == [*map(at_dst.pos.__getitem__, ra.pos)]


def naturality_witness(mor: TemporalMor) -> Optional[str]:
    for index in mor.dom.scale.indices():
        comp = mor.at(index)
        if comp.dom != mor.dom.at(index) or comp.cod != mor.cod.at(index):
            return f"component at {index} has wrong endpoints"
    # Covers suffice: every other restriction of both ends is a composite
    # of covers, and squares paste.
    for i in mor.dom.scale.covers():
        if not _commutes(mor.dom, mor.cod, i, mor.at(i.src), mor.at(i.dst)):
            left = f_compose(mor.cod.res(i), mor.at(i.src))
            right = f_compose(mor.at(i.dst), mor.dom.res(i))
            bad = next(e for e in mor.dom.at(i.src) if left(e) != right(e))
            return f"square for {i} fails at {bad!r}: {left(bad)!r} vs {right(bad)!r}"
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


def pointwise_product(factors: Sequence[TemporalObj]) -> TemporalObj:
    """Hash-consed like `product`: the same factor objects give the
    identical result while it is held."""
    scale = factors[0].scale
    if any(f.scale != scale for f in factors):
        raise ValueError("factors live over different scales")
    return _interned("pointwise_product", factors, lambda: TemporalObj(
        scale,
        lambda i: product([f.at(i) for f in factors]),
        lambda m: product_mor([f.res(m) for f in factors]),
    ))


def pointwise_coproduct(summands: Sequence[TemporalObj]) -> TemporalObj:
    """Hash-consed like `coproduct`."""
    scale = summands[0].scale
    if any(s.scale != scale for s in summands):
        raise ValueError("summands live over different scales")
    return _interned("pointwise_coproduct", summands, lambda: TemporalObj(
        scale,
        lambda i: coproduct([s.at(i) for s in summands]),
        lambda m: coproduct_mor([s.res(m) for s in summands]),
    ))


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


def t_pairing(fs: Sequence[TemporalMor]) -> TemporalMor:
    cod = pointwise_product([f.cod for f in fs])
    return TemporalMor(fs[0].dom, cod, lambda i: pairing([f.at(i) for f in fs]))


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


def exponential_end(a: TemporalObj, b: TemporalObj) -> TemporalObj:
    """Internal hom b^a: at (t, t0), the compatible families of maps
    a(t, t'') -> b(t, t'') for every scale point t'' in [t, t0].

    Compatible means every restriction square between two family members
    commutes.  Elements are tuples of function tables in ascending t''
    order; restriction drops the members beyond the new horizon.  A
    carrier whose candidate families number more than DEFAULT_CAP raises
    CapExceeded before they are listed.
    """
    scale = a.scale
    if b.scale != scale:
        raise ValueError("objects live over different scales")

    def carrier_at(i: IndexPair) -> FinObj:
        total = 1
        spaces = []
        for q in range(i.r, i.r0 + 1):
            here = scale.column(q)[i.r]
            total *= len(b.at(here)) ** len(a.at(here))
            if total > DEFAULT_CAP:
                raise CapExceeded(total, DEFAULT_CAP)
            spaces.append(enumerate_mors(a.at(here), b.at(here)))
        # Squares along covers suffice, as in `naturality_witness`.
        covers = [scale.arrows(q, q + 1)[i.r] for q in range(i.r, i.r0)]
        return FinObj([
            Tup(tuple(_fn_tab(c) for c in choice))
            for choice in iter_product(*spaces)
            if all(_commutes(a, b, m, choice[x + 1], choice[x])
                   for x, m in enumerate(covers))
        ])

    carrier_cache = {i: carrier_at(i) for i in scale.indices()}

    def restrict_at(m: IndexMor) -> FinMor:
        keep = m.r0 - m.r + 1
        return fin_mor(
            carrier_cache[m.src],
            carrier_cache[m.dst],
            lambda fam: Tup(fam.items[:keep]),
        )

    return require_functor(TemporalObj(scale, carrier_cache.__getitem__, restrict_at))


# -- exhaustive enumeration of natural families -----------------------------


def nat_trans_space(a: TemporalObj, b: TemporalObj) -> int:
    count = 1
    for i in a.scale.indices():
        count *= len(b.at(i)) ** len(a.at(i))
    return count


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
    """Every natural family a -> b, by pruned depth-first search; with an
    `equation`, only the families equal to ``equation(f)``, their own
    pointwise image ``(i, p) -> position``.

    Fixes one index at a time in `solve_order`, as `fixpoint` does, and
    drops a partial assignment as soon as a naturality square along a
    cover between fixed indices fails, or the image at the index just
    fixed differs from its component.  The image may read the candidate
    only where it is fixed, as every solver equation does (it restarts
    strictly later); reading elsewhere raises LookupError.
    The cap bounds the whole candidate space, and the result comes in the
    order of a plain filter over it: indices ascending, maps in
    enumerate_mors order.
    """
    space = nat_trans_space(a, b)
    if space > cap:
        raise CapExceeded(space, cap)
    indices = a.scale.indices()
    order = solve_order(a.scale)
    per_index = {i: enumerate_mors(a.at(i), b.at(i), cap) for i in indices}
    pos_of = {i: k for k, i in enumerate(order)}
    mors_by_pos: dict[int, list[IndexMor]] = {}
    for m in a.scale.covers():
        latest = max(pos_of[m.src], pos_of[m.dst])
        mors_by_pos.setdefault(latest, []).append(m)

    found: list[TemporalMor] = []
    # The components fixed so far, kept as if read: reading any other raises.
    searched = TemporalMor(a, b, _unfixed)
    chosen = searched._built
    image = None if equation is None else equation(searched)

    def fits(index: IndexPair, cand: FinMor, k: int) -> bool:
        return (all(_commutes(a, b, m, chosen[m.src], chosen[m.dst])
                    for m in mors_by_pos.get(k, ()))
                and (image is None
                     or all(q == image(index, p) for p, q in enumerate(cand.pos))))

    def descend(k: int) -> None:
        if k == len(order):
            found.append(TemporalMor(a, b, dict(chosen).__getitem__))
            return
        index = order[k]
        for cand in per_index[index]:
            chosen[index] = cand
            if fits(index, cand, k):
                descend(k + 1)
        chosen.pop(index, None)

    try:
        descend(0)
    finally:
        del descend  # a self-reference: the search state dies with the call
    # enumerate_mors lists maps in position order.
    return sorted(found, key=lambda f: [f.at(i).pos for i in indices])
