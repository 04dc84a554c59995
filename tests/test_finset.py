import gc
from itertools import product as iter_product

import pytest
from hypothesis import assume, given, settings, strategies as st

from proccat.finset import (
    Atom,
    CapExceeded,
    DEFAULT_CAP,
    EMPTY,
    FinMor,
    FinObj,
    FnTab,
    Inj,
    Tup,
    UNIT,
    UNIT_ELEM,
    _INTERNED,
    compose,
    coproduct,
    copairing,
    coproduct_mor,
    elem_key,
    enumerate_mors,
    fin_mor,
    flag_obj,
    identity,
    inj,
    pairing,
    product,
    product_mor,
    proj,
)


def sizes():
    return st.integers(min_value=0, max_value=3)


def test_objects_are_canonically_sorted_and_duplicate_free():
    obj = FinObj([Atom("b"), Atom("a")])
    assert obj.elements == (Atom("a"), Atom("b"))
    with pytest.raises(ValueError):
        FinObj([Atom("a"), Atom("a")])


def test_elem_key_orders_mixed_shapes():
    elems = [Tup(()), Inj(0, Atom("x")), Atom("z")]
    assert sorted(elems, key=elem_key) == [
        Atom("z"), Inj(0, Atom("x")), Tup(()),
    ]


def test_morphisms_are_checked_against_their_codomain():
    with pytest.raises(ValueError):
        fin_mor(flag_obj(2), flag_obj(1), lambda e: e)


@given(sizes(), sizes())
def test_product_and_coproduct_sizes(n, m):
    a, b = flag_obj(n), flag_obj(m)
    assert len(product([a, b])) == n * m
    assert len(coproduct([a, b])) == n + m


def test_empty_product_is_unit():
    assert product([]) == UNIT
    assert UNIT.elements == (UNIT_ELEM,)
    assert EMPTY.elements == ()


def test_pairing_satisfies_projection_equations():
    a, b = flag_obj(2), flag_obj(3)
    f = fin_mor(a, b, lambda e: Atom("v1"))
    g = identity(a)
    both = pairing([f, g])
    assert compose(proj([b, a], 0), both) == f
    assert compose(proj([b, a], 1), both) == g


def test_copairing_satisfies_injection_equations():
    a, b = flag_obj(2), flag_obj(3)
    f = fin_mor(a, b, lambda e: Atom("v2"))
    g = identity(b)
    merged = copairing([f, g])
    assert compose(merged, inj([a, b], 0)) == f
    assert compose(merged, inj([a, b], 1)) == g


@given(sizes(), sizes())
def test_enumerate_mors_count_oracle(n, m):
    # oracle: |cod| ** |dom| maps between finite carriers
    a, b = flag_obj(n), flag_obj(m)
    if n == 0 or m > 0:
        mors = enumerate_mors(a, b)
        assert len(mors) == m ** n
        assert len(set(tuple(sorted(f.table.items(), key=lambda kv: elem_key(kv[0]))) for f in mors)) == len(mors)
    else:
        assert enumerate_mors(a, b) == []


def test_a_product_of_exactly_the_cap_is_built():
    # Sizes only: a product builds its elements on first read.
    assert len(product([flag_obj(1000), flag_obj(1000)])) == DEFAULT_CAP
    with pytest.raises(CapExceeded) as err:
        product([flag_obj(1000), flag_obj(1001)])
    assert err.value.count == 1001 * 1000 and err.value.cap == DEFAULT_CAP


def test_enumerate_mors_respects_cap():
    a, b = flag_obj(3), flag_obj(3)
    with pytest.raises(CapExceeded) as err:
        enumerate_mors(a, b, cap=5)
    assert err.value.count == 27 and err.value.cap == 5


def test_function_tables_are_elements():
    tab = FnTab(((Atom("a"), Atom("x")),))
    assert elem_key(tab)[0] == 3


# -- the element layer: canonical order and hashed membership ----------------

atoms = st.builds(Atom, st.sampled_from(["a", "b", "c"]))
elements = st.recursive(
    atoms,
    lambda kids: st.one_of(
        st.builds(lambda xs: Tup(tuple(xs)), st.lists(kids, max_size=3)),
        st.builds(Inj, st.integers(min_value=0, max_value=2), kids),
        st.builds(lambda kvs: FnTab(tuple(kvs)),
                  st.lists(st.tuples(kids, kids), max_size=2)),
    ),
    max_leaves=8,
)


@given(st.lists(elements, unique=True, max_size=8))
def test_finobj_order_is_the_key_order(xs):
    assert FinObj(xs).elements == tuple(sorted(xs, key=elem_key))


@given(st.lists(elements, min_size=1, max_size=6), st.data())
def test_finobj_rejects_any_duplicate(xs, data):
    extra = data.draw(st.sampled_from(xs))
    with pytest.raises(ValueError, match="duplicate element"):
        FinObj([*xs, extra])


@given(st.lists(elements, unique=True, max_size=8), elements)
def test_membership_agrees_with_the_element_tuple(xs, x):
    obj = FinObj(xs)
    assert (x in obj) == (x in obj.elements)
    assert all(e in obj for e in xs)
    assert obj.index == {e: k for k, e in enumerate(obj.elements)}


def test_map_value_outside_the_codomain_is_named():
    with pytest.raises(ValueError, match=r"map value v1 is outside the codomain"):
        fin_mor(flag_obj(2), flag_obj(1), lambda e: e)
    # The first value outside, in domain order, by its element repr.
    images = {Atom("v0"): Tup((Atom("v0"), Atom("v9"))), Atom("v1"): Atom("v7")}
    with pytest.raises(ValueError, match=r"^map value \(v0, v9\) is outside the codomain$"):
        fin_mor(flag_obj(2), flag_obj(1), images.__getitem__)
    with pytest.raises(ValueError, match=r"^map value v2 is outside the codomain$"):
        fin_mor(flag_obj(3), flag_obj(2), lambda e: e)


# -- hash-consing -----------------------------------------------------------


def test_products_and_coproducts_are_hash_consed():
    a, b = flag_obj(2), flag_obj(3)
    assert product([a, b]) is product([a, b])
    assert coproduct([a, b]) is coproduct([a, b])
    assert product([a, b]) is not product([b, a])


@given(sizes(), sizes())
def test_interned_objects_match_the_definitions(n, m):
    a, b = flag_obj(n), flag_obj(m)
    assert product([a, b]) == FinObj(Tup((x, y)) for x in a for y in b)
    assert coproduct([a, b]) == FinObj(
        [Inj(0, x) for x in a] + [Inj(1, y) for y in b])
    assert coproduct([]) == EMPTY
    # Equal but distinct factors are a different key with an equal value.
    assert product([flag_obj(n), flag_obj(m)]) == product([a, b])
    assert coproduct([flag_obj(n), flag_obj(m)]) == coproduct([a, b])


def test_an_interned_entry_dies_with_its_last_holder():
    a, b = flag_obj(2), flag_obj(3)
    key = ("product", id(a), id(b))
    p = product([a, b])
    assert _INTERNED[key]() is p
    del p
    gc.collect()
    assert key not in _INTERNED


# -- positional maps against their elementwise definitions -------------------

# Small flags, and products and coproducts of them nested up to two deep.
objects = st.recursive(
    st.integers(min_value=0, max_value=3).map(flag_obj),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(product),
        st.lists(kids, max_size=3).map(coproduct),
    ),
    max_leaves=4,
)
positional = settings(max_examples=60, deadline=None)


# -- carriers on demand -------------------------------------------------------


def _twin(z):
    """A carrier equal to z, of the same structure, from fresh objects."""
    if z.kind is None:
        return FinObj(z.elements)
    return (product if z.kind == "product" else coproduct)([_twin(p) for p in z._parts])


# Carriers of at most one element each, nested: many pairs of different
# structure have equal elements (every product with an empty factor, or
# coproducts that differ by an empty summand).
tiny = st.recursive(
    st.integers(min_value=0, max_value=1).map(flag_obj),
    lambda kids: st.one_of(st.lists(kids, max_size=3).map(product),
                           st.lists(kids, max_size=3).map(coproduct)),
    max_leaves=4,
)


@given(st.one_of(tiny, objects), st.one_of(tiny, objects))
@settings(max_examples=150, deadline=None)
def test_structured_equality_and_hash_agree_with_the_elements(x, y):
    padded = coproduct([_twin(x), flag_obj(0)])  # an empty summand more
    for left, right in ((x, y), (x, _twin(x)), (_twin(y), y), (coproduct([x]), padded)):
        unbuilt = [z for z in (left, right) if "elements" not in vars(z)]
        same = left == right
        if left.kind is not None and left.kind == right.kind \
                and len(left._parts) == len(right._parts):
            # Two carriers of one kind and arity compare without their elements.
            assert all("elements" not in vars(z) for z in unbuilt)
        assert same == (left.elements == right.elements)
        assert not same or hash(left) == hash(right)
    for z in (x, y):
        flat = FinObj(z.elements)
        assert flat == z and z == flat and hash(flat) == hash(z)
        assert len(z) == z.size == len(z.elements)


def draw_map(data, dom, cod):
    """A map dom -> cod with drawn images, built from a step function."""
    assume(len(cod) > 0 or len(dom) == 0)
    images = data.draw(st.lists(st.sampled_from(cod.elements) if len(cod) else st.nothing(),
                                min_size=len(dom), max_size=len(dom)))
    return fin_mor(dom, cod, dict(zip(dom.elements, images)).__getitem__)


def assert_defined_by(f, dom, cod, fn):
    """f is the map dom -> cod sending each e to fn(e), and its table
    view says so too."""
    assert f == fin_mor(dom, cod, fn)
    assert (f.dom, f.cod) == (dom, cod)
    assert f.table == {e: fn(e) for e in dom}
    assert all(f(e) == fn(e) for e in dom)


@positional
@given(objects)
def test_identity_is_elementwise(x):
    assert_defined_by(identity(x), x, x, lambda e: e)


@positional
@given(objects, objects, objects, st.data())
def test_compose_is_elementwise(x, y, z, data):
    g, f = draw_map(data, x, y), draw_map(data, y, z)
    assert_defined_by(compose(f, g), x, z, lambda e: f(g(e)))


@positional
@given(st.lists(objects, min_size=1, max_size=3), st.data())
def test_proj_is_elementwise(factors, data):
    k = data.draw(st.integers(min_value=0, max_value=len(factors) - 1))
    assert_defined_by(proj(factors, k), product(factors), factors[k],
                      lambda e: e.items[k])


@positional
@given(objects, st.lists(objects, min_size=1, max_size=3), st.data())
def test_pairing_is_elementwise(x, cods, data):
    fs = [draw_map(data, x, c) for c in cods]
    assert_defined_by(pairing(fs), x, product(cods),
                      lambda e: Tup(tuple(f(e) for f in fs)))


@positional
@given(st.lists(st.tuples(objects, objects), max_size=3), st.data())
def test_product_mor_is_elementwise(ends, data):
    fs = [draw_map(data, d, c) for d, c in ends]
    doms, cods = [d for d, _ in ends], [c for _, c in ends]
    assert_defined_by(product_mor(fs), product(doms), product(cods),
                      lambda e: Tup(tuple(f(x) for f, x in zip(fs, e.items))))


@positional
@given(st.lists(objects, min_size=1, max_size=3), st.data())
def test_inj_is_elementwise(summands, data):
    k = data.draw(st.integers(min_value=0, max_value=len(summands) - 1))
    assert_defined_by(inj(summands, k), summands[k], coproduct(summands),
                      lambda e: Inj(k, e))


@positional
@given(st.lists(objects, min_size=1, max_size=3), objects, st.data())
def test_copairing_is_elementwise(doms, y, data):
    fs = [draw_map(data, d, y) for d in doms]
    assert_defined_by(copairing(fs), coproduct(doms), y,
                      lambda e: fs[e.tag](e.value))


@positional
@given(st.lists(st.tuples(objects, objects), max_size=3), st.data())
def test_coproduct_mor_is_elementwise(ends, data):
    fs = [draw_map(data, d, c) for d, c in ends]
    doms, cods = [d for d, _ in ends], [c for _, c in ends]
    assert_defined_by(coproduct_mor(fs), coproduct(doms), coproduct(cods),
                      lambda e: Inj(e.tag, fs[e.tag](e.value)))


@positional
@given(objects, objects)
def test_enumerate_mors_lists_every_map_in_lexicographic_order(x, y):
    assume(len(y) ** len(x) <= 300)
    expected = [fin_mor(x, y, dict(zip(x.elements, outs)).__getitem__)
                for outs in iter_product(y.elements, repeat=len(x))]
    assert enumerate_mors(x, y) == expected


def test_positions_must_cover_the_domain_and_lie_in_the_codomain():
    a, b = flag_obj(3), flag_obj(2)
    assert FinMor(a, b, pos=(0, 1, 1)) == fin_mor(a, b, lambda e: Atom("v0" if e == Atom("v0") else "v1"))
    for bad in [(0, 1), (0, 1, 1, 0), ()]:
        with pytest.raises(ValueError, match="map positions must cover the domain exactly"):
            FinMor(a, b, pos=bad)
    for bad in [(0, 1, 2), (0, -1, 1)]:
        with pytest.raises(ValueError, match="is outside the codomain"):
            FinMor(a, b, pos=bad)
    with pytest.raises(ValueError, match="is outside the codomain"):
        FinMor(a, EMPTY, pos=(0, 0, 0))


# -- product and coproduct carriers come out in key order, unsorted ----------


def _assert_key_ordered(obj):
    keys = [elem_key(e) for e in obj.elements]
    assert list(obj.elements) == sorted(obj.elements, key=elem_key)
    assert all(a < b for a, b in zip(keys, keys[1:]))  # no duplicates


def test_product_of_every_shape_is_in_key_order():
    shapes = FinObj([Atom("b"), Inj(1, Atom("a")), Inj(0, Tup((Atom("c"),))),
                     Tup(()), Tup((Atom("a"), Atom("b"))),
                     FnTab(((Atom("a"), Atom("b")),)), FnTab(())])
    _assert_key_ordered(product([shapes, flag_obj(2), shapes]))
    _assert_key_ordered(coproduct([shapes, flag_obj(2), shapes]))
    assert len(product([shapes, EMPTY, shapes])) == 0


@given(st.lists(st.lists(elements, unique=True, max_size=4).map(FinObj), max_size=3))
def test_product_and_coproduct_carriers_are_in_key_order(factors):
    _assert_key_ordered(product(factors))
    _assert_key_ordered(coproduct(factors))
