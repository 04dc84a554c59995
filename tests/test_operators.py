import gc
from fractions import Fraction

import pytest

from proccat.finset import _INTERNED, Inj, Tup, UNIT_ELEM
from proccat.laws import poison
from proccat.operators import (
    MergeSpace,
    expand,
    expand_live,
    expand_step,
    expanded_space,
    join,
    join_live,
    join_step,
    joining_space,
)
from proccat.process import (
    LiveSpace,
    Ongoing,
    ProcSpace,
    StepSpace,
    Terminated,
    proc_map,
)
from proccat.temporal import (
    flag_temporal,
    mor_equal,
    naturality_witness,
    t_compose,
    t_identity,
    t_proj,
    unit_obj,
)
from proccat.times import TimeScale, UNBOUNDED

SCALE = TimeScale.of(0, 1, 2)
U = unit_obj(SCALE)
F = flag_temporal(SCALE)
I02 = SCALE.pair(0, 2)


def test_expand_forget_is_identity():
    sp = ProcSpace(UNBOUNDED, F, U)
    lv = LiveSpace(UNBOUNDED, F, U)
    forget = proc_map(expanded_space(sp), sp,
                      act=t_proj([F, lv.proc.obj], 0))
    roundtrip = t_compose(forget, expand(sp))
    assert mor_equal(roundtrip, t_identity(sp.obj))


def test_expand_attaches_each_suffix():
    sp = ProcSpace(UNBOUNDED, U, U)
    ex = expanded_space(sp)
    v = Terminated(Fraction(2), ((Fraction(1), UNIT_ELEM),), UNIT_ELEM)
    out = ex.decode(I02, expand(sp).at(I02)(sp.encode(I02, v)))
    assert isinstance(out, Terminated) and out.at_time == Fraction(2)
    (u, pair), = out.seen
    assert u == Fraction(1)
    inner = sp.decode(SCALE.pair(1, 2), pair.items[1])
    # the attached process is what remains after time 1
    assert inner == Terminated(Fraction(2), (), UNIT_ELEM)


def test_join_splices_a_handover():
    sp = ProcSpace(UNBOUNDED, U, U)
    js = joining_space(sp)
    tail = sp.encode(SCALE.pair(1, 2),
                     Terminated(Fraction(2), (), UNIT_ELEM))
    head = js.encode(
        I02,
        Terminated(Fraction(1), (),
                   Inj(1, Tup((UNIT_ELEM, tail)))),
    )
    out = sp.decode(I02, join(sp).at(I02)(head))
    assert out == Terminated(
        Fraction(2), ((Fraction(1), UNIT_ELEM),), UNIT_ELEM
    )


def test_join_keeps_finished_results():
    sp = ProcSpace(UNBOUNDED, U, U)
    js = joining_space(sp)
    done = js.encode(I02, Terminated(Fraction(1), (), Inj(0, UNIT_ELEM)))
    out = sp.decode(I02, join(sp).at(I02)(done))
    assert out == Terminated(Fraction(1), (), UNIT_ELEM)


def test_join_leaves_running_views_alone():
    sp = ProcSpace(UNBOUNDED, U, U)
    js = joining_space(sp)
    run = js.encode(I02, Ongoing(((Fraction(1), UNIT_ELEM),
                                  (Fraction(2), UNIT_ELEM))))
    out = sp.decode(I02, join(sp).at(I02)(run))
    assert isinstance(out, Ongoing)


def test_joined_carrier_sizes():
    # regression sizes from the counting oracle with step-sized results
    sp = ProcSpace(UNBOUNDED, U, U)
    js = joining_space(sp)
    assert [len(js.obj.at(i)) for i in SCALE.indices()] == [1, 3, 6, 1, 3, 1]


def test_operators_are_natural():
    for a, b, w in [(U, U, UNBOUNDED), (F, U, Fraction(1)),
                    (U, F, Fraction(2)), (F, F, UNBOUNDED)]:
        sp = ProcSpace(w, a, b)
        lv, st = LiveSpace(w, a, b), StepSpace(w, a, b)
        m = MergeSpace(sp, ProcSpace(UNBOUNDED, b, a))
        for mor in (expand(sp), expand_live(lv), expand_step(st),
                    join(sp), join_live(lv), join_step(st),
                    m.zip(), m.split()):
            assert naturality_witness(mor) is None


def test_expand_live_keeps_the_present_view():
    # the duplicated pair carries the original view as its first half
    lv = LiveSpace(UNBOUNDED, F, U)
    out = expand_live(lv)
    for i in SCALE.indices():
        for e in lv.obj.at(i).elements:
            assert out.at(i)(e).items[0] == e


def test_join_live_acts_only_on_the_process_half():
    lv = LiveSpace(UNBOUNDED, F, U)
    out = join_live(lv)
    src = LiveSpace(UNBOUNDED, F, joining_space(lv.proc).b)
    for e in src.obj.at(I02).elements:
        assert out.at(I02)(e).items[0] == e.items[0]


def test_merge_roundtrips_on_an_asymmetric_pair():
    left = ProcSpace(UNBOUNDED, F, U)
    right = ProcSpace(Fraction(2), U, F)
    m = MergeSpace(left, right)
    z, s = m.zip(), m.split()
    assert mor_equal(t_compose(s, z), t_identity(z.dom))
    assert mor_equal(t_compose(z, s), t_identity(z.cod))


def test_merge_projections_recover_each_side():
    left = ProcSpace(UNBOUNDED, U, U)
    right = ProcSpace(UNBOUNDED, U, U)
    m = MergeSpace(left, right)
    back = t_compose(m.split(), m.zip())
    for k in (0, 1):
        proj = t_proj([left.obj, right.obj], k)
        assert mor_equal(t_compose(proj, back), proj)


def test_merge_requires_one_scale():
    left = ProcSpace(UNBOUNDED, U, U)
    other = unit_obj(TimeScale.of(0, 1))
    right = ProcSpace(UNBOUNDED, other, other)
    with pytest.raises(ValueError):
        MergeSpace(left, right)


def test_merged_bound_is_the_meet():
    left = ProcSpace(Fraction(1), U, U)
    right = ProcSpace(UNBOUNDED, U, F)
    m = MergeSpace(left, right)
    assert m.merged.w == Fraction(1)


def test_a_space_shares_its_operator_maps_while_held():
    sp = ProcSpace(UNBOUNDED, F, U)
    held = expand(sp)
    assert expand(ProcSpace(sp.w, sp.a, sp.b)) is held
    key = ("expand", id(sp.obj))
    assert _INTERNED[key]() is held
    del held
    gc.collect()
    assert key not in _INTERNED


def test_poison_leaves_the_shared_map_alone():
    sp = ProcSpace(UNBOUNDED, F, F)
    shared = join(sp)
    before = {i: shared.at(i).pos for i in SCALE.indices()}
    broken = poison(join(sp))
    assert broken is not shared and not mor_equal(broken, shared)
    assert {i: join(sp).at(i).pos for i in SCALE.indices()} == before
