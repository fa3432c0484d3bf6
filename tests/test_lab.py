import json
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

import toricmld as t
from toricmld import invariants, lab
from toricmld.errors import (
    BadParam,
    NotFullDimensional,
    NotQCartier,
    ParseError,
    SamplingExhausted,
    ValidationError,
)
from toricmld.lab import Classification, InstanceResult, instances_from_spec

from conftest import sampled_germs

F = Fraction


def test_family_examples():
    g = t.family("ex1", 7)
    assert g.dim == 2 and g.cone.rays == ((0, 1), (7, 1))
    g = t.family("ex3", 4)
    assert g.dim == 3 and (1, 1, 4) in g.cone.rays
    g = t.family("ex4", 3)
    assert g.dim == 3
    assert not g.lattice.is_standard
    assert g.lattice.covolume() == F(1, 3)


def test_family_bad_params():
    with pytest.raises(BadParam):
        t.family("ex1", 1)
    with pytest.raises(BadParam):
        t.family("ex4", 9)
    with pytest.raises(BadParam):
        t.family("nope", 3)


def test_check_instance_examples():
    inst = t.ConjectureInstance(t.family("ex1", 5), F(1, 2), F(1, 2))
    r = t.check_instance(inst)
    assert r.classification is Classification.SATISFIES
    assert (r.mld_value, r.window_count, r.pi1_order) == (1, 4, 5)
    # the mld must exceed epsilon: equal to it, it violates
    r = t.check_instance(t.ConjectureInstance(t.family("ex1", 5), F(1), F(1, 2)))
    assert (r.classification, r.hypothesis_mld_ok) == (Classification.VIOLATES_MLD, False)

    inst = t.ConjectureInstance(t.family("ex2", 8), F(1, 2), F(1, 2))
    r = t.check_instance(inst)
    assert r.classification is Classification.VIOLATES_MLD
    assert r.mld_value == F(1, 8)

    orthant = t.make_germ(t.make_cone(2, [(1, 0), (0, 1)]))
    r = t.check_instance(t.ConjectureInstance(orthant, F(1, 2), F(1, 2)))
    assert r.classification is Classification.SATISFIES
    assert (r.mld_value, r.window_count, r.pi1_order) == (2, 1, 1)


def test_check_instance_degenerate():
    cone = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    boundary = [F(1, 2) if r == (1, 0, 0) else F(0) for r in cone.rays]
    germ = t.make_germ(cone, boundary)
    r = t.check_instance(t.ConjectureInstance(germ, F(1, 2), F(1, 2)))
    assert r.classification is Classification.DEGENERATE
    assert r.diagnostic


def test_instance_validation():
    g = t.family("ex1", 3)
    with pytest.raises(ValidationError):
        t.ConjectureInstance(g, F(0), F(1, 2))
    with pytest.raises(ValidationError):
        t.ConjectureInstance(g, F(1, 2), F(1))


def test_ex2_family_pi1_and_satisfies():
    for n in range(2, 13):
        g = t.family("ex2", n)
        assert t.pi1_reg(g).order == 2 * n
        eps = t.mld(g).value / 2
        r = t.check_instance(t.ConjectureInstance(g, eps, F(1, 2)))
        assert r.classification is Classification.SATISFIES
        assert r.pi1_order == 2 * n


def test_sample_random_determinism():
    a = t.sample_random(2, 2, 5, seed=1)
    b = t.sample_random(2, 2, 5, seed=1)
    assert a == b
    c = t.sample_random(3, 4, 3, seed=7)
    assert c.dim == 3


def test_boundary_coin_reads_the_bit_random_compares():
    # the sampler's integer coin is random() < 0.5 on the same two 32-bit
    # words, so every seed keeps its germ and the streams stay aligned
    heads = 0
    for seed in range(3000):
        ints, floats = random.Random(seed), random.Random(seed)
        for _ in range(20):
            coin = not (ints.getrandbits(64) >> 31) & 1
            assert coin == (floats.random() < 0.5)
            heads += coin
        assert ints.getrandbits(32) == floats.getrandbits(32)
    assert 25_000 < heads < 35_000


def test_sample_random_tiny_bound_orders():
    # entries in {-1, 0, 1}: any 2-dim cone has |det| <= 2, so with an
    # empty boundary the group order is at most 2 (boundary coefficients
    # enlarge the orbifold lattice and can raise it)
    from toricmld.linalg import det

    for seed in range(30):
        g = t.sample_random(2, 2, 1, seed=seed)
        assert abs(int(det(g.cone.rays))) <= 2
        if all(b == 0 for b in g.boundary):
            assert t.pi1_reg(g).order <= 2


def test_sample_random_validation(monkeypatch):
    with pytest.raises(BadParam):
        t.sample_random(1, 2, 3, seed=0)
    with pytest.raises(BadParam):
        t.sample_random(2, 1, 3, seed=0)
    # a cap on max_rays, checked before the generator is seeded or drawn from
    monkeypatch.setattr(lab.random, "Random", None)
    for max_rays in (lab.MAX_SAMPLER_RAYS + 1, 10**9):
        with pytest.raises(BadParam, match=f"max_rays must be at most {lab.MAX_SAMPLER_RAYS}"):
            t.sample_random(3, max_rays, 3, seed=0)


def test_scan_ex1_cells():
    instances = [
        t.ConjectureInstance(t.family("ex1", n), F(1, 2), F(1, 2))
        for n in range(2, 13)
    ]
    report = t.scan(instances)
    assert report.degenerate == 0 and report.violates_mld == 0
    for n in range(2, 13):
        cell = report.cells[(2, n - 1, F(1, 2), F(1, 2))]
        assert cell.instances == 1
        assert cell.max_pi1 == n


def test_scan_ex4_cells():
    instances = [
        t.ConjectureInstance(t.family("ex4", n), F(1, 2), F(1, 2))
        for n in range(2, 7)
    ]
    report = t.scan(instances)
    for n in range(2, 7):
        cell = report.cells[(n, 1, F(1, 2), F(1, 2))]
        assert cell.max_pi1 == n


def test_scan_empty():
    report = t.scan([])
    assert report.cells == {}
    assert report.to_doc()["cells"] == []


def test_scan_order_insensitive():
    instances = [
        t.ConjectureInstance(t.family(name, p), F(1, 2), F(1, 2))
        for name in ("ex1", "ex3")
        for p in range(2, 8)
    ]
    doc_fwd = t.scan(instances).to_doc()
    doc_rev = t.scan(list(reversed(instances))).to_doc()
    blob = lambda d: json.dumps(d, sort_keys=True)
    assert blob(doc_fwd) == blob(doc_rev)


def test_instances_from_spec():
    spec = {
        "families": [{"name": "ex1", "param_range": [2, 4]}],
        "sampler": {"n": 2, "max_rays": 3, "coord_bound": 3, "count": 2, "seed": 5},
        "grid": [{"epsilon": "1/2", "delta": "1/2"}, {"epsilon": "1/4", "delta": "1/4"}],
    }
    instances = list(instances_from_spec(spec))
    assert len(instances) == (3 + 2) * 2
    assert {i.epsilon for i in instances} == {F(1, 2), F(1, 4)}


def _per_instance(inst):
    """The per-instance path: mld, then count_window(mld, mld + delta),
    then pi1_reg, each on its own."""
    try:
        m = t.mld(inst.germ)
    except (NotQCartier, NotFullDimensional) as exc:
        return InstanceResult(None, False, None, None, Classification.DEGENERATE, str(exc))
    wc = t.count_window(inst.germ, m.value, m.value + inst.delta)
    ok = m.value > inst.epsilon
    cls = Classification.SATISFIES if ok else Classification.VIOLATES_MLD
    return InstanceResult(m.value, ok, wc.count, t.pi1_reg(inst.germ).order, cls)


def _fold_per_instance(instances) -> t.ScanReport:
    """The report folded from ``_per_instance`` results, one instance at a time."""
    report = t.ScanReport(cells={})
    for inst in instances:
        lab._fold_run(report, inst.germ, [inst], _per_instance)
    return report


def test_check_instances_matches_per_instance_path(monkeypatch):
    germs = [
        t.family(name, p)
        for name, params in (("ex1", (2, 5, 30)), ("ex2", (2, 6)), ("ex3", (2, 5)), ("ex4", (2, 3, 5)))
        for p in params
    ]
    sampled = sampled_germs(2, 4, 4, 10, seed0=70_000) + sampled_germs(3, 5, 2, 10, seed0=71_000)
    assert any(any(b for b in g.boundary) for g in sampled)
    germs += sampled
    # the plane with a boundary: mld = L(ray sum), so every window reaches
    # past L(ray sum)
    germs.append(t.make_germ(t.make_cone(2, [(1, 0), (0, 1)]), [F(1, 2), F(0)]))
    fourray = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    germs.append(t.make_germ(fourray, [F(1, 2) if r == (1, 0, 0) else F(0) for r in fourray.rays]))
    grid = [(F(1, 2), F(1, 4)), (F(1, 3), F(1, 2)), (F(1, 2), F(3, 4)), (F(2), F(9, 10))]
    instances = [t.ConjectureInstance(g, eps, delta) for g in germs for eps, delta in grid]

    enumerations = []
    real_box_points, real_counter = invariants._box_points, invariants._plane_counter

    def box_points(rb):
        enumerations.append(rb)
        return real_box_points(rb)

    def counter(rb):
        enumerations.append(rb)
        return real_counter(rb)

    monkeypatch.setattr(invariants, "_box_points", box_points)
    monkeypatch.setattr(invariants, "_plane_counter", counter)
    fast = t.scan(instances).to_doc()
    monkeypatch.undo()

    # one box-point enumeration per germ of dimension 3 and up, and one
    # counter per plane germ; none for the degenerate germ
    assert len(enumerations) == len(set(germs)) - 1
    assert fast == _fold_per_instance(instances).to_doc()
    assert t.scan(reversed(instances)).to_doc() == fast
    assert [t.check_instance(inst) for inst in instances] == [_per_instance(inst) for inst in instances]


def _counting_germ_builds(monkeypatch) -> list:
    """Record every germ built by ``family`` or ``sample_random`` in ``lab``."""
    built = []
    for name in ("family", "sample_random"):
        def build(*args, _real=getattr(lab, name)):
            built.append(args)
            return _real(*args)

        monkeypatch.setattr(lab, name, build)
    return built


GRID = [{"epsilon": "1/2", "delta": "1/2"}]
SAMPLER = {"n": 2, "max_rays": 3, "coord_bound": 3, "count": 2, "seed": 5}


def test_instances_from_spec_builds_no_germ_before_it_is_reached(monkeypatch):
    built = _counting_germ_builds(monkeypatch)
    spec = {"families": [{"name": "ex1", "param_range": [2, 4]}], "sampler": SAMPLER, "grid": GRID}
    stream = instances_from_spec(spec)
    assert built == []
    first = next(stream)
    assert built == [("ex1", 2)] and first.germ == t.family("ex1", 2)
    assert len(list(stream)) == 4 and len(built) == 5


@pytest.mark.parametrize(
    "spec, error, message",
    [
        ({"families": [{"name": "ex1", "param_range": [2, 3]}],
          "grid": [{"epsilon": "1/2", "delta": "1/2"}, {"epsilon": "1/2", "delta": "3/2"}]},
         ValidationError, "delta must lie in"),
        # ex1 needs param >= 2, so building its germ would raise BadParam
        ({"families": [{"name": "ex1", "param_range": [1, 1]}],
          "grid": [{"epsilon": 0.1, "delta": "1/2"}]}, ParseError, r"grid\[0\]\.epsilon"),
        ({"families": [{"name": "ex1", "param_range": [1, 1]}], "grid": GRID,
          "sampler": {"n": 2}}, KeyError, "count"),
        ({"families": [{"name": "ex1", "param_range": [1, 1]}]}, KeyError, "grid"),
    ],
    ids=["bad-delta", "grid-parse", "missing-sampler-field", "missing-grid"],
)
def test_spec_errors_come_before_any_germ(monkeypatch, spec, error, message):
    built = _counting_germ_builds(monkeypatch)
    with pytest.raises(error, match=message):
        instances_from_spec(spec)
    assert built == []


LADDER = {"name": "ex1", "param_range": [2, 1500]}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"families": [{"name": "ex1", "param_range": [1, 1]}], "grid": GRID},
         "ex1 needs param >= 2, got 1"),
        ({"sampler": dict(SAMPLER, n=9), "grid": GRID}, "dimension 9 outside 2..5"),
        ({"families": [{"name": "ex1", "param_range": [2, 2000]}, {"name": "exx", "param_range": [2, 3]}],
          "grid": GRID}, "unknown family 'exx'"),
        ({"families": [LADDER], "sampler": dict(SAMPLER, n=9), "grid": GRID}, "dimension 9 outside 2..5"),
        ({"families": [LADDER, {"name": "ex4", "param_range": [2, 9]}], "grid": GRID},
         r"ex4 needs 2 <= param <= 8, got 9"),
        # an unknown name fails even when its range is empty
        ({"families": [{"name": "exx", "param_range": [3, 2]}], "grid": GRID}, "unknown family 'exx'"),
        ({"families": [{"name": ["ex1"], "param_range": [2, 2]}], "grid": GRID}, r"unknown family \['ex1'\]"),
        ({"sampler": dict(SAMPLER, max_rays=1), "grid": GRID}, "max_rays must be at least the dimension"),
        ({"sampler": dict(SAMPLER, max_rays=10**9), "grid": GRID}, "max_rays must be at most 32"),
        ({"sampler": dict(SAMPLER, coord_bound=0), "grid": GRID}, "coord_bound must be positive"),
    ],
    ids=["ex1-low", "sampler-n", "unknown-after-ladder", "sampler-after-ladder", "ex4-after-ladder",
         "unknown-empty-range", "unhashable-name", "sampler-max-rays", "sampler-max-rays-cap",
         "sampler-coord-bound"],
)
def test_germ_parameter_errors_come_before_any_germ(monkeypatch, spec, message):
    built = _counting_germ_builds(monkeypatch)
    with pytest.raises(BadParam, match=message):
        instances_from_spec(spec)
    assert built == []


@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4"])
def test_param_range_error_names_the_first_param_the_stream_would_fail_on(name):
    for lo in range(-1, 11):
        for hi in range(lo - 1, 12):
            first_bad = None
            for p in range(lo, hi + 1):
                try:
                    t.family(name, p)
                except BadParam as exc:
                    first_bad = str(exc)
                    break
            spec = {"families": [{"name": name, "param_range": [lo, hi]}], "grid": GRID}
            if first_bad is None:
                assert len(list(instances_from_spec(spec))) == max(0, hi - lo + 1)
            else:
                with pytest.raises(BadParam) as info:
                    instances_from_spec(spec)
                assert str(info.value) == first_bad


def test_empty_sampler_and_empty_ranges_build_nothing_and_check_no_limits():
    spec = {"families": [{"name": "ex4", "param_range": [12, 9]}],
            "sampler": dict(SAMPLER, count=0, n=9), "grid": GRID}
    assert list(instances_from_spec(spec)) == []


def test_scan_holds_one_germ_at_a_time():
    """While a germ is built, the scan holds at most the germ before it."""
    refs = []
    grid = [(F(1, 2), F(1, 2)), (F(1, 3), F(3, 4))]

    def stream():
        for p in range(2, 30):
            assert sum(ref() is not None for ref in refs) <= 1
            germ = t.family("ex3", p)
            refs.append(weakref.ref(germ))
            for eps, delta in grid:
                yield t.ConjectureInstance(germ, eps, delta)
            del germ

    report = t.scan(stream())
    assert sum(cell.instances for cell in report.cells.values()) == 28 * 2


def _scan_peak(count: int) -> int:
    spec = {
        "sampler": {"n": 2, "max_rays": 4, "coord_bound": 4, "count": count, "seed": 201},
        "grid": [{"epsilon": "1/2", "delta": "1/2"}, {"epsilon": "1/3", "delta": "3/4"},
                 {"epsilon": "1/4", "delta": "1/4"}],
    }
    tracemalloc.start()
    try:
        t.scan(instances_from_spec(spec))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_is_bounded_by_the_report():
    """A 16 times longer scan of the same sampler peaks within 0.5 MB of
    the short one: germs are dropped once they are folded."""
    small, large = _scan_peak(100), _scan_peak(1600)
    assert large - small < 500_000, (small, large)
