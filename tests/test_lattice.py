from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqft import lattice
from relqft.lattice import (
    BASE_FRAME_POINT,
    FramePoint,
    GroupElement,
    LatticePoint,
    ModelParams,
    act,
    act_point,
    causal_hull,
    causal_leq,
    centered_lift,
    compose,
    frame_to_group,
    inverse,
    region_spacelike,
    spacelike,
    spacelike_table,
    time_coordinate,
    transporter,
)

P5 = ModelParams(5, 2)


def elements(params):
    return st.builds(
        lambda u, v, k: GroupElement(LatticePoint(u, v),
                                     pow(params.s, k, params.N)),
        st.integers(0, params.N - 1), st.integers(0, params.N - 1),
        st.integers(0, len(params.boosts()) - 1))


def frame_points(params):
    return st.builds(
        lambda u, v, k: FramePoint(LatticePoint(u, v),
                                   pow(params.s, k, params.N)),
        st.integers(0, params.N - 1), st.integers(0, params.N - 1),
        st.integers(0, len(params.boosts()) - 1))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(4, 3)
    with pytest.raises(ValueError):
        ModelParams(9, 3)  # 3 is not a unit mod 9
    # the lifted chart is the one causal structure
    for mode in ("modular", "nonsense"):
        with pytest.raises(ValueError, match="causal_mode"):
            ModelParams(5, 2, causal_mode=mode)
    with pytest.raises(ValueError):
        ModelParams(5, 2, window=3)


def test_sizes():
    assert len(P5.lattice_points()) == 25
    assert P5.boosts() == (1, 2, 4, 3)
    assert len(P5.group_elements()) == 100
    assert len(P5.frame_points()) == 100
    assert len(ModelParams(3, 2).boosts()) == 2
    assert len(ModelParams(7, 2).boosts()) == 3
    assert len(ModelParams(9, 2).boosts()) == 6


def test_index_helpers_follow_point_order():
    points = P5.frame_points()
    assert [P5.frame_index(f) for f in points] == list(range(len(points)))
    sites = P5.lattice_points()
    assert [P5.site_index(x) for x in sites] == list(range(len(sites)))
    # sites first, fibers second: frame arrays reshape to (N^2, |C|)
    assert [P5.site_index(f.x) for f in points[::len(P5.boosts())]] == list(
        range(len(sites)))
    with pytest.raises(ValueError):
        P5.site_index((0, 5))


def test_group_law_worked_example():
    # (0,0; s^1) times (1,1; e): the boost acts first on the translation
    # part of the right factor, (1,1) -> (2, 3) since 2^{-1} = 3 mod 5
    g = GroupElement(LatticePoint(0, 0), 2)
    h = GroupElement(LatticePoint(1, 1), 1)
    assert compose(g, h, P5) == GroupElement(LatticePoint(2, 3), 2)
    assert act_point(g, LatticePoint(1, 1), P5) == LatticePoint(2, 3)


@settings(max_examples=60, deadline=None)
@given(elements(P5), elements(P5), elements(P5))
def test_group_axioms(g, h, k):
    assert compose(g, compose(h, k, P5), P5) == compose(compose(g, h, P5), k, P5)
    e = P5.identity
    assert compose(g, e, P5) == g
    assert compose(e, g, P5) == g
    assert compose(g, inverse(g, P5), P5) == e
    assert compose(inverse(g, P5), g, P5) == e


@settings(max_examples=60, deadline=None)
@given(elements(P5), elements(P5), frame_points(P5))
def test_action_is_action(g, h, f):
    assert act(g, act(h, f, P5), P5) == act(compose(g, h, P5), f, P5)
    assert act(P5.identity, f, P5) == f


@settings(max_examples=60, deadline=None)
@given(frame_points(P5), frame_points(P5))
def test_torsor_transporter(f1, f2):
    g = transporter(f1, f2, P5)
    assert act(g, f1, P5) == f2
    # freeness: the transporter is the unique solution
    assert compose(g, frame_to_group(f1), P5) == frame_to_group(f2)


def test_frame_group_bijection():
    seen = {frame_to_group(f) for f in P5.frame_points()}
    assert len(seen) == len(P5.group_elements())
    assert frame_to_group(FramePoint(*BASE_FRAME_POINT)) == P5.identity


def test_centered_lift():
    assert centered_lift(4, 5) == -1
    assert centered_lift(1, 5) == 1
    assert centered_lift(3, 5) == -2
    assert centered_lift(0, 5) == 0


def test_spacelike_worked_examples():
    # lifts: (1,4) -> (1,-1), mixed signs, spacelike
    assert spacelike(LatticePoint(1, 4), LatticePoint(0, 0), P5)
    # (1,1) is causally above the origin
    assert not spacelike(LatticePoint(1, 1), LatticePoint(0, 0), P5)
    assert not spacelike(LatticePoint(0, 0), LatticePoint(0, 0), P5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_spacelike_symmetric_irreflexive(u1, v1, u2, v2):
    x, y = LatticePoint(u1, v1), LatticePoint(u2, v2)
    assert spacelike(x, y, P5) == spacelike(y, x, P5)
    assert not spacelike(x, x, P5)


def moved_entries(params, g) -> int:
    """Entries of the spacelike table that the group element g changes:
    (x, y) against (g.x, g.y)."""
    table = spacelike_table(params)
    sites = lattice.site_action_table(params)[params.group_elements().index(g)]
    return int((table[np.ix_(sites, sites)] != table).sum())


def test_spacelike_table_is_translation_invariant_not_boost_invariant():
    for params in (P5, ModelParams(7, 2)):
        for a in params.lattice_points():
            assert moved_entries(params, GroupElement(a, 1)) == 0
    # at N = 5 the boosts by 2 and 3 each move 200 of the 625 entries, and
    # the boost by 4 = -1, (u, v) -> (-u, -v), moves none
    origin = LatticePoint(0, 0)
    assert [moved_entries(P5, GroupElement(origin, b))
            for b in P5.boosts()] == [0, 200, 0, 200]


def test_causal_hull_diamond():
    hull = causal_hull({LatticePoint(0, 0), LatticePoint(2, 2)}, P5)
    diamond = {LatticePoint(u, v) for u in range(3) for v in range(3)}
    assert hull == diamond
    # an achronal slice hulls to itself, not to the diamond
    slice_pts = {LatticePoint(0, 2), LatticePoint(1, 1), LatticePoint(2, 0)}
    assert causal_hull(slice_pts, P5) == slice_pts
    # slice plus tips recovers the diamond
    assert causal_hull(slice_pts | {LatticePoint(0, 0), LatticePoint(2, 2)},
                       P5) == diamond


def test_causal_hull_idempotent():
    region = {LatticePoint(0, 0), LatticePoint(1, 1), LatticePoint(1, 4)}
    hull = causal_hull(region, P5)
    assert causal_hull(hull, P5) == hull


def test_causal_leq_partial_order():
    window = [x for x in P5.lattice_points()
              if max(abs(centered_lift(x.u, 5)), abs(centered_lift(x.v, 5))) <= 2]
    for x in window:
        assert causal_leq(x, x, P5)
        for y in window:
            if causal_leq(x, y, P5) and causal_leq(y, x, P5):
                assert x == y


def test_region_spacelike():
    u = {LatticePoint(1, 4)}
    v = {LatticePoint(4, 1)}
    assert region_spacelike(u, v, P5)
    assert not region_spacelike(u, {LatticePoint(1, 1)} | v, P5)
    assert not region_spacelike(u, u, P5)


def test_time_coordinate_lifted():
    assert time_coordinate(LatticePoint(1, 1), P5) == 2
    assert time_coordinate(LatticePoint(0, 0), P5) == 0
    assert time_coordinate(LatticePoint(4, 4), P5) == -2


def test_window_violation():
    # a chart narrower than the lattice is refused before any hull
    with pytest.raises(ValueError, match="lifted chart"):
        ModelParams(5, 2, window=1)


def test_the_lifted_chart_covers_the_lattice():
    assert ModelParams(5, 2, "lifted", window=2) == P5
    assert [ModelParams(N, 1).window for N in (3, 5, 7, 9)] == [1, 2, 3, 4]
    for N, window in [(7, 2), (7, 4)]:
        with pytest.raises(ValueError):
            ModelParams(N, 1, window=window)


class WindowedHull:
    """The causal hull as it was computed inside a window w, point by
    point: the points of the diamond [-w, w]^2 of centered coordinates
    that lie above some point of U and below some point of U.  The future
    and the past of each diamond point are listed once."""

    def __init__(self, N: int, w: int):
        def lift(x):
            return centered_lift(x.u, N), centered_lift(x.v, N)

        def leq(x, y):
            (xu, xv), (yu, yv) = lift(x), lift(y)
            return yu - xu >= 0 and yv - xv >= 0

        self.diamond = [LatticePoint(lu % N, lv % N)
                        for lu in range(-w, w + 1) for lv in range(-w, w + 1)]
        self.future = {p: {y for y in self.diamond if leq(p, y)}
                       for p in self.diamond}
        self.past = {q: {y for y in self.diamond if leq(y, q)}
                     for q in self.diamond}

    def __call__(self, U) -> frozenset:
        # a point outside the window raises KeyError, as it was refused
        future = set().union(*(self.future[p] for p in U))
        past = set().union(*(self.past[q] for q in U))
        return frozenset(future & past)


@pytest.mark.parametrize("N", [5, 7])
def test_no_window_changes_a_hull(N):
    # every region of one to three sites inside any window hulls, inside
    # that window, to the hull on the whole lattice
    params = ModelParams(N, 1)
    checked = 0
    for w in range(1, (N - 1) // 2 + 1):
        windowed = WindowedHull(N, w)
        for k in (1, 2, 3):
            for region in combinations(windowed.diamond, k):
                assert causal_hull(region, params) == windowed(region), region
                checked += 1
    assert checked == {5: 129 + 2625, 7: 129 + 2625 + 19649}[N]


@pytest.mark.parametrize("N", [3, 5, 7], ids=lambda N: f"lifted-{N}")
def test_spacelike_table_is_the_scalar_rule(N):
    params = ModelParams(N, 1)
    points = params.lattice_points()
    table = spacelike_table(params)
    assert table.dtype == bool and table.shape == (N * N, N * N)
    assert table.tolist() == [[spacelike(x, y, params) for y in points]
                              for x in points]


def test_regions_are_reduced_points():
    with pytest.raises(ValueError, match="not reduced"):
        causal_hull({LatticePoint(-1, 0)}, P5)
    with pytest.raises(ValueError, match="not reduced"):
        region_spacelike({LatticePoint(5, 0)}, {LatticePoint(0, 1)}, P5)
