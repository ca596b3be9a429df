"""Every built-in block kernel against the stepping reference ``bowen_dist``.

Generated point sets check the kernel contract. The uncapped pair list
holds every pair exactly once, with its exact orbit distance. The pair list
of any cap holds every pair whose uncapped distance is below the cap
exactly once, bitwise equal to that distance, and any other pair it holds
reads that distance or at least the cap. Each system's evaluator, given
any index pairs, keeps those below the cap with the same bits. The tower
kernel is also held to a closed-form brute force, per step k, out to
windows of a million steps, where the stepping reference accumulates too
much rounding to serve.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyent import (
    ExpHeights,
    PowerHeights,
    SymbolicPoint,
    TowerPoint,
    bowen_dist,
    circle_rotation,
    full_shift,
    periodic_point,
    product_system,
    sturmian_point,
    sturmian_system,
    tower_system,
    verify_separated,
    verify_spanning,
)
from polyent import systems

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# grid angles put pairs exactly on dyadic thresholds such as 1/4, and
# twelfths put wrapped drifts of power:1 and power:2 exactly on 1/2
TWELFTHS = [j / 12 for j in range(12)]
ANGLES = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75] + TWELFTHS))
# caps past 1/3 take the towers' dense path, where wrapped drifts take the
# continued-fraction descent, and caps past 1 make the subshifts list pairs
# at coding distance 1
CAPS = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 3.0),
                 st.sampled_from([0.125, 0.25, float(np.nextafter(0.25, 1.0)), 1.0 / 3.0,
                                  float(np.nextafter(1.0 / 3.0, 1.0)), 0.5, 1.0,
                                  float(np.nextafter(1.0, 2.0)), math.inf]))


def _tower_points(fam):
    return st.builds(TowerPoint, ANGLES, st.integers(0, 6))


def _sturmian_points():
    base = sturmian_point(GOLDEN)
    return st.builds(base.shifted, st.integers(-300, 300))


@st.composite
def _shift_batches(draw, alphabet):
    # one periodic base per example with a few changed symbols per point, so
    # central blocks often agree and first differences land at any distance
    # up to the coding window
    pattern = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=5))
    defects = st.dictionaries(st.sampled_from(range(-80, 81)),
                              st.integers(1, alphabet - 1), max_size=2)

    def point(changes):
        # rules take index arrays: the scalar formula, applied elementwise
        return SymbolicPoint(
            np.vectorize(lambda k: (pattern[k % len(pattern)] + changes.get(k, 0)) % alphabet,
                         otypes=[np.int64]),
            0)

    batch = st.lists(defects.map(point), min_size=1, max_size=4)
    return draw(batch), draw(batch)


def _pair_batches(points):
    batch = st.lists(points, min_size=1, max_size=4)
    return st.tuples(batch, batch)


# float kernels step in closed form where the reference accumulates one
# rounding per step; coding-metric values are dyadic and must match exactly
FLOAT_TOL = 1e-12


def _towers(fam):
    return tower_system(fam), _pair_batches(_tower_points(fam)), FLOAT_TOL


KERNELS = {
    "rotation": (circle_rotation(0.37), _pair_batches(ANGLES), FLOAT_TOL),
    "tower-exp": _towers(ExpHeights()),
    "tower-power:1": _towers(PowerHeights(1)),
    "tower-power:2": _towers(PowerHeights(2)),
    "tower-power:1.5": _towers(PowerHeights(1.5)),
    "full-shift:2": (full_shift(2), _shift_batches(2), 0.0),
    "full-shift:3": (full_shift(3), _shift_batches(3), 0.0),
    "sturmian": (sturmian_system(GOLDEN), _pair_batches(_sturmian_points()), 0.0),
    "tower-x-tower": (
        product_system(tower_system(PowerHeights(2)), tower_system(ExpHeights())),
        _pair_batches(st.tuples(_tower_points(PowerHeights(2)),
                                _tower_points(ExpHeights()))),
        FLOAT_TOL),
    "tower-x-sturmian": (
        product_system(tower_system(PowerHeights(1)), sturmian_system(GOLDEN)),
        _pair_batches(st.tuples(_tower_points(PowerHeights(1)), _sturmian_points())),
        FLOAT_TOL),
    # the tower lists the pairs when it is the second factor too
    "sturmian-x-tower": (
        product_system(sturmian_system(GOLDEN), tower_system(PowerHeights(1))),
        _pair_batches(st.tuples(_sturmian_points(), _tower_points(PowerHeights(1)))),
        FLOAT_TOL),
}


def _listed(pairs, shape):
    """The pair list's flat positions, checking its shape and that no pair
    appears twice."""
    i, j, d = pairs
    assert i.shape == j.shape == d.shape and i.ndim == 1
    assert ((0 <= i) & (i < shape[0]) & (0 <= j) & (j < shape[1])).all()
    flat = i * shape[1] + j
    assert np.bincount(flat, minlength=shape[0] * shape[1]).max(initial=0) <= 1
    return flat


def _dense(system, a, b, n):
    """The uncapped pair list of two batches as a block, checking that it
    lists every pair exactly once."""
    pairs = system.orbit_pairs(a, b, n, math.inf)
    flat = _listed(pairs, (len(a), len(b)))
    assert flat.size == len(a) * len(b)
    dense = np.empty(flat.size)
    dense[flat] = pairs[2]
    return dense.reshape(len(a), len(b))


def _assert_pair_contract(pairs, dense, cap):
    """``orbit_pairs`` against the uncapped block of the same batches:
    every entry below cap listed once, bitwise equal, and every listed
    distance its entry's or at least cap."""
    flat = _listed(pairs, dense.shape)
    d, entry = pairs[2], dense.ravel()[flat]
    listed = np.zeros(dense.size, bool)
    listed[flat] = True
    assert listed[dense.ravel() < cap].all()
    same = d.view(np.uint64) == entry.view(np.uint64)
    assert (same | (d >= cap)).all()
    assert same[entry < cap].all()


@pytest.mark.parametrize("name", list(KERNELS))
def test_kernel_cap_contract(name):
    system, batches, tol = KERNELS[name]

    @PROPERTY
    @given(batches, st.integers(1, 24), CAPS)
    def check(pair, n, cap):
        pa, pb = pair
        a, b = system.pack(pa, n), system.pack(pb, n)
        dense = _dense(system, a, b, n)
        pairs = system.orbit_pairs(a, b, n, cap)
        _assert_pair_contract(pairs, dense, cap)
        got = dict(zip(_listed(pairs, dense.shape).tolist(), pairs[2].tolist()))
        for i, p in enumerate(pa):
            for j, q in enumerate(pb):
                true = bowen_dist(system, p, q, n)
                assert abs(dense[i, j] - true) <= tol
                d = got.get(i * len(pb) + j)
                if d is None:
                    assert true >= cap - tol
                elif true < cap:
                    assert abs(d - true) <= tol
                else:
                    assert cap - tol <= d <= true + tol

    check()


@pytest.mark.parametrize("name", list(KERNELS))
def test_evaluate_keeps_every_given_pair_below_cap(name):
    # an arbitrary index list, repeats included, and an empty one: every
    # pair below cap is kept, bitwise equal to its uncapped entry, and any
    # other kept pair reads at least cap
    system, batches, _ = KERNELS[name]

    @PROPERTY
    @given(batches, st.integers(1, 24), CAPS, st.data())
    def check(pair, n, cap, data):
        pa, pb = pair
        a, b = system.pack(pa, n), system.pack(pb, n)
        dense = _dense(system, a, b, n)
        drawn = data.draw(st.lists(st.tuples(st.integers(0, len(pa) - 1),
                                             st.integers(0, len(pb) - 1)), max_size=12))
        for ij in (drawn, []):
            i, j = np.array(ij, np.intp).reshape(-1, 2).T
            live, d = system.evaluate(a, b, i, j, n, cap)
            assert live.shape == d.shape and live.ndim == 1
            assert np.unique(live).size == live.size
            assert ((0 <= live) & (live < i.size)).all()
            entry = dense[i, j]
            kept = np.zeros(i.size, bool)
            kept[live] = True
            assert kept[entry < cap].all()
            below = entry[live] < cap
            assert (d[below].view(np.uint64) == entry[live][below].view(np.uint64)).all()
            assert (d[~below] >= cap).all()

    check()


# one short batch per kernel of the cap contract's list: a tower, and a
# product through its tower's kernel and its shift's evaluator
EMPTY_BATCH_POINTS = {
    "rotation": [0.1, 0.3, 0.35],
    "tower-power:2": [TowerPoint(0.1, 0), TowerPoint(0.15, 3), TowerPoint(0.2, 3)],
    "full-shift:2": [periodic_point((0, 1)), periodic_point((0, 1, 1)), periodic_point((1,))],
    "sturmian": [sturmian_point(GOLDEN).shifted(k) for k in (0, 1, 5)],
    "tower-x-sturmian": [(TowerPoint(0.1, 0), sturmian_point(GOLDEN)),
                         (TowerPoint(0.15, 3), sturmian_point(GOLDEN).shifted(2))],
}


@pytest.mark.parametrize("cap", [0.1, 0.5, math.inf])
@pytest.mark.parametrize("name", list(EMPTY_BATCH_POINTS))
def test_kernels_list_no_pair_of_an_empty_batch(name, cap):
    # the cap contract's strategies draw at least one point per batch; an
    # empty block takes the towers' dense path at every cap
    system = KERNELS[name][0]
    points = EMPTY_BATCH_POINTS[name]
    for n in (1, 2, 7):
        for pa, pb in ((points, []), ([], points), (points[:1], []), ([], points[:1]),
                       ([], [])):
            i, j, d = system.orbit_pairs(system.pack(pa, n), system.pack(pb, n), n, cap)
            assert i.shape == j.shape == d.shape == (0,)


# the cap contract's batches hold at most 4 points; the key join is held
# here to the broadcast compare on batches of up to 60 rows whose keys
# repeat in long runs: Sturmian shifts with repeated offsets, and shifts of
# one periodic pattern, whose keys repeat with its period (two-byte
# symbols on 300 letters)
JOIN_KINDS = {
    "sturmian": (sturmian_system(GOLDEN), sturmian_point(GOLDEN), 13),
    "periodic": (full_shift(2), periodic_point((0, 1, 1)), 9),
    "periodic-300": (full_shift(300), periodic_point((0, 299, 256, 1)), 9),
}
JOIN_SIZES = [(60, 60), (60, 13), (13, 60), (2, 2), (1, 60), (60, 1), (1, 1),
              (0, 60), (60, 0), (0, 0)]


@pytest.mark.parametrize("sizes", JOIN_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind", list(JOIN_KINDS))
def test_shift_key_join_lists_the_broadcast_pairs_once(kind, sizes):
    system, base, spread = JOIN_KINDS[kind]
    rng = np.random.default_rng(len(JOIN_SIZES) * sizes[0] + sizes[1])
    for n in (1, 3, 8):
        a, b = (system.pack([base.shifted(int(o)) for o in rng.integers(0, spread, size)], n)
                for size in sizes)
        ref = sorted(zip(*(k.tolist() for k in np.nonzero(a["key"][:, None] == b["key"][None, :]))))
        if sizes == (60, 60):
            # runs of equal keys longer than the cap contract's batches
            assert len(ref) > 4 * 60
        for cap in (1e-3, 0.25, 0.5, 1.0):
            i, j = system.candidates(a, b, n, cap)
            got = list(zip(i.tolist(), j.tolist()))
            assert len(set(got)) == len(got)
            assert sorted(got) == ref


@st.composite
def _deep_tower_blocks(draw):
    # deep levels crowd near height 0, where the height band is widest;
    # the b side repeats some a points and ends with pairs whose |dh| sits
    # on the band edge w and one ulp to either side, angled so their
    # iterates straddle one integer symmetrically
    fam = draw(st.sampled_from([PowerHeights(1), PowerHeights(2), ExpHeights()]))
    levels = st.one_of(st.just(0), st.integers(1, 3000), st.integers(2990, 3000))
    points = st.builds(TowerPoint, ANGLES, levels)
    pa = draw(st.lists(points, min_size=1, max_size=8))
    pb = draw(st.lists(st.one_of(points, st.sampled_from(pa)), min_size=1, max_size=8))
    n = draw(st.sampled_from([1, 2, 3, 500, 20000]))
    cap = draw(st.one_of(st.floats(0.0, 1.0 / 3.0, exclude_min=True),
                         st.sampled_from([1.0 / 3.0, 0.25, 0.1, 1e-3, 1e-9])))
    system = tower_system(fam)
    a, b = system.pack(pa, n), system.pack(pb, n)
    w = cap if n < 3 else 2.0 * cap / (n - 1)
    h = a["height"][0]
    edge = np.empty(6, b.dtype)
    for k, dh in enumerate((w, np.nextafter(w, 0.0), np.nextafter(w, 1.0))):
        drift = (n - 1) * dh / 2.0 % 1.0
        edge[2 * k] = (a["angle"][0] + drift) % 1.0, h - dh
        edge[2 * k + 1] = (a["angle"][0] - drift) % 1.0, h + dh
    return system, a, np.concatenate((b, edge)), n, cap


@PROPERTY
@given(_deep_tower_blocks())
def test_tower_height_band_keeps_every_entry_below_cap(block):
    system, a, b, n, cap = block
    _assert_pair_contract(system.orbit_pairs(a, b, n, cap), _dense(system, a, b, n), cap)


@pytest.mark.parametrize("rows", [1, 2])
def test_tower_kernel_past_a_third_keeps_pairs_outside_the_height_band(rows):
    # at cap 0.45 the angle-0 points on heights 0 and 1/5 lie 0.4 apart
    # over 40 steps, their iterates passing from 0 to 8; the height band's
    # rule would need (n-1)|dh| < 2 cap and drop the pair. Its drift wraps,
    # so the distance comes from the continued-fraction descent
    system = tower_system(PowerHeights(1))
    n, cap = 40, 0.45
    x, y = TowerPoint(0.0, 0), TowerPoint(0.0, 5)
    assert bowen_dist(system, x, y, n) == 0.4
    a, b = system.pack([x] * rows, n), system.pack([y], n)
    assert b["height"][0] == 0.2 > systems._band_width(n, cap)
    i, j, d = system.orbit_pairs(a, b, n, cap)
    assert (i.tolist(), j.tolist()) == (list(range(rows)), [0] * rows)
    assert d.tolist() == pytest.approx([0.4] * rows, abs=FLOAT_TOL)
    _assert_pair_contract((i, j, d), _dense(system, a, b, n), cap)


def test_tower_height_band_margin_covers_rounding():
    # |dh| one ulp past the band edge 2 cap / (n-1), angles centred on the
    # drift: rounding in the angle gap puts the exact kernel just below cap,
    # so the band margin must keep this pair
    system = tower_system(PowerHeights(2))
    n, cap = 500, 0.0021
    w = 2.0 * cap / (n - 1)
    a = system.pack([TowerPoint(0.5, 0)], n)
    b = np.array([(0.4979, np.nextafter(w, 1.0))], a.dtype)
    dense = _dense(system, a, b, n)
    assert b["height"][0] > w and dense[0, 0] < cap
    _assert_pair_contract(system.orbit_pairs(a, b, n, cap), dense, cap)


# angles the angle band must not lose: both ends of [0, 1] (TowerPoint
# maps -1e-300 to 1.0), pairs across the wrap, and grid ties
WRAP_ANGLES = [0.0, -1e-300, 0.01, 0.99, 0.5, 0.25, 0.75, 1e-17, 1.0 - 2 ** -53]


@st.composite
def _wide_tower_blocks(draw):
    # one side of the selection constant or the other, with few distinct
    # levels so most pairs share a height run; bulk points come from a
    # drawn seed, since hundreds of drawn points per example are too slow
    fam = draw(st.sampled_from([PowerHeights(1), PowerHeights(2), ExpHeights()]))
    rows, cols = draw(st.sampled_from([(1, 700), (700, 1), (40, 700), (700, 40),
                                       (600, 500), (500, 600), (1200, 300)]))
    pool = draw(st.lists(st.one_of(st.just(0), st.integers(1, 3000)),
                         min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = draw(st.integers(1, 40))

    def points(m):
        angles = np.where(rng.random(m) < 0.5, rng.integers(0, grid, m) / grid,
                          rng.choice(WRAP_ANGLES, m))
        angles = np.where(rng.random(m) < 0.3, rng.random(m), angles)
        return [TowerPoint(float(x), int(lv)) for x, lv in zip(angles, rng.choice(pool, m))]

    n = draw(st.sampled_from([2, 3, 500, 20000]))
    cap = draw(st.one_of(st.floats(0.0, 1.0 / 3.0, exclude_min=True),
                         st.sampled_from([1.0 / 3.0, 0.25, 0.1, 0.02, 1e-3])))
    system = tower_system(fam)
    return system, system.pack(points(rows), n), system.pack(points(cols), n), n, cap


@PROPERTY
@given(_wide_tower_blocks())
def test_tower_angle_band_keeps_every_entry_below_cap(block):
    system, a, b, n, cap = block
    _assert_pair_contract(system.orbit_pairs(a, b, n, cap), _dense(system, a, b, n), cap)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (3, 1)])
def test_tower_angle_band_margin_covers_rounding(rows, cols):
    # two base-circle points across the wrap whose angle gap rounds inward:
    # the exact kernel reads their distance just below cap, though the true
    # gap is past it, so the angle window needs its margin to keep the pair
    # whichever side is sorted; single rows take the row scan
    system = tower_system(PowerHeights(2))
    n, cap = 40, 0.1
    theta, phi = 0.05000000000000019, 0.9500000000000002
    assert 1.0 + (theta - phi) < cap < 1 - Fraction(phi) + Fraction(theta)
    a = system.pack([TowerPoint(theta, 0)] * rows, n)
    b = system.pack([TowerPoint(phi, 0)] * cols, n)
    dense = _dense(system, a, b, n)
    assert (dense < cap).all()
    _assert_pair_contract(system.orbit_pairs(a, b, n, cap), dense, cap)
    _assert_pair_contract(system.orbit_pairs(b, a, n, cap), _dense(system, b, a, n), cap)


@pytest.mark.parametrize("rows,cols", [(700, 400), (400, 700)])
@pytest.mark.parametrize("fam", [PowerHeights(1), ExpHeights()], ids=lambda f: f.label)
def test_tower_angle_band_keeps_band_edge_pairs(fam, rows, cols):
    # whichever side is longer gets sorted; b ends with points on the
    # widened band edge of some a rows and one ulp to either side, where a
    # band test rounded from the other side would lose a pair
    rng = np.random.default_rng(rows)
    system = tower_system(fam)
    levels = [0, 1, 2, 30, 31, 700, 701]

    def batch(m, n):
        pts = [TowerPoint(float(x), int(lv)) for x, lv in
               zip(np.where(rng.random(m) < 0.3, rng.choice(WRAP_ANGLES, m), rng.random(m)),
                   rng.choice(levels, m))]
        return system.pack(pts, n)

    for n, cap in ((2, 0.25), (40, 1.0 / 3.0), (500, 0.1), (20000, 0.05), (20000, 1e-4)):
        a, b = batch(rows, n), batch(cols, n)
        w = systems._band_width(n, cap)
        edge = [(x, h) for x, ha in a[:40].tolist() for e in (ha - w, ha + w)
                for h in (e, np.nextafter(e, -1.0), np.nextafter(e, 1.0))]
        b = np.concatenate((b, np.array(edge, b.dtype)))
        _assert_pair_contract(system.orbit_pairs(a, b, n, cap), _dense(system, a, b, n), cap)


@pytest.mark.parametrize("fam", [PowerHeights(1), ExpHeights()], ids=lambda f: f.label)
def test_tower_row_scan_matches_height_band_bitwise(fam):
    # a single row scans b for its height band where the angle band sorts
    # it by the same float test; the one evaluator reads either's
    # candidates, so they must list the same pairs with the same bits.
    # Blocks hold only the row's own level (every survivor takes the
    # zero-drift rule), only other levels (every survivor is drift-scanned),
    # or both. The other levels end with points on the row's widened band
    # edge and one ulp to either side, where a band test rounded
    # differently would disagree; deep exp levels lie within the band of
    # each other and of the base circle
    rng = np.random.default_rng(5)
    system = tower_system(fam)
    levels = [0, 1, 2, 30, 31, 700, 701]

    def angles(m):
        return np.where(rng.random(m) < 0.3, rng.choice(WRAP_ANGLES, m), rng.random(m))

    rows = [TowerPoint(float(x), int(lv)) for x, lv in zip(angles(12), rng.choice(levels, 12))]
    rows += [TowerPoint(x, lv) for x in (1.0, -1e-300, 0.5) for lv in (0, 31, 701)]
    mixed = 0
    for n in (2, 3, 500, 20000):
        for cap in (0.25, 0.1, 1e-4):
            w = systems._band_width(n, cap)
            for p in rows:
                row = system.pack([p], n)
                x, ha = row.tolist()[0]
                # at row angle 0, angle 8e-17 gives theta = -8e-17, whose
                # reduced angle 1 - 8e-17 rounds to 1 - 2^-53: its distance
                # 2^-53 exceeds the step-0 term
                own = [TowerPoint(y, p.level) for y in WRAP_ANGLES + [1.0, 8e-17, p.angle]]
                own += [TowerPoint(float(y), p.level) for y in angles(20)]
                other = [TowerPoint(float(y), int(lv)) for y, lv in
                         zip(angles(40), rng.choice([v for v in levels if v != p.level], 40))]
                edge = np.array([(x, h) for e in (ha - w, ha + w)
                                 for h in (e, np.nextafter(e, -1.0), np.nextafter(e, 1.0))],
                                row.dtype)
                blocks = {"same": system.pack(own, n),
                          "cross": np.concatenate((system.pack(other, n), edge))}
                blocks["mix"] = np.concatenate((blocks["cross"], blocks["same"]))
                for kind, block in blocks.items():
                    scan = system.orbit_pairs(row, block, n, cap)
                    ia, ib = systems._tower_angle_band(row, block, cap, w)
                    live, d = systems._tower_evaluate(row, block, ia, ib, n, cap)
                    band = ia[live], ib[live], d
                    order = [np.argsort(q[1], kind="stable") for q in (scan, band)]
                    for u, v in zip(scan, band):
                        assert u[order[0]].tobytes() == v[order[1]].tobytes()
                    _assert_pair_contract(scan, _dense(system, row, block, n), cap)
                    flat = block["height"][scan[1]] == ha
                    if kind == "same":
                        assert flat.all()
                    if kind == "cross":
                        assert not flat.any()
                    mixed += flat.any() and not flat.all()
    # some rows list survivors of both kinds
    assert mixed > 0


# windows out to 10^12 steps, where the band is 2e-13 wide for cap 0.1 and
# the margin must be derived from rounding rather than fixed
EDGE_WINDOWS = [2, 3, 4, 40, 10 ** 6, 10 ** 9, 10 ** 11, 10 ** 12]
EDGE_CAPS = st.one_of(st.floats(1e-6, systems._TOWER_BAND_CAP),
                      st.sampled_from([1e-4, 0.05, 0.1, 0.25, systems._TOWER_BAND_CAP]))


def _ulps(x, k):
    """x moved k ulps up (k < 0: down)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


@PROPERTY
@given(st.sampled_from(EDGE_WINDOWS), EDGE_CAPS, st.integers(0, 2 ** 32 - 1))
def test_tower_bands_keep_every_pair_below_cap_at_their_edges(n, cap, seed):
    # Rows at random and wrap angles and heights in [0, 1]. Each meets
    # columns whose height lies a few ulps either side of its band edge,
    # unwidened (min(cap, 2 cap/(n-1))) and widened (``_band_width``), at
    # the angle that centres the pair's drift on 0, so the pair reads just
    # below or just above cap; and columns on its own height whose angle
    # lies a few ulps either side of cap away, across the wrap too. The
    # row scan and the angle band, with either batch sorted, must list every
    # pair the dense path reads below cap, with the same bits.
    rng = np.random.default_rng(seed)
    system = tower_system(PowerHeights(1))
    dtype = system.pack([], n).dtype
    a = np.zeros(4, dtype)
    # angles within 2 cap of 0 put columns across the wrap, where the
    # rounding of a wrap image can move a window's end past a pair
    a["angle"] = rng.choice([rng.choice(WRAP_ANGLES) % 1.0, rng.random(), 2.0 * cap * rng.random(),
                             1.0 - 2.0 * cap * rng.random()], 4)
    a["height"] = rng.choice([0.0, 1.0, 0.5, 1e-3, rng.random()], 4)
    w0, w = min(cap, 2.0 * cap / (n - 1)), systems._band_width(n, cap)
    cols = []
    for theta, h in a.tolist():
        for edge in (h - w0, h + w0, h - w, h + w):
            for k in range(-3, 4):
                hb = _ulps(edge, k)
                if 0.0 <= hb <= 1.0:
                    cols.append(((theta + (n - 1) * (h - hb) / 2.0) % 1.0, hb))
        for side in (-cap, cap):
            cols += [(_ulps(theta + side, k) % 1.0, h) for k in range(-3, 4)]
    b = np.array(cols, dtype)
    for x, y in ((a, b), (b, a), (a[:1], b), (b[:3], a), (b[:1], a)):
        _assert_pair_contract(system.orbit_pairs(x, y, n, cap), _dense(system, x, y, n), cap)


def test_product_pairs_line_up_factor_lists_in_any_order():
    # the first factor's angle band lists its pairs in its own sort order,
    # and coarse grids on the base circle and one slow level put many pairs
    # below cap in both factors, so the second factor's evaluator must read
    # each listed pair at its own indices, whatever their order
    rng = np.random.default_rng(3)
    system = product_system(tower_system(PowerHeights(2)), tower_system(ExpHeights()))

    def points(m):
        return [(TowerPoint(rng.integers(0, 8) / 8, int(rng.choice([0, 20]))),
                 TowerPoint(rng.integers(0, 8) / 8, int(rng.choice([0, 20]))))
                for _ in range(m)]

    for n, cap in ((3, 0.25), (40, 0.2), (2, 0.13)):
        a, b = system.pack(points(30), n), system.pack(points(20), n)
        pairs = system.orbit_pairs(a, b, n, cap)
        assert pairs[0].size >= 20
        _assert_pair_contract(pairs, _dense(system, a, b, n), cap)


def test_covering_at_exact_cap_sees_distances_past_it():
    system = tower_system(PowerHeights(2))
    # step 0 sits exactly at 1/4 and the drift pushes the pair past it; a
    # kernel capped at 1/4 could only report the step-0 value
    p, q = TowerPoint(0.0, 0), TowerPoint(0.25, 3)
    assert bowen_dist(system, p, q, 4) > 0.25
    assert not verify_spanning(system, [p], [q], 4, 0.25).ok
    assert verify_separated(system, [p, q], 4, 0.25).ok


@PROPERTY
@given(_tower_points(PowerHeights(2)), _tower_points(PowerHeights(2)), st.integers(1, 24))
def test_verifiers_at_exact_cap_match_reference(p, q, n):
    system = tower_system(PowerHeights(2))
    eps = 0.25
    true = bowen_dist(system, p, q, n)
    if abs(true - eps) < 1e-12 and true != eps:
        return  # the reference and the kernel round differently here
    assert verify_separated(system, [p, q], n, eps).ok == (true >= eps)
    assert verify_spanning(system, [p], [q], n, eps).ok == (true <= eps)


@PROPERTY
@given(_tower_points(PowerHeights(2)), _tower_points(PowerHeights(2)), st.integers(1, 24),
       st.one_of(st.floats(0.25, 1.0, exclude_min=True), st.sampled_from(TWELFTHS[4:])))
def test_verifiers_above_a_quarter_match_reference(p, q, n, eps):
    # past 1/4: the height band up to 1/3, then the dense path, where
    # wrapped drifts decide the verdict, read by the descent
    system = tower_system(PowerHeights(2))
    true = bowen_dist(system, p, q, n)
    if abs(true - eps) < 1e-9:
        return  # a float tie: the reference and the kernel round differently
    assert verify_separated(system, [p, q], n, eps).ok == (true >= eps)
    assert verify_spanning(system, [p], [q], n, eps).ok == (true <= eps)


# ---------------------------------------------------------------------------
# tower drifts past a full turn, against closed forms

def _per_step(fam, pa, pb, n):
    """Tower orbit distances by a loop over the steps k, each iterate in
    closed form as angle + k * height mod 1, measured as ``circle_dist``
    measures arcs."""
    def axes(points):
        heights = [fam.height(p.level) if p.level else 0.0 for p in points]
        return np.array([p.angle for p in points]), np.array(heights)

    (xa, ha), (xb, hb) = axes(pa), axes(pb)
    xa, ha = xa[:, None], ha[:, None]
    best = np.abs(ha - hb)
    for k in range(n):
        d = np.abs((xa + k * ha) % 1.0 - (xb + k * hb) % 1.0)
        np.maximum(best, np.minimum(d, 1.0 - d), out=best)
    return best


@pytest.mark.parametrize("n", [16, 40])
@pytest.mark.parametrize("fam", [PowerHeights(1), PowerHeights(2)], ids=lambda f: f.label)
def test_tower_kernel_matches_a_per_step_loop_on_twelfths(fam, n):
    # twelfths on levels whose drifts are unit fractions: many pairs wrap,
    # and their orbits meet half-integers exactly or by a twelfth
    points = [TowerPoint(x, lv) for lv in range(7) for x in TWELFTHS]
    system = tower_system(fam)
    dense = _dense(system, system.pack(points, n), system.pack(points, n), n)
    assert np.abs(dense - _per_step(fam, points, points, n)).max() <= FLOAT_TOL


def test_tower_kernel_reads_a_wrapped_half_turn():
    # the orbit gap 1/6 - k/9 meets 1/2 at k = 6; a descent that follows
    # the orbit's crossings on one side only read 0.389 here
    system = tower_system(PowerHeights(2))
    a = system.pack([TowerPoint(1 / 12, 0)], 16)
    b = system.pack([TowerPoint(11 / 12, 3)], 16)
    assert _dense(system, a, b, 16)[0, 0] == pytest.approx(0.5, abs=FLOAT_TOL)


def _closed_form(theta, dh, n):
    """max(|dh|, max over k < n of ||theta + k delta||), delta = dh - rint(dh),
    over blocks of steps."""
    delta = (dh - np.rint(dh))[:, None]
    best = np.abs(dh)
    for lo in range(0, n, 1 << 14):
        u = theta[:, None] + np.arange(lo, min(n, lo + (1 << 14))) * delta
        np.maximum(best, np.abs(u - np.rint(u)).max(axis=1), out=best)
    return best


@pytest.mark.parametrize("n", [2, 3, 17, 1000, 10 ** 5, 10 ** 6])
def test_tower_kernel_matches_the_closed_form_out_to_a_million_steps(n):
    # height gaps: random, rationals p/q with small q, those rationals moved
    # by a few ulps or by far less than 1/n, and drifts on the wrap edge
    # (n - 1)|delta| = 1; angle gaps: random, twelfths and wrap angles
    rng = np.random.default_rng(n)
    q = rng.integers(1, 40, 48)
    rational = rng.integers(0, 40, 48) % q / q
    edge = 1.0 / max(n - 1, 1)
    dh = np.concatenate((
        rng.random(32), rational,
        rational[:16] + rng.integers(-4, 5, 16) * 2.0 ** -52,
        rational[16:32] + rng.uniform(-1e-3, 1e-3, 16) / n,
        [0.5, 1.0 / 3.0, 0.25, edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]))
    grid = np.array(WRAP_ANGLES + TWELFTHS)
    theta = np.where(rng.random(dh.size) < 0.5, rng.uniform(-1.0, 1.0, dh.size),
                     rng.choice(grid, dh.size) - rng.choice(grid, dh.size))
    batch = np.dtype([("angle", np.float64), ("height", np.float64)])
    a = np.array(list(zip(theta, dh)), batch)
    zero = np.zeros(1, batch)
    got = _dense(tower_system(PowerHeights(1)), a, zero, n)[:, 0]
    assert np.abs(got - _closed_form(theta, dh, n)).max() <= 1e-9
