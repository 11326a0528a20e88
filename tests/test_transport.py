import numpy as np
import pytest

from granular1d import (
    BlockPartition,
    OracleLimitError,
    ParticleSystem,
    build_particles,
    oracle_qp_projection,
    project_admissible,
    project_monotone,
    uniform_blocks,
    weighted_norm,
)
from granular1d import transport
from conftest import random_projection_instance


# ---------------------------------------------------------------- types


def test_particle_system_validation():
    ps = ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert ps.total_mass == pytest.approx(1.0)
    assert ps.n == 2
    with pytest.raises(ValueError):
        ParticleSystem(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        ParticleSystem(np.array([0.0]), np.array([0.5, 0.5]))
    assert ps.rho_star is None
    for bad in ([1.0], [1.0, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError):
            ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.5]), np.array(bad))
    with pytest.raises(TypeError):
        ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.5]), total_mass=1.0)
    star = np.array([1.0, 2.0])
    carried = ParticleSystem(np.array([0.0, 1.0]), np.array([0.5, 0.5]), star)
    star[0] = 5.0  # the system keeps its own copy
    assert carried.rho_star.tolist() == [1.0, 2.0]
    for frozen in (carried.rho_star, carried.packed):
        with pytest.raises(ValueError):
            frozen[0] = 0.0


def test_particle_system_rejects_decreasing_packed_map():
    # disparate masses whose packed map decreases by one rounding step
    # between the last two particles
    m = [0.7366296896391183, 2.7052781153323467e-15, 0.0060577826135551,
         0.39522003550412277, 4.726374099776117e-16, 1.1297420716733437e-16]
    pos = [-3.8643243051398204, -2.2065605349654436, -0.877923884371152,
           -0.7935785035176955, 1.0244212226829736, 1.4596746397753149]
    with pytest.raises(ValueError, match="packed"):
        ParticleSystem(np.array(pos), np.array(m))


def test_particle_system_rejects_packed_gaps_that_round_to_zero():
    # masses so small next to the center of mass that every packed gap
    # rounds to zero: the packed map must strictly increase
    with pytest.raises(ValueError, match="does not increase"):
        ParticleSystem(np.array([1 / 6, 0.5, 5 / 6]), np.full(3, 1.0e-300 / 3))


def test_particle_system_rejects_packed_gaps_within_the_gap_tolerance():
    # packed gaps of 1e-13 under a gap tolerance of 1e-12: the invariant
    # gate could not see one of them close, so the system is refused
    with pytest.raises(ValueError, match="does not increase"):
        build_particles(uniform_blocks([(0.0, 1.0)], 1.0e-11), 100)
    # packed gaps of 2e-12 clear it
    ps = build_particles(uniform_blocks([(0.0, 1.0)], 2.0e-10), 100)
    assert ps.packed_gaps.min() > transport.position_tol(ps.packed)


def test_block_partition_validation():
    bp = BlockPartition([0, 3], [1, 5], 7)
    assert bp.labels[3] == bp.labels[4] >= 0 and bp.labels[2] != bp.labels[3]
    assert list(bp.interior_cells) == [True, False, False, True, True, False]
    assert bp.labels.tolist() == [0, 0, -1, 1, 1, 1, -1]
    with pytest.raises(ValueError):
        BlockPartition([0], [0], 7)
    with pytest.raises(ValueError):
        BlockPartition([0, 2], [2, 4], 7)
    assert repr(bp) == "BlockPartition([0, 3], [1, 5], 7)"
    empty = BlockPartition([], [], 3)
    assert eval(repr(bp)) == bp and eval(repr(empty)) == empty
    assert len(bp) == 2 and len(empty) == 0 and empty.labels.tolist() == [-1, -1, -1]
    # the particle count is part of the partition
    assert BlockPartition([0, 3], [1, 5], 8) != bp and BlockPartition([], [], 4) != empty
    for a in (bp.lo, bp.hi, bp.labels, bp.interior_cells):
        assert not a.flags.writeable
    with pytest.raises(AttributeError):
        bp.lo = np.array([0])
    with pytest.raises(AttributeError):
        bp.labels = np.zeros(7, dtype=np.intp)
    # bounds outside the particles [0, n) are refused at construction
    for lo, hi, n in [([1], [5], 3), ([1], [3], 3), ([-1], [1], 3), ([0, 3], [1, 7], 7)]:
        with pytest.raises(ValueError, match="outside the particles"):
            BlockPartition(lo, hi, n)
    # a sequence of (lo, hi) pairs is 2-D bounds, refused rather than misread
    with pytest.raises(ValueError, match="1D"):
        BlockPartition([(0, 1)], [], 3)
    with pytest.raises(ValueError, match="equal-length"):
        BlockPartition([0, 3], [1], 7)


# ---------------------------------------------------------------- build_particles


def test_build_particles_uniform_block():
    ps = build_particles(uniform_blocks([(0.0, 1.0)]), 2)
    assert ps.positions == pytest.approx([0.25, 0.75])
    assert ps.masses == pytest.approx([0.5, 0.5])


def test_build_particles_two_blocks_fig_geometry(two_block_params):
    ps = two_block_params.build(2000)
    assert ps.n == 2000
    assert ps.masses == pytest.approx(np.full(2000, 1e-3))
    assert ps.total_mass == pytest.approx(2.0, rel=1e-12)
    # 1000 particles per block, spanning [a + m/2, b - m/2]
    left, right = ps.positions[:1000], ps.positions[1000:]
    assert np.all(left < -0.1024) and np.all(right > 0.1024)
    assert left[0] == pytest.approx(-1.1024 + 5e-4)
    assert left[-1] == pytest.approx(-0.1024 - 5e-4)
    assert right[0] == pytest.approx(0.1024 + 5e-4)
    # gap between blocks consistent with contact time t1 = 0.64 at alpha = 0.5
    gap = 0.1024 - (-0.1024)
    assert np.sqrt(gap / 0.5) == pytest.approx(0.64)


def test_build_particles_errors():
    with pytest.raises(ValueError):
        build_particles(uniform_blocks([(0.0, 1.0)]), 0)
    # counts that fail before anything is allocated: past the memory
    # there is, and past numpy's maximum array size
    for n in (10**18, 10**300):
        with pytest.raises(ValueError, match="n = 1e"):
            build_particles(uniform_blocks([(0.0, 1.0)]), n)
    # a height above the maximal density 1, however slightly
    with pytest.raises(ValueError, match="maximal density 1"):
        build_particles(uniform_blocks([(0.0, 1.0)], np.nextafter(1.0, 2.0)), 4)


# ---------------------------------------------------------------- packed map


@pytest.mark.parametrize("n", [1, 4])
def test_non_finite_packed_map_rejected(n):
    # the center of mass overflows, so the packed map is inf, or NaN
    # where its gaps are taken; one particle has no gap at all
    pos = np.linspace(0.0, 1e308, n + 2)[1:-1]
    with pytest.raises(ValueError, match="not finite"):
        ParticleSystem(pos, np.full(n, 1e308 / n))


def test_center_of_mass_of_opposite_overflows_rejected():
    # m_i x_i is -inf for one particle and inf for the other, a sum with
    # no value: the center of mass, and so the packed map, is not finite
    with pytest.raises(ValueError, match="not finite"):
        ParticleSystem(np.array([-1e307, 1e307]), np.array([100.0, 100.0]))
    # positions whose difference overflows are still in order, and the
    # order test, which compares neighbours, raises no warning on them
    with pytest.raises(ValueError, match="not finite"):
        ParticleSystem(np.array([-1e308, 1e308]), np.array([10.0, 10.0]))


def test_overflowing_total_mass_rejected():
    # the total mass and the cumulative masses overflow; the suite's
    # warning filter shows that only the ValueError escapes
    with pytest.raises(ValueError, match="not finite"):
        ParticleSystem(np.array([0.0, 1.0]), np.array([1e308, 1e308]))


def test_congested_transport_unit_block_is_fixed_point():
    ps = build_particles(uniform_blocks([(0.0, 1.0)]), 2)
    xt = ps.packed
    assert xt == pytest.approx([0.25, 0.75])


def test_congested_transport_two_far_particles():
    ps = ParticleSystem(np.array([-10.0, 10.0]), np.array([0.5, 0.5]))
    xt = ps.packed
    assert xt == pytest.approx([-0.25, 0.25])


def test_congested_transport_two_block_span(two_block_params):
    ps = two_block_params.build(2000)
    xt = ps.packed
    lo = xt[0] - ps.masses[0] / 2
    hi = xt[-1] + ps.masses[-1] / 2
    assert hi - lo == pytest.approx(ps.total_mass, rel=1e-12)
    assert (lo + hi) / 2 == pytest.approx(0.0, abs=1e-12)
    assert np.diff(xt) == pytest.approx(np.full(1999, 1e-3))


def test_congested_transport_gaps_and_translation():
    rng = np.random.default_rng(7)
    pos = np.sort(rng.normal(0, 3, 9))
    m = rng.uniform(0.1, 1.0, 9)
    ps = ParticleSystem(pos, m)
    xt = ps.packed
    assert np.diff(xt) == pytest.approx((m[:-1] + m[1:]) / 2, rel=1e-12)
    shifted = ParticleSystem(pos + 5.0, m).packed
    assert shifted == pytest.approx(xt + 5.0, rel=1e-12)


# ---------------------------------------------------------------- project_monotone


def test_project_monotone_identity_on_sorted():
    fit, blocks = project_monotone(np.array([1.0, 2.0, 3.0]), np.ones(3))
    assert fit == pytest.approx([1.0, 2.0, 3.0])
    assert len(blocks) == 0


def test_project_monotone_returns_a_plain_array():
    z = np.array([3.0])
    fit, blocks = project_monotone(z, np.ones(1))
    assert type(fit) is np.ndarray and fit.tolist() == [3.0] and len(blocks) == 0
    assert not np.shares_memory(fit, z)  # n = 1 is a copy, not the input
    fit, _ = project_monotone(np.array([2.0, 1.0, 3.0]), np.ones(3))
    assert type(fit) is np.ndarray and fit.dtype == float


def test_project_monotone_two_point_pool():
    # brute force: constrained min of (2-a)^2 + (1-b)^2 over a <= b sits at a = b = 1.5
    fit, blocks = project_monotone(np.array([2.0, 1.0]), np.ones(2))
    assert fit == pytest.approx([1.5, 1.5])
    assert blocks == BlockPartition([0], [1], 2)


def test_project_monotone_weighted_example():
    # enumeration over monotone partitions gives [5/3, 5/3, 2]
    fit, blocks = project_monotone(np.array([3.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
    assert fit == pytest.approx([5 / 3, 5 / 3, 2.0])
    assert blocks == BlockPartition([0], [1], 3)


def test_project_monotone_pools_exact_ties():
    fit, blocks = project_monotone(np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4))
    assert fit == pytest.approx([0.0, 0.0, 1.0, 1.0])
    assert blocks == BlockPartition([0, 2], [1, 3], 4)
    # a pooled mean that ties the next value pools with it too
    fit, blocks = project_monotone(np.array([2.0, 0.0, 1.0]), np.ones(3))
    assert fit.tolist() == [1.0, 1.0, 1.0]
    assert blocks == BlockPartition([0], [2], 3)


def test_project_monotone_errors():
    for bad in (np.nan, np.inf, -np.inf):
        for k in (0, 1):
            z = np.array([1.0, 0.0])
            z[k] = bad
            with pytest.raises(ValueError, match="non-finite"):
                project_monotone(z, np.ones(2))
    for bad in (np.nan, np.inf, 0.0, -1.0):
        for k in (0, 1):
            w = np.ones(2)
            w[k] = bad
            with pytest.raises(ValueError, match="weights"):
                project_monotone(np.array([1.0, 0.0]), w)
    with pytest.raises(ValueError):
        project_monotone(np.array([1.0, 0.0]), np.ones(3))
    with pytest.raises(ValueError):
        project_monotone(np.zeros(0), np.ones(0))


def test_project_monotone_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    flat = np.zeros(5)  # zero gaps: plain isotonic regression
    for _ in range(50):
        z = rng.normal(0, 1, 5)
        w = rng.uniform(0.1, 2.0, 5)
        fit, _ = project_monotone(z, w)
        ref = oracle_qp_projection(z, flat, w)
        assert fit == pytest.approx(ref, abs=1e-10)


def _stack_scan_reference(z, w):
    """The plain left-to-right pool-adjacent-violators stack scan over
    single particles (the earlier implementation), as a reference: the
    fit and the pooled groups of length >= 2."""
    starts, weights, means = [], [], []
    for i, (zi, wi) in enumerate(zip(z.tolist(), w.tolist())):
        starts.append(i)
        weights.append(wi)
        means.append(zi)
        while len(starts) > 1 and means[-2] >= means[-1]:
            w_top, m_top = weights.pop(), means.pop()
            starts.pop()
            w_new = weights[-1] + w_top
            if means[-1] != m_top:  # exact ties pool and keep their value
                means[-1] = (weights[-1] * means[-1] + w_top * m_top) / w_new
            weights[-1] = w_new
    bounds = np.append(starts, z.size)
    big = np.diff(bounds) >= 2
    blocks = BlockPartition(bounds[:-1][big], bounds[1:][big] - 1, z.size)
    return np.repeat(means, np.diff(bounds)), blocks


def _tie_heavy_instance(rng, n):
    """Small integer values and power-of-two weights: many exact ties in
    the input, and pooled means that land exactly on a neighbour's value."""
    z = rng.integers(-2, 3, n).astype(float)
    w = rng.choice([0.5, 1.0, 2.0], n)
    return z, w


def test_chain_pooling_agrees_with_oracle_on_ties():
    rng = np.random.default_rng(41)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        z, w = _tie_heavy_instance(rng, n)
        gaps = rng.uniform(0.0, 1.0, n - 1) * (rng.random(n - 1) > 0.5)
        xtil = np.concatenate([[0.0], np.cumsum(gaps)])
        x, _ = project_admissible(z, xtil, w)
        ref = oracle_qp_projection(z, xtil, w)
        assert x == pytest.approx(ref, abs=1e-10)
        scale = max(1.0, float(np.max(np.abs(x))))
        assert np.min(np.diff(x) - np.diff(xtil)) >= -1e-12 * scale


def assert_masks_of_bounds(blocks, n):
    """The labels and interior cells a partition holds are those that
    ``BlockPartition(lo, hi, n)`` makes from its bounds, with their dtype,
    read-only."""
    fresh = BlockPartition(blocks.lo, blocks.hi, n)
    for got, want in [(blocks.labels, fresh.labels), (blocks.interior_cells, fresh.interior_cells)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_projection_partition_carries_the_masks_of_its_bounds():
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        z, w = _tie_heavy_instance(rng, n) if rng.random() < 0.5 else (
            rng.normal(0.0, 1.0, n), rng.uniform(0.1, 2.0, n))
        fit, blocks = project_monotone(z, w)
        assert_masks_of_bounds(blocks, n)
        # a run's call, which hands over the cumulative weights, gives the same bits
        fit_run, blocks_run = project_monotone(z, w, cum_w=np.cumsum(w))
        assert fit_run.tobytes() == fit.tobytes() and blocks_run == blocks
        assert_masks_of_bounds(blocks_run, n)


@pytest.mark.parametrize("z, lo, hi", [
    ([1.0, 2.0, 3.0, 4.0], [], []),
    ([4.0, 3.0, 2.0, 1.0], [0], [3]),
    ([2.0, 1.0, 5.0, 6.0, 4.0], [0, 2], [1, 4]),
    ([3.0], [], []),
], ids=["empty", "one-block-over-all", "blocks-at-both-ends", "one-particle"])
def test_projection_partition_masks_at_the_edges(z, lo, hi):
    z = np.array(z)
    _, blocks = project_monotone(z, np.ones(z.size))
    assert blocks == BlockPartition(lo, hi, z.size)
    assert_masks_of_bounds(blocks, z.size)


def test_chain_pooling_agrees_with_stack_scan():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 400))
        z, w = _tie_heavy_instance(rng, n) if rng.random() < 0.5 else (
            rng.normal(0.0, 1.0, n) - rng.uniform(0.0, 0.05) * np.arange(n),
            rng.uniform(0.1, 2.0, n),
        )
        fit, blocks = project_monotone(z, w)
        ref, _ = _stack_scan_reference(z, w)
        scale = max(1.0, float(np.max(np.abs(z))))
        assert np.max(np.abs(fit - ref)) <= 1e-12 * scale
        assert np.all(np.diff(fit) >= 0)
        # pooled groups are exactly tied, and distinct groups are distinct values
        lab = blocks.labels
        inside = (lab[:-1] == lab[1:]) & (lab[1:] >= 0)
        assert np.all(np.diff(fit)[inside] == 0)
        assert np.all(np.diff(fit)[~inside] > 0)


def spy_local_pools(monkeypatch):
    """The number of violations each ``_pool_local`` call receives."""
    calls = []
    scan = transport._pool_local

    def spy(*args):
        calls.append(len(args[4]))
        return scan(*args)

    monkeypatch.setattr(transport, "_pool_local", spy)
    return calls


def test_staircase_drives_scan_fallback(monkeypatch):
    calls = spy_local_pools(monkeypatch)
    k = 10 * transport._CHAIN_ROUNDS
    z = np.append(np.arange(k, dtype=float), -float(k) ** 2)
    fit, blocks = project_monotone(z, np.ones(k + 1))
    assert calls == [1], "the staircase reaches the scan as its one violation"
    expected = (k * (k - 1) / 2 - k**2) / (k + 1)
    assert fit == pytest.approx(np.full(k + 1, expected), rel=1e-12)
    assert blocks == BlockPartition([0], [k], k + 1)


def _sparse_violations(rng, n, count):
    """A long increasing input with runs of exact ties and ``count``
    values dropped below their left neighbour (the violating pairs)."""
    z = np.repeat(np.cumsum(rng.uniform(0.5, 1.5, n)), rng.integers(1, 4, n))[:n]
    at = rng.choice(n - 1, count, replace=False) + 1
    z[at] -= rng.uniform(1.0, 40.0, count)
    return z, rng.uniform(0.5, 1.5, n)


def _check_against_stack_scan(z, w):
    n = z.size
    fit, blocks = project_monotone(z, w)
    ref, ref_blocks = _stack_scan_reference(z, w)
    scale = max(1.0, float(np.max(np.abs(z))))
    assert np.max(np.abs(fit - ref)) <= 1e-12 * scale
    assert blocks == ref_blocks
    assert np.all(np.diff(fit)[blocks.interior_cells] == 0)
    # a group no pool reached (one particle, or a run of exact ties in z)
    # keeps its value bit for bit
    kept = np.ones(n, dtype=bool)
    for lo, hi in zip(blocks.lo.tolist(), blocks.hi.tolist()):
        kept[lo : hi + 1] = np.all(z[lo : hi + 1] == z[lo])
    assert np.array_equal(fit[kept], z[kept])
    return blocks


def test_local_pooling_agrees_with_stack_scan_on_sparse_violations():
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(40, 600))
        _check_against_stack_scan(*_sparse_violations(rng, n, int(rng.integers(1, 31))))
    # more violations than the local finish takes: chain rounds run first
    z, w = _sparse_violations(rng, 4000, 2 * transport._LOCAL_POOLS)
    assert np.count_nonzero(np.diff(z) < 0) > transport._LOCAL_POOLS
    _check_against_stack_scan(z, w)
    # violations at index 0 and at n - 2
    z = np.arange(50.0)
    z[0], z[-1] = 3.5, 47.0
    blocks = _check_against_stack_scan(z, np.ones(50))
    assert blocks == BlockPartition([0, 48], [2, 49], 50)
    # the pool at 6 reaches left into the pool that ended at 3: one block
    z = np.array([0.0, 1.0, 5.0, 2.0, 3.0, 4.0, 9.0, -30.0, 10.0, 11.0])
    blocks = _check_against_stack_scan(z, np.ones(10))
    assert blocks == BlockPartition([0], [7], 10)
    # the pool at 1 takes in 2, 3 and 4 on its right, so the violation at
    # (3, 4) is swallowed before the scan reaches it
    z = np.array([0.0, 10.0, 1.0, 2.0, 1.5, 20.0, 21.0])
    blocks = _check_against_stack_scan(z, np.ones(7))
    assert blocks == BlockPartition([1], [4], 7)


def test_violations_past_the_chain_round_cap_go_to_the_local_scan(monkeypatch):
    # 100 staircases, each a ramp of 40 then a drop below it: a chain
    # round pools each drop with one more ramp value, so all 100
    # violations, more than the local finish takes, outlast the rounds
    calls = spy_local_pools(monkeypatch)
    z = np.concatenate([np.append(1000.0 * k + np.arange(40), 1000.0 * k - 500)
                        for k in range(100)])
    _check_against_stack_scan(z, np.ones(z.size))
    assert calls == [100] and calls[0] > transport._LOCAL_POOLS


def _random_partition(rng, n):
    los, his, i = [], [], int(rng.integers(0, 3))
    while i < n - 1:
        hi = min(n - 1, i + int(rng.integers(1, 5)))
        los.append(i)
        his.append(hi)
        i = hi + 1 + int(rng.integers(0, 3))
    return BlockPartition(los, his, n)


def test_partition_arrays_match_naive_definitions():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        bp = _random_partition(rng, n)
        pairs = list(zip(bp.lo.tolist(), bp.hi.tolist()))
        naive_labels = [next((k for k, (lo, hi) in enumerate(pairs) if lo <= i <= hi), -1)
                        for i in range(n)]
        assert bp.labels.tolist() == naive_labels
        naive_inside = [any(lo <= c < hi for lo, hi in pairs) for c in range(n - 1)]
        assert bp.interior_cells.tolist() == naive_inside
        # "one block holds particles i and j" read off the labels, either order
        for i in range(n):
            for j in range(n):
                same = bool(bp.labels[i] >= 0 and bp.labels[i] == bp.labels[j])
                assert same == any(lo <= min(i, j) and max(i, j) <= hi for lo, hi in pairs)
        a = rng.normal(0.0, 1.0, n)
        naive_sums = [a[lo : hi + 1].sum() for lo, hi in pairs]
        assert bp.sums(a) == pytest.approx(naive_sums, abs=1e-12)
        assert BlockPartition(bp.lo, bp.hi, n) == bp and eval(repr(bp)) == bp
        assert BlockPartition(bp.lo, bp.hi, n + 1) != bp
        if len(bp):  # the same blocks moved one particle past either end
            with pytest.raises(ValueError, match="outside the particles"):
                BlockPartition(bp.lo + (n - bp.hi[-1]), bp.hi + (n - bp.hi[-1]), n)
            with pytest.raises(ValueError, match="outside the particles"):
                BlockPartition(bp.lo - (bp.lo[0] + 1), bp.hi - (bp.lo[0] + 1), n)
    # edges: no block, one block over every particle, blocks touching 0 and n - 1
    for bp, labels in [
        (BlockPartition([], [], 4), [-1, -1, -1, -1]),
        (BlockPartition([0], [4], 5), [0, 0, 0, 0, 0]),
        (BlockPartition([0, 3], [1, 5], 6), [0, 0, -1, 1, 1, 1]),
        (BlockPartition([0, 2], [1, 3], 4), [0, 0, 1, 1]),
    ]:
        assert bp.labels.tolist() == labels
        lab = np.array(labels)
        assert bp.interior_cells.tolist() == ((lab[:-1] == lab[1:]) & (lab[1:] >= 0)).tolist()


# ---------------------------------------------------------------- project_admissible


def test_project_admissible_identity_when_feasible():
    xtil = np.array([0.0, 1.0, 2.0])
    z = np.array([0.0, 1.5, 3.5])  # gaps 1.5 >= 1 everywhere
    x, blocks = project_admissible(z, xtil, np.ones(3))
    assert x == pytest.approx(z)
    assert len(blocks) == 0


def test_project_admissible_two_particle_hand_check():
    xtil = np.array([-0.25, 0.25])
    w = np.array([0.5, 0.5])
    x, blocks = project_admissible(np.array([0.2, -0.2]), xtil, w)
    # inner isotonic of [0.45, -0.45] pools to [0, 0]
    assert x == pytest.approx([-0.25, 0.25])
    assert blocks == BlockPartition([0], [1], 2)


def test_project_admissible_matches_qp_oracle_small():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        ref = oracle_qp_projection(z, xtil, w)
        assert np.max(np.abs(x - ref)) < 1e-8


# ---------------------------------------------------------------- oracle


def test_oracle_returns_feasible_point_unchanged():
    xtil = np.array([0.0, 0.5, 1.0])
    z = np.array([0.0, 0.7, 1.9])
    assert oracle_qp_projection(z, xtil, np.ones(3)) == pytest.approx(z)


def test_oracle_two_point_pool():
    flat = np.zeros(2)
    assert oracle_qp_projection(np.array([2.0, 1.0]), flat, np.ones(2)) == pytest.approx([1.5, 1.5])


def test_oracle_size_limit():
    with pytest.raises(OracleLimitError):
        oracle_qp_projection(np.zeros(13), np.arange(13.0), np.ones(13))


# ---------------------------------------------------------------- invariants


def test_projection_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        again, blocks = project_admissible(x, xtil, w)
        assert again == pytest.approx(x, abs=1e-13)


def test_projection_contraction():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        z1, xtil, w = random_projection_instance(rng, n)
        z2 = z1 + rng.normal(0, 1.5, n)
        p1, _ = project_admissible(z1, xtil, w)
        p2, _ = project_admissible(z2, xtil, w)
        assert weighted_norm(p1 - p2, w) <= weighted_norm(z1 - z2, w) + 1e-12


def test_block_mean_preservation():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        z = rng.normal(0, 1, n)
        w = rng.uniform(0.1, 2.0, n)
        fit, blocks = project_monotone(z, w)
        for lo, hi in zip(blocks.lo.tolist(), blocks.hi.tolist()):
            sl = slice(lo, hi + 1)
            assert np.dot(w[sl], fit[sl] - z[sl]) == pytest.approx(0.0, abs=1e-12)


def test_feasibility_of_projection_output():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        z, xtil, w = random_projection_instance(rng, n)
        x, _ = project_admissible(z, xtil, w)
        scale = max(1.0, np.max(np.abs(x)))
        assert np.min(np.diff(x) - np.diff(xtil)) >= -1e-12 * scale


def test_grown_partition_matches_its_bounds():
    # a block grown over particles in no block has the labels and interior
    # cells that the constructor makes from the grown bounds, read-only, and
    # the partition it grew from is unchanged
    base = BlockPartition([2, 8], [4, 9], 12)
    grown = base.grown(0, 1, 6)
    want = BlockPartition([1, 8], [6, 9], 12)
    assert grown == want
    for name in ("lo", "hi", "labels", "interior_cells"):
        got = getattr(grown, name)
        assert np.array_equal(got, getattr(want, name)) and not got.flags.writeable, name
    assert np.array_equal(base.labels, BlockPartition([2, 8], [4, 9], 12).labels)
    assert np.array_equal(base.interior_cells, BlockPartition([2, 8], [4, 9], 12).interior_cells)
