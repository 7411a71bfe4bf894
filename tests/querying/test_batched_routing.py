"""Batched routing and dependency oracles ≡ the per-query algorithm.

``PartitionedStore`` routes a whole batch through one ``(Q, P)`` box
lower-bound matrix: range scans run partition-major and are regrouped per
query, kNN visit orders come from one stable sort, and both dependency
oracles compare against the same matrix.  The oracles below are the
per-query loops those paths replaced, kept here as the reference: hits,
hit order, ``partitions_touched`` and dependency sets must match them
exactly on seeded two-tier stores — delta tails, empty partitions,
out-of-box appends, disks tangent to box edges, kNN ties, weights, a
scalar radius, an empty batch and a store with no partitions.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import BBox, Point
from repro.querying import PartitionedStore, grid_partition, kd_partition, skewed_points

REGION = BBox(0.0, 0.0, 1000.0, 1000.0)


# -- the per-query reference -------------------------------------------------------


def _view(store):
    return store._tiers.snapshot().view()


def ref_range(store, centers, radii):
    """Per query: overlap each scan box, then scan each chunk in order."""
    view = _view(store)
    hits, touched = [], 0
    for c, r in zip(centers, radii):
        found: list[int] = []
        lower = kernels.box_min_dists(view.boxes, c)
        for p in np.flatnonzero(lower <= r).tolist():
            touched += 1
            for coords, index in zip(view.coords_chunks[p], view.index_chunks[p]):
                found.extend(index[kernels.range_masks(coords, c[None, :], [r])[0]].tolist())
        hits.append(found)
    return hits, touched


def ref_knn(store, centers, k, weighted=False):
    """Per query: lexsort the bounds, scan best-first, prune by the k-th."""
    view = _view(store)
    weights = store._weight_chunks(store._tiers.snapshot()) if weighted else None
    out, touched = [], 0
    for c in centers:
        lower = kernels.box_min_dists(view.boxes, c)
        order = np.lexsort((np.arange(view.n_partitions), lower))
        d_parts, id_parts, total, kth = [], [], 0, np.inf
        for p in order.tolist():
            if total >= k and lower[p] > kth:
                break
            touched += 1
            for ci, (coords, index) in enumerate(
                zip(view.coords_chunks[p], view.index_chunks[p])
            ):
                d = kernels.dists_to(coords, c)
                if weights is not None:
                    d = d / weights[p][ci]
                d_parts.append(d)
                id_parts.append(index)
                total += coords.shape[0]
            if total >= k:
                kth = float(np.partition(np.concatenate(d_parts), k - 1)[k - 1])
        sel = (
            kernels.knn_select(np.concatenate(d_parts), np.concatenate(id_parts), k).tolist()
            if total
            else []
        )
        out.append(sel)
    return out, touched


def ref_range_sets(store, centers, radii):
    boxes = store._tiers.snapshot().boxes
    return [
        tuple(int(p) for p in np.flatnonzero(kernels.box_min_dists(boxes, c) <= r))
        for c, r in zip(centers, radii)
    ]


def ref_knn_sets(store, centers, hits, k, append_only=True, weighted=False):
    boxes = store._tiers.snapshot().boxes
    n_parts = boxes.shape[0]
    w = store.quality_weights() if weighted else None
    out = []
    for c, ids in zip(centers, hits):
        if not ids or (k is not None and len(ids) < k):
            out.append(tuple(range(n_parts)))
            continue
        dists = kernels.dists_to(kernels.coords_of([store.points[i] for i in ids]), c)
        if w is not None:
            id_arr = np.asarray(ids, dtype=np.int64)
            known = id_arr < w.shape[0]
            scale = np.ones(id_arr.shape[0])
            scale[known] = w[id_arr[known]]
            dists = dists / scale
        kth = float(dists.max())
        lower = kernels.box_min_dists(boxes, c)
        overlap = lower < kth if append_only else lower <= kth
        out.append(tuple(int(p) for p in np.flatnonzero(overlap)))
    return out


# -- stores and queries ------------------------------------------------------------


def two_tier_store(seed, n=700, n_parts=16, appends=120, spread=0.0):
    """kd store with delta tails; ``spread`` > 0 appends outside the region."""
    rng = np.random.default_rng(seed)
    pts = skewed_points(rng, n, REGION, n_hotspots=3, hotspot_sigma=40.0)
    store = PartitionedStore(pts, kd_partition(pts, REGION, n_parts))
    xy = rng.uniform(-spread, 1000.0 + spread, size=(appends, 2))
    store.append_many([Point(float(x), float(y)) for x, y in xy])
    # Fold some tails so base-only, delta-only and mixed partitions coexist.
    store.compact(partition_ids=range(0, n_parts, 3))
    return store


def sparse_grid_store(seed):
    """5x5 grid with points in one corner: most partitions stay empty."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 300.0, size=(150, 2))
    pts = [Point(float(x), float(y)) for x, y in xy]
    store = PartitionedStore(pts, grid_partition(pts, REGION, 5))
    store.append_many([Point(float(x), float(y)) for x, y in rng.uniform(0, 250, (30, 2))])
    return store


def query_centers(seed, n=40, lo=-100.0, hi=1100.0):
    rng = np.random.default_rng(seed + 1)
    return [Point(float(x), float(y)) for x, y in rng.uniform(lo, hi, size=(n, 2))]


def as_array(centers):
    return kernels.centers_of(centers)


def check_range(store, centers, radii):
    c = as_array(centers)
    r = np.broadcast_to(np.asarray(radii, dtype=float), (c.shape[0],))
    want_hits, want_touched = ref_range(store, c, r)
    before = store.partitions_touched
    assert store.range_query_many(centers, radii) == want_hits
    assert store.partitions_touched - before == want_touched
    assert store.range_partition_sets(centers, radii) == ref_range_sets(store, c, r)


def check_knn(store, centers, k, weighted=False):
    c = as_array(centers)
    want_hits, want_touched = ref_knn(store, c, k, weighted)
    before = store.partitions_touched
    hits = store.knn_many(centers, k, weighted=weighted)
    assert hits == want_hits
    assert store.partitions_touched - before == want_touched
    for append_only in (True, False):
        got = store.knn_partition_sets(
            centers, hits, k, append_only=append_only, weighted=weighted
        )
        assert got == ref_knn_sets(store, c, hits, k, append_only, weighted)


# -- the suite ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestTwoTierStores:
    def test_range_with_delta_tails(self, seed):
        store = two_tier_store(seed)
        rng = np.random.default_rng(seed)
        check_range(store, query_centers(seed), rng.uniform(5.0, 120.0, size=40))

    def test_knn_with_delta_tails(self, seed):
        store = two_tier_store(seed)
        for k in (1, 5, 40):
            check_knn(store, query_centers(seed), k)

    def test_out_of_box_appends_grow_scan_boxes(self, seed):
        store = two_tier_store(seed, spread=400.0)
        grown = store._tiers.snapshot().boxes
        assert (grown != store.partition_boxes).any()
        centers = query_centers(seed, lo=-500.0, hi=1500.0)
        rng = np.random.default_rng(seed)
        check_range(store, centers, rng.uniform(5.0, 200.0, size=40))
        check_knn(store, centers, 6)

    def test_empty_partitions(self, seed):
        store = sparse_grid_store(seed)
        assert 0 in [len(p.point_indices) for p in store.partitions]
        centers = query_centers(seed)
        check_range(store, centers, np.full(40, 150.0))
        check_knn(store, centers, 4)

    def test_weighted(self, seed):
        store = two_tier_store(seed)
        rng = np.random.default_rng(seed)
        # Shorter than the store: appended points default to weight 1.0.
        store.set_quality_weights(rng.uniform(0.2, 1.0, size=len(store.points) - 50))
        check_knn(store, query_centers(seed), 7, weighted=True)
        check_knn(store, query_centers(seed), 7, weighted=False)

    def test_scalar_radius(self, seed):
        store = two_tier_store(seed)
        check_range(store, query_centers(seed), 60.0)

    def test_short_answers_depend_on_every_partition(self, seed):
        store = sparse_grid_store(seed)
        centers = query_centers(seed, n=5)
        check_knn(store, centers, len(store.points) + 3)


class TestEdgeCases:
    def test_disk_tangent_to_box_edges(self):
        """``lower == radius`` counts as overlap: the disk touches the edge."""
        pts = [Point(float(x), float(y)) for x in range(0, 1000, 50) for y in range(0, 1000, 50)]
        store = PartitionedStore(pts, grid_partition(pts, REGION, 4))  # 250 m cells
        # Centers 10 m left of / below cell edges (exact in binary), radius 10.
        centers = [Point(240.0, 100.0), Point(490.0, 490.0), Point(600.0, 740.0)]
        assert (kernels.box_min_dists_many(store.partition_boxes, as_array(centers)) == 10.0).any()
        check_range(store, centers, [10.0, 10.0, 10.0])
        check_range(store, centers, np.nextafter(10.0, 0.0))

    def test_knn_ties_at_kth_and_bound_equal_to_kth(self):
        """Tied k-th neighbours and a box exactly at the k-th distance."""
        pts = [Point(400.0, 500.0), Point(400.0, 500.0), Point(400.0, 520.0),
               Point(380.0, 500.0), Point(420.0, 500.0), Point(700.0, 500.0)]
        # The median split puts x <= 400 left and the rest right.
        store = PartitionedStore(pts, kd_partition(pts, REGION, 2))
        # From (400, 500) three points tie at the k=3 distance (20); from
        # (440, 500) and (480, 500) the k=3 distance equals the left box's
        # lower bound (40 and 80).
        centers = [Point(400.0, 500.0), Point(480.0, 500.0), Point(440.0, 500.0)]
        bounds = kernels.box_min_dists_many(store._tiers.snapshot().boxes, as_array(centers))
        for k in (1, 2, 3, 4, 6):
            check_knn(store, centers, k)
        hits = store.knn_many(centers, 3)
        tight = store.knn_partition_sets(centers, hits, 3)
        loose = store.knn_partition_sets(centers, hits, 3, append_only=False)
        kth = [
            max(float(np.hypot(pts[i].x - c.x, pts[i].y - c.y)) for i in ids)
            for c, ids in zip(centers, hits)
        ]
        edge = [qi for qi in range(3) if (bounds[qi] == kth[qi]).any()]
        assert edge, "fixture lost its lower == kth case"
        for qi in edge:
            assert len(loose[qi]) > len(tight[qi])

    def test_empty_batch(self):
        store = two_tier_store(4)
        before = store.partitions_touched
        assert store.range_query_many([], []) == []
        assert store.range_query_many(np.zeros((0, 2)), 5.0) == []
        assert store.knn_many([], 3) == []
        assert store.range_partition_sets([], []) == []
        assert store.knn_partition_sets([], [], 3) == []
        assert store.partitions_touched == before

    def test_store_with_no_partitions(self):
        store = PartitionedStore([], [])
        centers = query_centers(5, n=4)
        assert store.range_query_many(centers, 50.0) == [[], [], [], []]
        assert store.knn_many(centers, 2) == [[], [], [], []]
        assert store.range_partition_sets(centers, 50.0) == [(), (), (), ()]
        hits = [[], [], [], []]
        assert store.knn_partition_sets(centers, hits, 2) == [(), (), (), ()]
        assert store.partitions_touched == 0

    def test_array_centers_match_point_centers(self):
        store = two_tier_store(6)
        centers = query_centers(6)
        arr = as_array(centers)
        assert store.range_query_many(arr, 40.0) == store.range_query_many(centers, 40.0)
        assert store.knn_many(arr, 5) == store.knn_many(centers, 5)
        assert kernels.centers_of(arr) is arr
