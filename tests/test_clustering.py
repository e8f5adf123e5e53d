import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cluster_mlp import clustering
from cluster_mlp.clustering import (
    Algorithm,
    ClusteringError,
    ClusteringResult,
    DbscanConfig,
    MeanShiftConfig,
    XMeansConfig,
    bic_score,
    dbscan,
    kmeans,
    lloyd,
    meanshift,
    xmeans,
)
from cluster_mlp.dataset import synth_blobs


def brute_force_dbscan(points, eps, min_pts):
    """Independent oracle: core points from the eps-graph, clusters as the
    transitive closure of core-core adjacency, border points attached to
    the lowest-indexed reachable core's cluster in visit order."""
    n = len(points)
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    adj = d <= eps
    core = adj.sum(axis=1) >= min_pts

    labels = np.full(n, -1)
    k = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        # flood over density-connected cores, exactly as reachability defines
        comp = {i}
        frontier = [i]
        while frontier:
            u = frontier.pop()
            for v in range(n):
                if core[v] and adj[u][v] and v not in comp:
                    comp.add(v)
                    frontier.append(v)
        for u in sorted(comp):
            labels[u] = k
        # border points: non-core within eps of any core in this component
        for v in range(n):
            if labels[v] == -1 and any(adj[u][v] for u in comp):
                labels[v] = k
        k += 1
    return labels, k


def partitions_equal(a, b):
    """Label vectors describe the same partition up to renaming; noise (-1)
    must match exactly."""
    a, b = np.asarray(a), np.asarray(b)
    if not np.array_equal(a == -1, b == -1):
        return False
    mapping = {}
    for x, y in zip(a, b):
        if x == -1:
            continue
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def seed_dbscan(points, eps, min_pts):
    """Bit-level oracle: the original all-pairs DBSCAN, an (n, n, d)
    difference array and a Python frontier list. Returns (labels, reps, k)."""
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    neighbors = [np.flatnonzero(d2[i] <= eps**2) for i in range(n)]
    is_core = np.array([len(nb) >= min_pts for nb in neighbors])

    labels = np.full(n, -1, dtype=int)
    k = 0
    for i in range(n):
        if labels[i] != -1 or not is_core[i]:
            continue
        labels[i] = k
        frontier = list(neighbors[i])
        pos = 0
        while pos < len(frontier):
            j = frontier[pos]
            pos += 1
            if labels[j] == -1:
                labels[j] = k
                if is_core[j]:
                    frontier.extend(neighbors[j])
        k += 1

    if k > 0:
        reps = np.array([points[labels == j].mean(axis=0) for j in range(k)])
    else:
        reps = np.empty((0, points.shape[1]))
    return labels, reps, k


def seed_lloyd(points, init_centroids, max_iter, tol):
    """Bit-level oracle: Lloyd as first written, with an argmin over every
    centroid and the per-point terms computed on each call."""
    centroids = np.array(init_centroids, dtype=float)
    n, d = points.shape
    k = centroids.shape[0]
    history = []
    labels = np.zeros(n, dtype=int)
    points_sq = (points * points).sum(axis=1)
    columns = np.ascontiguousarray(points.T)
    rows = np.arange(n)

    def assign(cents):
        partial = (cents * cents).sum(axis=1)[None, :] - 2.0 * (points @ cents.T)
        lab = partial.argmin(axis=1)
        point_d2 = np.maximum(points_sq + partial[rows, lab], 0.0)
        counts = np.bincount(lab, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(point_d2.argmax())
            cents[j] = points[far]
            lab[far] = j
            point_d2[far] = 0.0
            counts = np.bincount(lab, minlength=k)
        return lab, point_d2, counts

    for _ in range(max_iter):
        labels, point_d2, counts = assign(centroids)
        history.append(float(point_d2.sum()))
        sums = np.empty_like(centroids)
        for j in range(d):
            sums[:, j] = np.bincount(labels, weights=columns[j], minlength=k)
        new_centroids = sums / counts[:, None]
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break
    labels, point_d2, _ = assign(centroids)
    history.append(float(point_d2.sum()))
    return labels, centroids, history


def seed_bic_score(points, labels, centroids):
    """Bit-level oracle: bic_score as first written, with an (n, d) gather of
    the centroids and one log per point."""
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    centroids = np.asarray(centroids, dtype=float)
    n, d = points.shape
    k = centroids.shape[0]
    if n <= k:
        raise ClusteringError(f"BIC undefined: n={n} <= k={k}")
    resid_sq = np.sum((points - centroids[labels]) ** 2)
    sigma_sq = resid_sq / (n - k)
    sigma_sq = max(sigma_sq, 1e-12)  # coincident points would zero the variance
    sizes = np.bincount(labels, minlength=k).astype(float)
    log_prior = np.log(sizes[labels] / n)
    loglik = float(
        np.sum(log_prior)
        - n * d / 2.0 * np.log(2.0 * np.pi * sigma_sq)
        - resid_sq / (2.0 * sigma_sq)
    )
    p = (k - 1) + d * k + 1
    return loglik - p / 2.0 * np.log(n)


def bic_cases():
    """Seeded (points, labels, centroids) instances for the bit-identity
    test: k of 1, 2, 3 and 5 with fitted and with perturbed centroids,
    coincident points whose variance hits the 1e-12 floor, and centroids
    that no label uses."""
    rng = np.random.default_rng(2027)
    cases = []
    for d in (1, 2, 3, 8, 10):
        for k in (1, 2, 3, 5):
            n = int(rng.integers(k + 1, 400))
            labels = rng.permutation(np.arange(n) % k)
            pts = rng.normal(size=(n, d)) + 5.0 * labels[:, None]
            cents = np.array([pts[labels == j].mean(axis=0) for j in range(k)])
            cases.append((pts, labels, cents))
            cases.append((pts, labels, cents + rng.normal(0.0, 0.3, size=cents.shape)))
        pts = np.repeat(rng.normal(size=(2, d)), 6, axis=0)
        labels = np.repeat([0, 1], 6)
        cases.append((pts, labels, pts[[0, 6]]))  # zero residual: the floor
        cases.append((pts, np.zeros(12, dtype=int), pts[[0]] + 1e-9))
        pts = rng.normal(size=(50, d))
        labels = rng.integers(0, 2, size=50) * 2  # centroid 1 has no members
        cases.append((pts, labels, rng.normal(size=(3, d))))
        labels = np.zeros(50, dtype=int)  # four of five centroids empty
        cases.append((pts, labels, rng.normal(size=(5, d))))
    return cases


def seed_meanshift(points, cfg):
    """Bit-level oracle: MeanShift as first written, one seed at a time to
    convergence. Returns (labels, modes)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    h2 = cfg.bandwidth**2
    attractors = np.empty_like(points)
    for i in range(n):
        x = points[i].copy()
        for _ in range(cfg.max_iter):
            w = np.exp(-np.sum((points - x) ** 2, axis=1) / (2.0 * h2))
            new_x = w @ points / w.sum()
            shift = float(np.linalg.norm(new_x - x))
            x = new_x
            if shift < cfg.shift_tol:
                break
        attractors[i] = x

    modes = []
    labels = np.empty(n, dtype=int)
    for i in range(n):
        assigned = -1
        for j, m in enumerate(modes):
            if np.linalg.norm(attractors[i] - m) <= cfg.merge_radius:
                assigned = j
                break
        if assigned == -1:
            modes.append(attractors[i])
            assigned = len(modes) - 1
        labels[i] = assigned
    return labels, np.array(modes)


def meanshift_cases(dims=(*range(1, 17), 24, 40, 130)):
    """Seeded (points, cfg) instances for the bit-identity test: d from 1 to
    16 (numpy sums a row of 8 or more values with 8 accumulators), 24 and
    40, and 130 (past numpy's 128-value pairwise block); n of 1, 2 and odd
    sizes; two bandwidths; a merge radius of 1e-300 that keeps every
    distinct attractor as its own mode; and max_iter budgets of 40 and 3
    that stop some rows before they converge. Per d, three groups of
    coincident points also sit exactly merge_radius apart on a line, so
    that merge decisions fall on the radius itself."""
    rng = np.random.default_rng(2026)
    cases = []
    for d in dims:
        # With bandwidth 0.1 a group's weights on the other groups underflow
        # to 0, so each attractor is its group's point; neighbouring groups
        # are 5 (or 7 at d = 1) apart exactly, and the middle group does not
        # come first, so the first mode claims one group and not the other.
        step = np.zeros(d)
        step[0] = 3.0
        step[min(1, d - 1)] += 4.0
        radius = float(np.linalg.norm(step))
        pts = np.array([2, 0, 1, 1, 0, 2, 0, 2, 1])[:, None] * step
        for merge_radius in (radius, float(np.nextafter(radius, 0.0))):
            cases.append((pts, MeanShiftConfig(bandwidth=0.1, merge_radius=merge_radius)))
        spread = np.sqrt(d)
        for n in (1, 2, 9, 333 if d in (3, 9) else 61):
            pts = rng.normal(size=(n, d)) + 2.0 * spread * rng.integers(0, 3, size=(n, 1))
            for bandwidth in (0.4 * spread, 1.3 * spread):
                cases.append((pts, MeanShiftConfig(bandwidth=float(bandwidth), max_iter=40)))
            cases.append((pts, MeanShiftConfig(bandwidth=float(0.8 * spread), max_iter=40, merge_radius=1e-300)))
            cases.append((pts, MeanShiftConfig(bandwidth=float(0.8 * spread), shift_tol=1e-12,
                                               max_iter=3, merge_radius=1e-300)))
    return cases


def seed_within_eps(x, y, eps):
    """Bit-level oracle: DBSCAN's pair test as first blocked, the broadcast
    difference summed by einsum."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff) <= eps**2


def fast_sums(v):
    """Squared row lengths of v in several summation orders, any of which a
    settled test may use."""
    sq = v * v
    forward = np.zeros(len(v))
    for j in range(v.shape[1]):
        forward += sq[:, j]
    backward = np.zeros(len(v))
    for j in reversed(range(v.shape[1])):
        backward += sq[:, j]
    return [np.einsum("ij,ij->i", v, v), sq.sum(axis=1), forward, backward]


# Rows whose squares underflow, overflow or are not numbers.
SPECIAL_VALUES = (0.0, 5e-324, -3e-320, 1e-160, 1e-150, 1e200, np.inf, -np.inf, np.nan)


def lloyd_cases():
    """Seeded (points, init, max_iter) instances for the bit-identity test."""
    rng = np.random.default_rng(2025)
    cases = []
    for d in range(1, 13):
        for n in (1, 2, 3):
            pts = rng.normal(size=(n, d))
            for k in range(1, n + 1):
                cases.append((pts, pts[rng.choice(n, size=k, replace=False)], 10))
        for k in (2, 2, 3, 5):
            n = int(rng.integers(4, 300))
            pts = rng.normal(size=(n, d)) + 4.0 * rng.integers(0, 3, size=(n, 1))
            cases.append((pts, pts[rng.choice(n, size=k, replace=False)], int(rng.integers(1, 40))))
        # Exact ties for k=2: integer points symmetric about the plane x0 = 0,
        # many of them on it, and centroids mirrored across it, so every
        # point on the plane is equidistant from both.
        half = rng.integers(-3, 4, size=(20, d)).astype(float)
        half[:8, 0] = 0.0
        mirror = half * np.r_[-1.0, np.ones(d - 1)]
        pts = np.vstack([half, mirror])
        c = rng.integers(1, 3, size=d).astype(float)
        cases.append((pts, np.vstack([c, c * np.r_[-1.0, np.ones(d - 1)]]), 20))
        # Coincident points force empty clusters and their re-seeding.
        pts = np.repeat(rng.normal(size=(2, d)), 4, axis=0)
        cases.append((pts, np.vstack([pts[0], pts[0], pts[0]]), 5))
    return cases


def dbscan_cases():
    """Seeded (points, eps, min_pts) instances for the bit-identity test."""
    rng = np.random.default_rng(2024)
    cases = []
    for d in range(1, 13):
        # On a grid of step 0.5 every squared distance is exact, so many
        # pairs sit exactly at eps; a step of 0.1 puts them a rounding away.
        for step in (0.5, 0.5, 0.5, 0.1, 0.1, 0.1):
            n = int(rng.integers(2, 90))
            centers = rng.uniform(0, 3 * np.sqrt(d), size=(3, d))
            pts = centers[rng.integers(3, size=n)] + rng.normal(0, 0.5, size=(n, d))
            pts = np.round(pts / step) * step
            eps = 0.5 * int(rng.integers(1, 3 + d // 3))
            cases.append((pts, eps, int(rng.integers(1, 7))))
        pts = rng.normal(size=(int(rng.integers(2, 90)), d))
        cases.append((pts, float(rng.uniform(0.3, 1.5) * np.sqrt(d)), int(rng.integers(2, 6))))
    pts = np.repeat(rng.uniform(size=(4, 3)), 5, axis=0)  # coincident points
    cases.append((pts[rng.permutation(20)], 0.2, 5))
    cases.append((np.array([[0.5, -1.0]]), 0.3, 1))  # n = 1
    cases.append((np.array([[0.0], [10.0], [20.0]]), 1.0, 2))  # all noise
    cases.append((rng.uniform(size=(40, 2)), 0.05, 1))  # min_pts = 1: every point a core
    cases.append((rng.uniform(size=(60, 4)), 50.0, 3))  # one window covers every row
    return cases


def dbscan_frontier_cases():
    """Seeded (points, eps, min_pts) instances whose frontiers stress the
    expansion: long chains and far-apart rows in the sweep order."""
    rng = np.random.default_rng(2025)
    cases = []
    for d in (1, 2, 3):
        # A permuted chain at spacing 0.1 < eps: one BFS level per link.
        n = int(rng.integers(150, 300))
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        pts = np.arange(n)[:, None] * 0.1 * direction + rng.normal(0, 0.01, size=(n, d))
        cases.append((pts[rng.permutation(n)], 0.15, 3))  # the two ends are border points
    for d in (2, 3, 5):
        # Strips that span the same first coordinates but sit apart in the
        # others, so each frontier's rows interleave with the other strips'.
        n = int(rng.integers(300, 500))
        pts = rng.normal(0, 0.1, size=(n, d))
        pts[:, 0] = rng.uniform(0, 10, size=n)
        pts[:, 1] += 3.0 * rng.integers(4, size=n)
        cases.append((pts, float(rng.uniform(0.4, 0.8)), int(rng.integers(2, 5))))
    return cases


class TestKmeans:
    def test_two_blob_optimum(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        _, centroids = kmeans(pts, 2, seed=0)
        got = sorted(map(tuple, np.round(centroids, 6)))
        assert got == [(0.0, 0.5), (10.0, 0.5)]

    def test_k_equals_n(self):
        pts = np.array([[0.0], [1.0], [5.0]])
        labels, centroids = kmeans(pts, 3, seed=0)
        wcss = sum(
            np.sum((pts[labels == j] - centroids[j]) ** 2) for j in range(3)
        )
        assert wcss == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_lloyd_rerun(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(30, 2))
        init = pts[[3, 11, 25]]
        labels, cents, hist = lloyd(pts, init, max_iter=100, tol=1e-10)

        # independent plain-python re-run of Lloyd's loop from the same init
        c = [list(row) for row in init]
        for _ in range(100):
            assign = [
                min(range(3), key=lambda j: sum((p - q) ** 2 for p, q in zip(x, c[j])))
                for x in pts
            ]
            new_c = []
            for j in range(3):
                members = [pts[i] for i in range(30) if assign[i] == j]
                new_c.append([sum(col) / len(members) for col in zip(*members)])
            if max(
                sum((a - b) ** 2 for a, b in zip(cj, nj)) ** 0.5 for cj, nj in zip(c, new_c)
            ) < 1e-10:
                c = new_c
                break
            c = new_c
        assign = [
            min(range(3), key=lambda j: sum((p - q) ** 2 for p, q in zip(x, c[j])))
            for x in pts
        ]
        oracle_wcss = sum(
            sum((p - q) ** 2 for p, q in zip(pts[i], c[assign[i]])) for i in range(30)
        )
        assert hist[-1] == pytest.approx(oracle_wcss, rel=1e-9)

    def test_wcss_non_increasing(self):
        rng = np.random.default_rng(4)
        for seed in range(10):
            pts = rng.normal(size=(40, 3))
            init = pts[rng.choice(40, size=4, replace=False)]
            _, _, hist = lloyd(pts, init, max_iter=50, tol=1e-12)
            for a, b in zip(hist, hist[1:]):
                assert b <= a + 1e-9

    def test_bit_identical_to_seed_lloyd(self):
        for case, (pts, init, max_iter) in enumerate(lloyd_cases()):
            want = seed_lloyd(pts, init, max_iter, 1e-9)
            points_sq = (pts * pts).sum(axis=1)
            columns = np.ascontiguousarray(pts.T)
            for got in (
                lloyd(pts, init, max_iter, 1e-9),
                lloyd(pts, init, max_iter, 1e-9, points_sq, columns),
            ):
                assert got[0].dtype == want[0].dtype, case
                assert np.array_equal(got[0], want[0]), case
                assert np.array_equal(got[1], want[1]), case
                assert got[2] == want[2], case

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ClusteringError):
            kmeans(pts, 4)
        with pytest.raises(ClusteringError):
            kmeans(pts, 0)


class TestBic:
    def test_split_preferred_for_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(20, 1, (30, 2))])
        labels2 = np.array([0] * 30 + [1] * 30)
        cents2 = np.array([pts[:30].mean(axis=0), pts[30:].mean(axis=0)])
        labels1 = np.zeros(60, dtype=int)
        cents1 = pts.mean(axis=0)[None, :]
        assert bic_score(pts, labels2, cents2) > bic_score(pts, labels1, cents1)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]  # all labels present
        cents = np.array([pts[labels == j].mean(axis=0) for j in range(3)])
        swapped = np.array([{0: 2, 1: 0, 2: 1}[l] for l in labels])
        cents_swapped = np.array([cents[{0: 1, 1: 2, 2: 0}[j]] for j in range(3)])
        assert bic_score(pts, labels, cents) == pytest.approx(
            bic_score(pts, swapped, cents_swapped), rel=1e-12
        )

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(25, 3))
        labels = np.array([i % 2 for i in range(25)])
        cents = np.array([pts[labels == j].mean(axis=0) for j in range(2)])
        shift = np.array([5.0, -3.0, 100.0])
        assert bic_score(pts, labels, cents) == pytest.approx(
            bic_score(pts + shift, labels, cents + shift), rel=1e-9
        )

    def test_matches_term_by_term_oracle(self):
        # 8 one-dimensional points, k=2; evaluate the formula independently:
        # BIC = L - (p/2) ln n, sigma^2 = RSS/(n-k), p = (k-1) + d*k + 1
        pts = np.array([[0.0], [0.5], [1.0], [1.5], [10.0], [10.5], [11.0], [11.5]])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cents = np.array([[0.75], [10.75]])
        n, d, k = 8, 1, 2
        import math

        rss = sum((pts[i][0] - cents[labels[i]][0]) ** 2 for i in range(n))
        sigma_sq = rss / (n - k)
        loglik = 0.0
        for i in range(n):
            size = 4
            loglik += math.log(size / n)
            loglik += -0.5 * math.log(2 * math.pi * sigma_sq)
            loglik += -((pts[i][0] - cents[labels[i]][0]) ** 2) / (2 * sigma_sq)
        p = (k - 1) + d * k + 1
        expected = loglik - p / 2 * math.log(n)
        assert bic_score(pts, labels, cents) == pytest.approx(expected, abs=1e-9)

    def test_bit_identical_to_seed_bic_score(self):
        for case, (pts, labels, cents) in enumerate(bic_cases()):
            want = seed_bic_score(pts, labels, cents)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty centroid warns nothing
                got = bic_score(pts, labels, cents)
            assert got.hex() == want.hex(), case

    def test_split_parent_score_is_bic_score(self, monkeypatch):
        # the parent's one-cluster score comes from the split's own residuals
        rng = np.random.default_rng(3)
        real_bic = clustering._bic
        for d in (1, 2, 3, 8, 10):
            for n in (5, 64, 301, 2000):
                members = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
                parent = members.mean(axis=0)
                want = bic_score(members, np.zeros(n, dtype=int), parent[None, :])
                scores = []

                def recording_bic(*args):
                    scores.append((args[2], real_bic(*args)))
                    return scores[-1][1]

                monkeypatch.setattr(clustering, "_bic", recording_bic)
                clustering._split_candidates(members, parent, rng, 300, 1e-6)
                monkeypatch.setattr(clustering, "_bic", real_bic)
                k, got = scores[0]
                assert k == 1
                assert got.hex() == want.hex(), (d, n)

    def test_n_le_k_rejected(self):
        pts = np.zeros((2, 1))
        with pytest.raises(ClusteringError):
            bic_score(pts, np.array([0, 1]), np.zeros((2, 1)))


class TestXmeans:
    def test_collapsed_search_space(self):
        ds = synth_blobs(5, 20, 2, 20.0, 1.0, seed=0)
        r = xmeans(ds.features, XMeansConfig(kmin=3, kmax=3, seed=0))
        assert r.k == 3

    def test_blob_recovery_over_seeds(self):
        hits = 0
        for seed in range(20):
            ds = synth_blobs(3, 40, 2, 50.0, 1.0, seed=seed)
            r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=10, seed=seed))
            hits += r.k == 3
        assert hits >= 19

    def test_k_within_bounds(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(60, 2))
        for kmin, kmax in [(2, 5), (3, 8), (1, 2)]:
            r = xmeans(pts, XMeansConfig(kmin=kmin, kmax=kmax, seed=1))
            assert kmin <= r.k <= kmax

    def test_kmin_exceeds_n(self):
        with pytest.raises(ClusteringError):
            xmeans(np.zeros((3, 2)), XMeansConfig(kmin=5, kmax=10))

    def test_refused_clusters_retried_once(self):
        # The first round refuses both kmin clusters, one bad seeding each;
        # when that ended the search, X-means stopped at k=2.
        ds = synth_blobs(5, 60, 3, 30.0, 1.0, seed=3)
        r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=20, seed=3))
        assert r.k == 5

    @pytest.mark.parametrize("centers, accepted", [([0.0], False), ([0.0, 30.0], True)])
    def test_split_refined_only_when_a_trial_wins(self, monkeypatch, centers, accepted):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(c, 1.0, size=(200, 3)) for c in centers])
        runs = []
        real_lloyd = clustering.lloyd

        def counting_lloyd(*args, **kwargs):
            runs.append(args[2])
            return real_lloyd(*args, **kwargs)

        monkeypatch.setattr(clustering, "lloyd", counting_lloyd)
        tries = 2
        split = clustering._split_candidates(pts, pts.mean(axis=0), rng, 300, 1e-6, tries=tries)
        assert (split is not None) == accepted
        # tries random directions plus one weighted seeding, capped at 5
        # iterations; the full-length refinement only for a winning trial.
        assert runs == [5] * (tries + 1) + [300] * accepted

    def test_split_refused_when_a_child_is_tiny(self):
        # without the minimum child size one 60-row blob splits off a single
        # row, which wins on BIC, and X-means returns k=10
        ds = synth_blobs(9, 60, 2, 30.0, 1.0, seed=6)
        r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=20, seed=6))
        assert r.k == 9
        assert np.bincount(r.labels).min() > 2 + 1

    def test_result_invariants(self):
        ds = synth_blobs(4, 25, 3, 15.0, 1.0, seed=2)
        r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=20, seed=0))
        assert r.representatives.shape == (r.k, 3)
        assert set(np.unique(r.labels)) == set(range(r.k))

    @pytest.mark.parametrize("k, d, seed", [(12, 3, 1), (10, 3, 13), (7, 2, 13)])
    def test_screened_retry_recovers_k(self, k, d, seed):
        # one blanket retry round stopped these at k = 5, 5 and 3: a cluster
        # of several blobs lost its random and weighted seedings twice
        ds = synth_blobs(k, 60, d, 30.0, 1.0, seed=seed)
        r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=20, seed=seed))
        assert r.k == k
        assert r.diagnostics["retry_rounds"] >= 1

    def test_unchanged_clusters_screened_once(self, monkeypatch):
        # two split-free rounds: the second screens only the clusters born
        # after the first; screening all of them again took 15 calls here
        screened = []
        real_screen = clustering._gaussian_screen

        def recording_screen(members):
            screened.append(hash(members.tobytes()))
            return real_screen(members)

        monkeypatch.setattr(clustering, "_gaussian_screen", recording_screen)
        ds = synth_blobs(10, 60, 3, 30.0, 1.0, seed=13)
        r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=20, seed=13))
        assert r.k == 10
        assert r.diagnostics["retry_rounds"] >= 1 and r.diagnostics["stopped_by"] == "gaussian"
        assert len(set(screened)) == len(screened) == 11

    def test_random_seedings_kept_on_retry(self):
        # the peel alone loses on a 6-blob cluster that a random seeding
        # splits; retrying with the peel only gave k=6 here
        ds = synth_blobs(11, 60, 2, 30.0, 1.0, seed=18)
        r = xmeans(ds.features, XMeansConfig(kmin=2, kmax=20, seed=18))
        assert r.k == 11

    def test_gaussian_cluster_not_retried(self, monkeypatch):
        attempts = []
        real_split = clustering._split_candidates

        def counting_split(*args, **kwargs):
            attempts.append(kwargs.get("retry", False))
            return real_split(*args, **kwargs)

        monkeypatch.setattr(clustering, "_split_candidates", counting_split)
        pts = np.random.default_rng(0).normal(size=(500, 3))
        r = xmeans(pts, XMeansConfig(kmin=1))
        assert r.k == 1
        assert attempts == [False]
        assert r.diagnostics == {
            "split_rounds": 1, "retry_rounds": 0, "split_attempts": 1, "stopped_by": "gaussian",
        }

    def test_retry_adds_a_peel_seeding_and_no_draw(self, monkeypatch):
        pts = np.random.default_rng(0).normal(size=(200, 3))
        parent = pts.mean(axis=0)
        inits = []
        real_lloyd = clustering.lloyd

        def recording_lloyd(*args, **kwargs):
            inits.append(np.array(args[1]))
            return real_lloyd(*args, **kwargs)

        monkeypatch.setattr(clustering, "lloyd", recording_lloyd)
        states = []
        for retry in (False, True):
            inits.clear()
            rng = np.random.default_rng(1)
            clustering._split_candidates(pts, parent, rng, 300, 1e-6, retry=retry)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]
        assert len(inits) == 4
        farthest = pts[np.sum((pts - parent) ** 2, axis=1).argmax()]
        np.testing.assert_array_equal(inits[-1], np.vstack([parent, farthest]))

    @pytest.mark.parametrize(
        "points, cfg, stopped_by",
        [
            (synth_blobs(5, 60, 3, 30.0, 1.0, seed=3).features, XMeansConfig(kmin=2, kmax=3), "kmax"),
            (synth_blobs(5, 60, 3, 30.0, 1.0, seed=3).features, XMeansConfig(max_split_rounds=1), "max_split_rounds"),
            (np.random.default_rng(0).exponential(size=(400, 2)), XMeansConfig(kmin=1), "retry_refused"),
            (synth_blobs(3, 40, 2, 50.0, 1.0, seed=0).features, XMeansConfig(), "gaussian"),
        ],
    )
    def test_diagnostics_say_why_the_search_stopped(self, points, cfg, stopped_by):
        r = xmeans(points, cfg)
        diag = r.diagnostics
        assert diag["stopped_by"] == stopped_by
        assert diag["retry_rounds"] <= diag["split_rounds"] <= cfg.max_split_rounds
        assert diag["split_attempts"] >= r.k - cfg.kmin


class TestGaussianScreen:
    def test_normal_sample_passes(self):
        pts = np.random.default_rng(0).normal(size=(500, 3))
        assert clustering._gaussian_screen(pts) < clustering._AD_CRITICAL

    def test_two_blobs_fail(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(size=(200, 3)), rng.normal(size=(200, 3)) + 10.0])
        assert clustering._gaussian_screen(pts) > clustering._AD_CRITICAL

    def test_degenerate_inputs_score_zero(self):
        rng = np.random.default_rng(0)
        assert clustering._gaussian_screen(rng.normal(size=(7, 3)) * 100.0) == 0.0
        assert clustering._gaussian_screen(np.ones((50, 3))) == 0.0

    def test_matches_textbook_statistic(self):
        # A*^2 from the sorted standardised projection, with Phi from math.erf
        x = np.random.default_rng(2).normal(size=(40, 1)) ** 3
        z = np.sort((x[:, 0] - x.mean()) / x.std(ddof=1))
        n = z.size
        cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
        i = np.arange(1, n + 1)
        a2 = -n - np.mean((2 * i - 1) * (np.log(cdf) + np.log(1.0 - cdf[::-1])))
        expected = a2 * (1.0 + 4.0 / n - 25.0 / n**2)
        assert clustering._gaussian_screen(x) == pytest.approx(expected, rel=1e-9)


class TestDbscan:
    def test_all_noise(self):
        pts = np.array([[0.0], [10.0], [20.0]])
        r = dbscan(pts, DbscanConfig(eps=1.0, min_pts=2))
        assert r.k == 0
        assert np.all(r.labels == -1)
        assert r.representatives.shape == (0, 1)

    def test_coincident_points_one_cluster(self):
        pts = np.zeros((5, 2))
        r = dbscan(pts, DbscanConfig(eps=0.1, min_pts=5))
        assert r.k == 1
        assert np.all(r.labels == 0)

    def test_two_clusters_one_outlier(self):
        pts = np.array(
            [[0, 0], [0, 1], [1, 0], [1, 1], [0.5, 0.5],
             [10, 10], [10, 11], [11, 10], [11, 11], [10.5, 10.5],
             [50, 50], [0.2, 0.8]],
            dtype=float,
        )
        cfg = DbscanConfig(eps=1.5, min_pts=3)
        r = dbscan(pts, cfg)
        oracle_labels, oracle_k = brute_force_dbscan(pts, cfg.eps, cfg.min_pts)
        assert r.k == oracle_k == 2
        assert partitions_equal(r.labels, oracle_labels)

    def test_noise_count_in_diagnostics(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [50.0, 50.0], [-40.0, 0.0]])
        r = dbscan(pts, DbscanConfig(eps=1.5, min_pts=3))
        assert r.k == 1
        assert r.diagnostics == {"noise_points": 2}

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(123)
        for trial in range(50):
            n = int(rng.integers(5, 41))
            pts = rng.uniform(0, 4, size=(n, 2))
            eps = float(rng.uniform(0.3, 1.2))
            min_pts = int(rng.integers(2, 6))
            r = dbscan(pts, DbscanConfig(eps=eps, min_pts=min_pts))
            oracle_labels, oracle_k = brute_force_dbscan(pts, eps, min_pts)
            assert r.k == oracle_k
            assert partitions_equal(r.labels, oracle_labels), f"trial {trial}"

    def test_order_independence_on_clean_instances(self):
        # well-separated blobs have no border point equidistant to two cores
        ds = synth_blobs(3, 15, 2, 30.0, 0.5, seed=6)
        cfg = DbscanConfig(eps=3.0, min_pts=3)
        base = dbscan(ds.features, cfg)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        shuffled = dbscan(ds.features[perm], cfg)
        assert partitions_equal(base.labels[perm], shuffled.labels)

    @pytest.mark.parametrize("block_elements", [None, 1, 64])
    def test_bit_identical_to_seed_dbscan(self, monkeypatch, block_elements):
        # a small budget forces one-row and many-row blocks at tiny n
        if block_elements is not None:
            monkeypatch.setattr(clustering, "_BLOCK_ELEMENTS", block_elements)
        for case, (pts, eps, min_pts) in enumerate([*dbscan_cases(), *dbscan_frontier_cases()]):
            r = dbscan(pts, DbscanConfig(eps=eps, min_pts=min_pts))
            labels, reps, k = seed_dbscan(pts, eps, min_pts)
            assert r.k == k, f"case {case}"
            assert np.array_equal(r.labels, labels), f"case {case}"
            assert np.array_equal(r.representatives, reps), f"case {case}"

    def test_peak_memory_bounded(self):
        # an (n, n, d) float64 difference array alone would be 216 MB here
        ds = synth_blobs(5, 600, 3, 30.0, 1.0, seed=1)
        pts = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
        tracemalloc.start()
        try:
            r = dbscan(pts, DbscanConfig(eps=0.3, min_pts=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.k == 5
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_peak_memory_bounded_without_neighbour_lists(self):
        # every row lies within eps of its blob's 2,000 rows: index lists of
        # those 20M pairs alone would take 160 MB
        ds = synth_blobs(5, 2000, 3, 30.0, 1.0, seed=1)
        pts = (ds.features - ds.features.mean(axis=0)) / ds.features.std(axis=0)
        tracemalloc.start()
        try:
            r = dbscan(pts, DbscanConfig(eps=0.3, min_pts=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.k == 5
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestMeanshift:
    def test_single_point(self):
        pts = np.array([[3.0, 4.0]])
        r = meanshift(pts, MeanShiftConfig(bandwidth=1.0))
        assert r.k == 1
        assert np.allclose(r.representatives[0], [3.0, 4.0])

    def test_identical_points(self):
        pts = np.tile([2.0, 2.0], (10, 1))
        r = meanshift(pts, MeanShiftConfig(bandwidth=1.0))
        assert r.k == 1

    def test_two_mode_mixture_vs_grid_argmax(self):
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(0, 1, 100), rng.normal(10, 1, 100)]).reshape(-1, 1)
        r = meanshift(pts, MeanShiftConfig(bandwidth=1.0))
        assert r.k == 2

        # dense-grid argmax of the kernel density estimate, per half-line
        grid = np.linspace(-5, 15, 4001)
        dens = np.exp(-((grid[:, None] - pts.ravel()[None, :]) ** 2) / 2.0).sum(axis=1)
        left = grid[grid < 5][np.argmax(dens[grid < 5])]
        right = grid[grid >= 5][np.argmax(dens[grid >= 5])]
        modes = np.sort(r.representatives.ravel())
        assert abs(modes[0] - left) < 0.5
        assert abs(modes[1] - right) < 0.5

    def test_modes_are_stationary(self):
        # numerical KDE gradient is tiny at every reported mode
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(0, 0.5, (50, 2)), rng.normal(6, 0.5, (50, 2))])
        cfg = MeanShiftConfig(bandwidth=1.0, shift_tol=1e-6)
        r = meanshift(pts, cfg)

        def kde(x):
            return np.exp(-np.sum((pts - x) ** 2, axis=1) / 2.0).sum()

        h = 1e-5
        for mode in r.representatives:
            grad = np.array(
                [
                    (kde(mode + h * e) - kde(mode - h * e)) / (2 * h)
                    for e in np.eye(2)
                ]
            )
            # normalized mean-shift step = grad / density; compare like units
            assert np.linalg.norm(grad) / kde(mode) < cfg.shift_tol * 10

    def test_budget_stops_counted(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(40, 2))
        r = meanshift(pts, MeanShiftConfig(bandwidth=1.0, shift_tol=1e-12, max_iter=3))
        assert r.diagnostics == {"seed_steps": 3 * 40, "max_iter_stops": 40}

    def test_converged_steps_counted(self):
        pts = np.array([[0.0], [0.5], [10.0], [10.5]])
        cfg = MeanShiftConfig(bandwidth=1.0)
        r = meanshift(pts, cfg)
        steps = 0
        for i in range(len(pts)):  # each seed's own steps, as seed_meanshift takes them
            x = pts[i].copy()
            for _ in range(cfg.max_iter):
                w = np.exp(-np.sum((pts - x) ** 2, axis=1) / (2.0 * cfg.bandwidth**2))
                new_x = w @ pts / w.sum()
                steps += 1
                shift, x = float(np.linalg.norm(new_x - x)), new_x
                if shift < cfg.shift_tol:
                    break
        assert r.k == 2
        assert r.diagnostics == {"seed_steps": steps, "max_iter_stops": 0}

    def test_merge_radius_default(self):
        cfg = MeanShiftConfig(bandwidth=2.0)
        assert cfg.merge_radius == 1.0

    @pytest.mark.parametrize(
        "rows, dims",
        [(None, (*range(1, 17), 24, 40, 130)), (1, (1, 8, 130)), (7, (1, 8, 130))],
    )
    def test_bit_identical_to_seed_meanshift(self, monkeypatch, rows, dims):
        # rows=1 moves one seed per block; 7 rows leave a partial last block
        # at every n here but 1 and 2 (d=130 gets 5 rows: 6 live arrays).
        for case, (pts, cfg) in enumerate(meanshift_cases(dims)):
            if rows is not None:
                monkeypatch.setattr(clustering, "_BLOCK_ELEMENTS", 4 * 5 * rows * len(pts))
            r = meanshift(pts, cfg)
            labels, modes = seed_meanshift(pts, cfg)
            assert r.k == len(modes), f"case {case}"
            assert np.array_equal(r.labels, labels), f"case {case}"
            assert np.array_equal(r.representatives, modes), f"case {case}"

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_empty_shapes_match_seed_meanshift(self, shape):
        cfg = MeanShiftConfig(bandwidth=1.0)
        r = meanshift(np.zeros(shape), cfg)
        labels, modes = seed_meanshift(np.zeros(shape), cfg)
        assert r.k == len(modes)
        assert np.array_equal(r.labels, labels)
        assert np.array_equal(r.representatives, modes)

    def test_huge_bounds_match_seed_meanshift(self):
        # squared, these bounds overflow: every test falls to the exact norm
        pts = np.random.default_rng(6).normal(size=(30, 2))
        for cfg in (MeanShiftConfig(bandwidth=1.0, merge_radius=1e200),
                    MeanShiftConfig(bandwidth=1.0, shift_tol=1e200)):
            r = meanshift(pts, cfg)
            labels, modes = seed_meanshift(pts, cfg)
            assert np.array_equal(r.labels, labels)
            assert np.array_equal(r.representatives, modes)

    def test_block_arrays_bounded(self, monkeypatch):
        # A fixed block of 256 rows would hold 5 * 256 * 400 * 8 B = 4 MB.
        budget = 1 << 16
        monkeypatch.setattr(clustering, "_BLOCK_ELEMENTS", budget)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(400, 3)) + 8.0 * rng.integers(0, 3, size=(400, 1))
        tracemalloc.start()
        try:
            r = meanshift(pts, MeanShiftConfig(bandwidth=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.k == 3
        # the block's share of the budget, plus a few copies of the points
        assert peak < 8 * budget // 4 + 8 * pts.nbytes, f"peak {peak} B"


class TestSettle:
    """clustering._settle decides a distance test from a squared length
    summed in any order; where it is unsure, the caller asks the exact
    expression. Where it is sure it must agree with that expression."""

    @staticmethod
    def assert_agrees(v, bound_norm):
        exact = np.array([np.linalg.norm(row) for row in v])
        for fast in fast_sums(v):
            inside, unsure = clustering._settle(fast, bound_norm * bound_norm, v.shape[1])
            sure = ~unsure
            assert np.array_equal(inside[sure], exact[sure] < bound_norm)
            assert np.array_equal(inside[sure], exact[sure] <= bound_norm)
        return unsure

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 13, 130])
    def test_norm_tests_at_the_bound(self, d):
        rng = np.random.default_rng(d)
        v = rng.normal(size=(300, d)) * 10.0 ** rng.uniform(-3, 3, size=(300, 1))
        for i in range(5):
            bound = np.linalg.norm(v[i])
            # v[i] lies on the bound, where < and <= split; its neighbours
            # lie a few ulps to either side.
            near = v[i] * (1.0 + np.arange(-6, 7)[:, None] * 2.0**-52)
            unsure = self.assert_agrees(np.vstack([v[i], near, v]), bound)
            assert unsure[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 13, 130])
    def test_special_rows(self, d):
        rng = np.random.default_rng(d)
        rows = [np.zeros(d)]
        for value in SPECIAL_VALUES:
            row = rng.normal(size=d)
            row[rng.integers(d)] = value
            rows += [np.full(d, value), row]
        with np.errstate(all="ignore"):
            for bound in (5e-324, 1e-300, 1e-160, 1e-150, 1e-5, 1.0, 1e150, 1e200, 1e300, np.inf):
                self.assert_agrees(np.array(rows), bound)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 13, 130])
    def test_within_eps_at_a_pair_distance(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(20, d))
        y = np.vstack([rng.normal(size=(30, d)), x[:4] + rng.normal(scale=1e-3, size=(4, d))])
        diff = x[:, None, :] - y[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        for pair in [(0, 30), (3, 33), (5, 7), (11, 29)]:
            # eps squared lands on the pair's own einsum value or rounds
            # to one of its neighbours
            eps = np.sqrt(d2[pair])
            for _ in range(3):
                eps = np.nextafter(eps, 0.0)
            for _ in range(7):
                got = clustering._within_eps(x, y, float(eps))
                assert np.array_equal(got, seed_within_eps(x, y, float(eps)))
                eps = np.nextafter(eps, np.inf)

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_within_eps_on_a_grid(self, d):
        # on a grid of step 1/8 every squared distance is exact, so many
        # pairs lie exactly at eps
        rng = np.random.default_rng(d)
        x = rng.integers(-16, 17, size=(40, d)) / 8.0
        y = rng.integers(-16, 17, size=(50, d)) / 8.0
        for eps in (0.125, 0.5, 0.625, 1.25, float(np.sqrt(0.125**2 * 2))):
            assert np.array_equal(clustering._within_eps(x, y, eps), seed_within_eps(x, y, eps))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 130])
    def test_within_eps_special_rows(self, d):
        rng = np.random.default_rng(d)
        rows = [np.zeros(d), rng.normal(size=d)]
        for value in SPECIAL_VALUES:
            row = rng.normal(size=d)
            row[0] = value
            rows += [np.full(d, value), row]
        pts = np.array(rows)
        with np.errstate(all="ignore"):
            for eps in (5e-324, 1e-170, 1e-160, 1e-155, 1e-3, 1.0, 1e140, 1e150, 1.3e154):
                assert np.array_equal(clustering._within_eps(pts, pts, eps), seed_within_eps(pts, pts, eps))


class TestResultInvariants:
    def test_noise_only_for_dbscan(self):
        with pytest.raises(ClusteringError):
            ClusteringResult(
                labels=np.array([0, -1]),
                representatives=np.zeros((1, 1)),
                k=1,
                algorithm=Algorithm.XMEANS,
            )

    def test_every_label_present(self):
        with pytest.raises(ClusteringError):
            ClusteringResult(
                labels=np.array([0, 0]),
                representatives=np.zeros((2, 1)),
                k=2,
                algorithm=Algorithm.XMEANS,
            )
