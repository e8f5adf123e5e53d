"""Clustering algorithms used to size the hidden layer.

k-means (Lloyd with distance-weighted seeding), a BIC score for spherical
Gaussian mixtures, X-means (BIC-gated recursive 2-means splits), DBSCAN,
and MeanShift. Distances are Euclidean throughout; inputs are expected to
be normalized features.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import require_field_types


class ClusteringError(Exception):
    pass


class Algorithm(enum.Enum):
    XMEANS = "xmeans"
    DBSCAN = "dbscan"
    MEANSHIFT = "meanshift"


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray  # (n,), -1 reserved for DBSCAN noise
    representatives: np.ndarray  # (k, d)
    k: int
    algorithm: Algorithm
    # How the search went (counts, why it stopped); deterministic, never
    # compared.
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        reps = np.asarray(self.representatives, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "representatives", reps)
        if reps.shape[0] != self.k:
            raise ClusteringError("representatives row count must equal k")
        if np.any(labels < -1) or np.any(labels >= self.k):
            raise ClusteringError("labels out of range")
        if np.any(labels == -1) and self.algorithm is not Algorithm.DBSCAN:
            raise ClusteringError("noise labels are only valid for DBSCAN")
        if self.k > 0 and not np.bincount(labels[labels >= 0], minlength=self.k).all():
            raise ClusteringError("every label in [0, k) must occur at least once")


@dataclass(frozen=True)
class XMeansConfig:
    kmin: int = 2
    kmax: int = 200
    max_split_rounds: int = 50
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)
        if self.kmin < 1 or self.kmax < self.kmin:
            raise ValueError("need 1 <= kmin <= kmax")
        if self.max_split_rounds < 1:
            raise ValueError("max_split_rounds must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class DbscanConfig:
    eps: float
    min_pts: int

    def __post_init__(self):
        require_field_types(self)
        if self.eps <= 0 or self.min_pts < 1:
            raise ValueError("need eps > 0 and min_pts >= 1")


@dataclass(frozen=True)
class MeanShiftConfig:
    bandwidth: float
    shift_tol: float = 1e-5
    max_iter: int = 300
    merge_radius: float | None = None  # defaults to bandwidth / 2

    def __post_init__(self):
        require_field_types(self)
        if self.merge_radius is None:
            object.__setattr__(self, "merge_radius", self.bandwidth / 2.0)
        if min(self.bandwidth, self.shift_tol, self.max_iter, self.merge_radius) <= 0:
            raise ValueError("all mean-shift parameters must be positive")
        # The kernel divides by 2 h^2, squared first as meanshift squares it.
        # Underflowed to 0 it makes every weight NaN; overflowed, it raises.
        if not 0.0 < 2.0 * (self.bandwidth * self.bandwidth) < math.inf:
            raise ValueError(
                f"bandwidth must be a number whose 2 * bandwidth**2 is positive and finite, got {self.bandwidth!r}"
            )


def _weighted_init(
    points: np.ndarray, k: int, rng: np.random.Generator, points_sq: np.ndarray
) -> np.ndarray:
    """Seeded distance-weighted seeding: each next center drawn with
    probability proportional to squared distance to the nearest chosen one.
    `points_sq` holds the points' row sums of squares."""
    n = points.shape[0]
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 via one matmul, clamped:
    # cancellation can produce tiny negatives.
    points_sq = points_sq[:, None]
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        chosen = np.array(centers)
        d2 = points_sq - 2.0 * (points @ chosen.T) + (chosen * chosen).sum(axis=1)[None, :]
        d2 = np.maximum(d2, 0.0, out=d2).min(axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def lloyd(
    points: np.ndarray,
    init_centroids: np.ndarray,
    max_iter: int,
    tol: float,
    points_sq: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations from explicit initial centroids.

    Returns (labels, centroids, per-iteration WCSS history). Empty clusters
    are re-seeded from the point farthest from its assigned centroid.
    `points_sq` (row sums of squares) and `columns` (the contiguous
    transpose) depend only on the points; callers that run Lloyd several
    times on the same points pass them in to compute them once.
    """
    centroids = np.array(init_centroids, dtype=float)
    n, d = points.shape
    k = centroids.shape[0]
    history: list[float] = []
    labels = np.zeros(n, dtype=int)
    if points_sq is None:
        points_sq = (points * points).sum(axis=1)
    if columns is None:
        columns = np.ascontiguousarray(points.T)  # bincount copies strided weights
    rows = np.arange(n)

    def assign(cents):
        # argmin_j ||x - c_j||^2 = argmin_j (||c_j||^2 - 2 x.c_j); ||x||^2 is
        # added back only for the per-point distances the caller needs.
        prod = points @ cents.T
        cc = (cents * cents).sum(axis=1)
        if k == 2:
            # The two columns as 1-D arrays: an (n, 2) broadcast runs inner
            # loops 2 long. Same arithmetic per element; a tie keeps the
            # first column, as argmin does.
            p0 = cc[0] - 2.0 * prod[:, 0]
            p1 = cc[1] - 2.0 * prod[:, 1]
            lab = (p1 < p0).astype(np.intp)
            point_d2 = np.maximum(points_sq + np.minimum(p0, p1), 0.0)
            ones = np.count_nonzero(lab)
            counts = np.array([n - ones, ones])
        else:
            partial = cc[None, :] - 2.0 * prod
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


# Lloyd's iteration cap and centroid-movement tolerance in kmeans and in
# X-means' splits.
_LLOYD_MAX_ITER = 300
_LLOYD_TOL = 1e-6


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd from distance-weighted seeding; returns (labels, centroids)."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k < 1:
        raise ClusteringError("k must be at least 1")
    if k > n:
        raise ClusteringError(f"k={k} exceeds the number of points n={n}")
    rng = np.random.default_rng(seed)
    points_sq = (points * points).sum(axis=1)
    init = _weighted_init(points, k, rng, points_sq)
    labels, centroids, _ = lloyd(points, init, _LLOYD_MAX_ITER, _LLOYD_TOL, points_sq)
    return labels, centroids


def bic_score(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """BIC of the identical-spherical-variance Gaussian mixture fit implied
    by a hard partition; higher is better.

    BIC = L - (p/2) ln n with shared variance
    sigma^2 = (1/(n-k)) sum_i ||x_i - mu_label(i)||^2 and
    p = (k - 1) + d*k + 1 free parameters.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=int)
    centroids = np.asarray(centroids, dtype=float)
    n, d = points.shape
    k = centroids.shape[0]
    if n <= k:
        raise ClusteringError(f"BIC undefined: n={n} <= k={k}")
    resid_sq = np.sum((points - centroids.take(labels, axis=0)) ** 2)
    sizes = np.bincount(labels, minlength=k).astype(float)
    # k logs gathered instead of n; a centroid with no members gets a log(0)
    # that no label reads.
    with np.errstate(divide="ignore"):
        log_share = np.log(sizes / n)
    return _bic(n, d, k, resid_sq, np.sum(log_share[labels]))


def _bic(n: int, d: int, k: int, resid_sq: float, log_prior_sum: float) -> float:
    """bic_score from the partition's residual sum of squares and the sum of
    its members' log cluster shares (exactly 0.0 for k = 1)."""
    sigma_sq = resid_sq / (n - k)
    sigma_sq = max(sigma_sq, 1e-12)  # coincident points would zero the variance
    loglik = float(
        log_prior_sum
        - n * d / 2.0 * np.log(2.0 * np.pi * sigma_sq)
        - resid_sq / (2.0 * sigma_sq)
    )
    p = (k - 1) + d * k + 1
    return loglik - p / 2.0 * np.log(n)


# Anderson-Darling critical value of G-means (Hamerly and Elkan, NIPS 2003)
# at alpha = 1e-4, for A*^2 with estimated mean and variance.
_AD_CRITICAL = 1.8692


def _gaussian_screen(members: np.ndarray) -> float:
    """A*^2 = A^2 (1 + 4/n - 25/n^2), the Anderson-Darling statistic of the
    members' projection onto their principal axis, standardised with the
    sample mean and the ddof=1 standard deviation. Large values say the
    cluster is not one Gaussian; 0 for fewer than 8 members or no spread."""
    n = members.shape[0]
    if n < 8:
        return 0.0
    centred = members - members.mean(axis=0)
    axis = np.linalg.eigh(centred.T @ centred)[1][:, -1]
    x = np.sort(centred @ axis)
    std = x.std(ddof=1)
    if std == 0.0:
        return 0.0
    # Phi(z) = erfc(-z / sqrt 2) / 2; math.erfc over a list is faster than
    # np.frompyfunc and gives the same values.
    z = (x - x.mean()) / (-std * math.sqrt(2.0))
    cdf = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, n)
    cdf = np.clip(cdf, 1e-15, 1.0 - 1e-15)
    weights = 2.0 * np.arange(1, n + 1) - 1.0
    a2 = -n - float(np.sum(weights * (np.log(cdf) + np.log1p(-cdf[::-1])))) / n
    return a2 * (1.0 + 4.0 / n - 25.0 / n**2)


def _split_candidates(
    members: np.ndarray,
    parent: np.ndarray,
    rng: np.random.Generator,
    tries: int = 2,
    retry: bool = False,
) -> tuple[np.ndarray, np.ndarray] | None:
    """2-means split of a cluster's members, or None when the split loses.

    Children are seeded at parent +/- r*u with u a random unit direction and
    r the RMS point-to-centroid radius. Lloyd from one random direction can
    stall in a poor local optimum, so a few directions plus one
    distance-weighted seeding are tried; a retry adds a "peel" seeding with
    the children at the parent and at its farthest member, which cuts one
    outlying blob off a cluster of many. The split wins when its children's
    joint BIC beats the parent's one-cluster BIC and each child has more than
    d + 1 members, more rows than a child's d + 1 free parameters.
    """
    n, d = members.shape
    # The residuals are bic_score(members, zeros, parent[None])'s, summed the
    # same way; the array is freed before the trials allocate theirs.
    resid = members - parent
    np.square(resid, out=resid)
    sq = resid.sum(axis=1)
    resid_sq = resid.sum()
    del resid
    radius = float(np.sqrt(np.mean(sq)))
    if radius == 0.0:
        return None  # coincident points; nothing to split
    parent_bic = _bic(n, d, 1, resid_sq, 0.0)
    # Every Lloyd run below is on the same members.
    points_sq = (members * members).sum(axis=1)
    columns = np.ascontiguousarray(members.T)
    inits = []
    for _ in range(tries):
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        inits.append(np.vstack([parent + radius * u, parent - radius * u]))
    inits.append(_weighted_init(members, 2, rng, points_sq))
    if retry:
        inits.append(np.vstack([parent, members[sq.argmax()]]))

    # Trials run 5 Lloyd iterations (enough to rank the seedings); only a
    # winner that already beats the parent is refined to full convergence.
    # Every random draw happens above, so refusing here leaves the random
    # stream of later splits as it was.
    best: tuple[float, np.ndarray] | None = None
    for init in inits:
        sub_labels, sub_centroids, _ = lloyd(members, init, 5, _LLOYD_TOL, points_sq, columns)
        if np.bincount(sub_labels, minlength=2).min() <= d + 1:
            continue
        score = bic_score(members, sub_labels, sub_centroids)
        if best is None or score > best[0]:
            best = (score, sub_centroids)
    if best is None or best[0] <= parent_bic:
        return None
    sub_labels, sub_centroids, _ = lloyd(members, best[1], _LLOYD_MAX_ITER, _LLOYD_TOL, points_sq, columns)
    if np.bincount(sub_labels, minlength=2).min() <= d + 1:
        return None
    if bic_score(members, sub_labels, sub_centroids) <= parent_bic:
        return None
    return sub_labels, sub_centroids


def xmeans(points: np.ndarray, cfg: XMeansConfig) -> ClusteringResult:
    """X-means: start with kmin-means, then repeatedly try to split each
    cluster in two; a split is kept only when the children's joint BIC beats
    the parent's. A cluster whose split is refused is not attempted again
    until a round accepts no split at all. Then every cluster is screened
    for Gaussianity (_gaussian_screen) and only those that fail are retried,
    each with an extra peel seeding. A retry round that splits returns to
    normal rounds, and the next split-free round screens again. The search
    ends when every cluster passes the screen, when a retry round keeps
    nothing, at kmax or at the round limit; `diagnostics` says which."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if cfg.kmin > n:
        raise ClusteringError(f"kmin={cfg.kmin} exceeds the number of points n={n}")
    rng = np.random.default_rng(cfg.seed)

    base_labels, _ = kmeans(points, cfg.kmin, cfg.seed)
    # One (rows, centroid, open, verdict) entry per cluster. Splits never
    # reassign points across clusters, so a refused cluster keeps its
    # members; a new attempt differs only through its seedings. One attempt
    # can still refuse a cluster that holds several blobs, so a split-free
    # round reopens the clusters that fail the screen instead of ending the
    # search; a single Gaussian blob passes and stays closed. The screen's
    # verdict is kept per cluster (None until screened), so only clusters
    # born since the last screen are screened again.
    clusters: list[tuple[np.ndarray, np.ndarray, bool, bool | None]] = []
    for j in range(cfg.kmin):
        idx = np.flatnonzero(base_labels == j)
        clusters.append((idx, points[idx].mean(axis=0), True, None))
    retry = False
    diagnostics = {"split_rounds": 0, "retry_rounds": 0, "split_attempts": 0, "stopped_by": "max_split_rounds"}

    for _ in range(cfg.max_split_rounds):
        if len(clusters) >= cfg.kmax:
            break
        any_split = False
        total = len(clusters)
        next_clusters = []
        for idx, parent, is_open, verdict in clusters:
            split = None
            if is_open and total < cfg.kmax and idx.size >= 3:
                diagnostics["split_attempts"] += 1
                split = _split_candidates(points[idx], parent, rng, retry=retry)
            if split is not None:
                sub_labels, sub_centroids = split
                next_clusters.append((idx[sub_labels == 0], sub_centroids[0], True, None))
                next_clusters.append((idx[sub_labels == 1], sub_centroids[1], True, None))
                total += 1
                any_split = True
            else:
                next_clusters.append((idx, parent, False, verdict))
        clusters = next_clusters
        diagnostics["split_rounds"] += 1
        diagnostics["retry_rounds"] += retry
        if any_split:
            retry = False
            continue
        if retry:
            diagnostics["stopped_by"] = "retry_refused"
            break
        screened = []
        for idx, centroid, _, verdict in clusters:
            if verdict is None:
                verdict = _gaussian_screen(points[idx]) > _AD_CRITICAL
            screened.append((idx, centroid, verdict, verdict))  # a failing cluster reopens
        clusters = screened
        if not any(is_open for _, _, is_open, _ in clusters):
            diagnostics["stopped_by"] = "gaussian"
            break
        retry = True
    if len(clusters) >= cfg.kmax:
        diagnostics["stopped_by"] = "kmax"

    labels = np.empty(n, dtype=int)
    for j, (idx, _, _, _) in enumerate(clusters):
        labels[idx] = j
    centroids = np.array([centroid for _, centroid, _, _ in clusters])
    return ClusteringResult(labels, centroids, len(clusters), Algorithm.XMEANS, diagnostics)


# Element budget of the blocks of DBSCAN and MeanShift, 2**20 float64
# values (8 MB), whatever n is. Each (rows, window) array of a DBSCAN block
# (_eps_blocks) holds a sixteenth of it; the (rows, n) arrays of one
# MeanShift block hold a quarter of it together. Both allocate their block
# arrays once per call and reuse their leading parts for every block.
_BLOCK_ELEMENTS = 1 << 20

# The distance tests of DBSCAN and MeanShift sum a squared length with long
# vectorised loops, in whatever order is fast, and settle (_settle) every
# row that lies clear of the bound by the relative margin
# delta = 4 (d + 2) 2**-52; only the rest are recomputed with the exact
# expression (an einsum, or np.linalg.norm). Why that is safe, with
# u = 2**-53 and gamma = d u / (1 - d u):
# - Both sums add the same d terms r_j * r_j, r_j the same rounded
#   coordinate difference (x - y and y - x round to negatives). The terms
#   are non-negative, so any evaluation, in any order, with or without FMA,
#   rounds each term at most d times and lies within gamma S of their exact
#   sum S (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
#   section 3.1). So the exact D and the fast F satisfy
#   F / rho <= D <= F rho with rho = (1 + gamma) / (1 - gamma) <= 1 + 2.5 d u.
# - The bound adds at most three roundings of u each: the square T of the
#   test's threshold b, T times 1 -/+ delta (a multiple of 2**-52, so
#   1 -/+ delta is exact), and the correctly rounded square root of D where
#   the test takes one. F <= T (1 - delta) then gives
#   fl(sqrt(D))**2 <= b**2 (1 + u)**4 (1 - delta) rho < b**2, and
#   F >= T (1 + delta) gives fl(sqrt(D))**2 >= b**2 (1 - u)**4 (1 + delta) / rho
#   > b**2: strict both ways, so <, <= and a test on sqrt(D) all agree with
#   the fast verdict.
# - Underflow adds at most 2**-1075 per rounded product (sums of subnormals
#   are exact), d 2**-1074 in all, far inside the slack 5 d u T once
#   T >= _SETTLE_MIN. A NaN F fails both comparisons and is recomputed. An
#   inf F means D overflows too or exceeds 2**1023 > T, as T <= _SETTLE_MAX.
#   A bound outside [_SETTLE_MIN, _SETTLE_MAX] sends every row to the exact
#   test.
_ULP = float(np.finfo(float).eps)  # 2**-52
_SETTLE_MIN, _SETTLE_MAX = 2.0**-960, 2.0**960


def _settle(fast: np.ndarray, bound: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(inside, unsure) for `fast`, squared lengths of d-vectors summed in
    any order, against `bound`, the square of a test's threshold. Where
    unsure is False, inside is the exact test's verdict, whether it is <, <=
    or a comparison of the rounded norm; the caller recomputes the unsure
    rows exactly."""
    if not _SETTLE_MIN <= bound <= _SETTLE_MAX:
        inside = np.zeros(fast.shape, dtype=bool)
        return inside, ~inside
    delta = 4 * (d + 2) * _ULP
    inside = fast <= bound * (1.0 - delta)
    return inside, ~(inside | (fast >= bound * (1.0 + delta)))


def _eps_blocks(lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    """(block, start, stop): consecutive runs of `rows`, ascending positions
    in DBSCAN's sweep order, with the window [start, stop) their rows share.
    lo and hi never decrease, so that window holds every row's. Each run is
    halved until it has at most _BLOCK_ELEMENTS / 16 (row, window row)
    pairs, so the block's two float arrays, 1 MB together at most, stay in
    a core's L2 cache; a single row always runs."""
    pairs = _BLOCK_ELEMENTS // 16
    a = 0
    while a < rows.size:
        first = rows[a]
        b = min(rows.size, a + max(1, pairs // (hi[first] - lo[first])))
        while b - a > 1 and (b - a) * (hi[rows[b - 1]] - lo[first]) > pairs:
            b = a + (b - a) // 2
        yield rows[a:b], lo[first], hi[rows[b - 1]]
        a = b


def _column_sum(
    columns: np.ndarray, x: np.ndarray, js: range, acc: np.ndarray, scratch: np.ndarray, onto: bool = False
) -> np.ndarray:
    """acc[r, i] = sum over j in js of (columns[j][i] - x[r, j])**2, the terms
    added left to right, each a loop over a whole (rows, n) array: the first
    is formed in acc itself, each later one in scratch. With onto, acc's own
    values come first and every term is formed in scratch."""
    for j in js:
        t = scratch if onto else acc
        np.subtract(columns[j], x[:, j : j + 1], out=t)
        np.square(t, out=t)
        if onto:
            acc += t
        onto = True
    return acc


def _within_eps(x: np.ndarray, y: np.ndarray, eps: float, workspace: np.ndarray | None = None) -> np.ndarray:
    """(rows of x, rows of y) booleans: the pair lies within eps, as the
    einsum of its difference row decides it, the same expression for every
    pair whatever the block: so the test sees the values an all-pairs
    (n, n, d) array would hold. The squared distances are first summed one
    coordinate at a time (_column_sum), each loop over the window, and settled
    (_settle); einsum reruns only on the pairs near eps. The sums go to the
    prefixes of `workspace`'s two flat rows, or to new arrays when it is
    missing or too small."""
    d = x.shape[1]
    size = x.shape[0] * y.shape[0]
    if workspace is None or size > workspace.shape[1]:
        workspace = np.empty((2, size))
    fast, term = (buf[:size].reshape(x.shape[0], y.shape[0]) for buf in workspace)
    _column_sum(y.T, x, range(d), fast, term)
    # Squared by a product: a float ** 2 that overflows raises; this is inf.
    bound = eps * eps
    inside, unsure = _settle(fast, bound, d)
    if unsure.any():  # np.nonzero alone scans far slower
        rows, cols = np.nonzero(unsure)
        diff = x[rows] - y[cols]
        inside[rows, cols] = np.einsum("ij,ij->i", diff, diff) <= bound
    return inside


def dbscan(points: np.ndarray, cfg: DbscanConfig) -> ClusteringResult:
    """Density-connected expansion with deterministic input-order seeding.
    Core points have >= min_pts neighbors within eps, self included.

    Both passes sweep the rows sorted by their first coordinate: a block of
    rows is compared only with the window of rows whose first coordinate
    lies within 2*eps of the block's. The window is twice as wide as a
    neighbour can be far, so rounding in its bounds never drops a pair.
    The first pass counts each row's neighbours to flag the cores and keeps
    no lists. The second grows each cluster from the first unlabelled core
    in input order, one whole frontier at a time: the frontier's cores, in
    sweep order, are compared in blocks with the still unlabelled rows of
    their windows, and every row a block reaches is labelled at once, so it
    enters one frontier only. A cluster's members are the points reachable
    through cores from its seed that no earlier cluster claimed, so the
    order of visits inside a cluster cannot change any label. Memory is
    O(n + block).
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    order = np.argsort(points[:, 0], kind="stable")
    swept = points[order]
    first = swept[:, 0]
    lo = np.searchsorted(first, first - 2.0 * cfg.eps, side="left")
    hi = np.searchsorted(first, first + 2.0 * cfg.eps, side="right")

    # Below, rows are positions in the sweep order; order[p] is the input row.
    # Every block but a single wide row fits the workspace (_eps_blocks).
    workspace = np.empty((2, min(_BLOCK_ELEMENTS // 16, n * n)))
    counts = np.empty(n, dtype=np.intp)
    for block, start, stop in _eps_blocks(lo, hi, np.arange(n)):
        counts[block] = _within_eps(swept[block], swept[start:stop], cfg.eps, workspace).sum(axis=1)
    core = counts >= cfg.min_pts
    cores = np.flatnonzero(core)

    labels = np.full(n, -1, dtype=int)
    unlabelled = np.ones(n, dtype=bool)
    k = 0
    for seed in cores[np.argsort(order[cores])]:
        if not unlabelled[seed]:
            continue
        unlabelled[seed] = False
        labels[order[seed]] = k
        frontier = np.array([seed])
        while frontier.size:
            grown = []
            for block, start, stop in _eps_blocks(lo, hi, frontier):
                window = start + np.flatnonzero(unlabelled[start:stop])
                reached = window[_within_eps(swept[block], swept[window], cfg.eps, workspace).any(axis=0)]
                unlabelled[reached] = False
                labels[order[reached]] = k
                grown.append(reached[core[reached]])
            frontier = np.sort(np.concatenate(grown))
        k += 1

    if k > 0:
        reps = np.array([points[labels == j].mean(axis=0) for j in range(k)])
    else:
        reps = np.empty((0, d))
    return ClusteringResult(labels, reps, k, Algorithm.DBSCAN, {"noise_points": int(np.sum(labels == -1))})


def _sq_dists(columns: np.ndarray, x: np.ndarray, lo: int, m: int, bufs: list[np.ndarray]) -> np.ndarray:
    """(rows of x, n) squared distances over the coordinates [lo, lo + m),
    from the contiguous transpose `columns` of the (n, d) points, written
    into bufs[0]; bufs holds _sq_dists_live(m) (rows, n) arrays, and the
    others are scratch.

    The per-coordinate terms are added in the order numpy's pairwise sum
    adds the m values of one contiguous row, which is what
    np.sum((points - x) ** 2, axis=1) does for a single x: left to right
    below 8 values; up to 128, eight accumulators over strides of 8, joined
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest left to right;
    above 128, the two halves split at a multiple of 8. So every distance is
    bit-identical to the one-row expression, whatever d is. Every left-to-right
    run is one _column_sum, the loop DBSCAN's _within_eps runs too.
    """
    if m < 8:
        if m == 0:
            bufs[0].fill(0.0)
        return _column_sum(columns, x, range(lo, lo + m), bufs[0], bufs[1])
    if m <= 128:
        tail = lo + m - m % 8

        def pair(j, acc, other, t):  # r_j + r_{j+1}, each the strided sum from lo + j
            _column_sum(columns, x, range(lo + j, tail, 8), acc, t)
            acc += _column_sum(columns, x, range(lo + j + 1, tail, 8), other, t)
            return acc

        # Each pair is joined before the next is built, so at most two
        # joined pairs, two accumulators and one term are live at once.
        acc = pair(0, *bufs[0:3])
        acc += pair(2, *bufs[1:4])
        right = pair(4, *bufs[1:4])
        right += pair(6, *bufs[2:5])
        acc += right
        return _column_sum(columns, x, range(tail, lo + m), acc, bufs[1], onto=True)
    half = m // 2 - (m // 2) % 8
    acc = _sq_dists(columns, x, lo, half, bufs)
    acc += _sq_dists(columns, x, lo + half, m - half, bufs[1:])
    return acc


def _sq_dists_live(m: int) -> int:
    """The (rows, n) arrays _sq_dists needs for m coordinates: five up to
    128, plus one finished half for each split above that."""
    return 5 if m <= 128 else 1 + _sq_dists_live(m - (m // 2 - (m // 2) % 8))


def meanshift(points: np.ndarray, cfg: MeanShiftConfig) -> ClusteringResult:
    """Gaussian-kernel mean-shift: iterate every point to its density mode,
    then merge attractors within merge_radius into shared basins.

    The seeds move in blocks: one pass weighs a block of unconverged seeds
    against every point, then each seed takes its own step, a gemv of its
    weight row. A seed that stops leaves the block and the next point
    takes its place. The block's (rows, n) arrays are allocated once per
    call and hold at most _BLOCK_ELEMENTS / 4 values together, or one
    row's when a single row needs more; each step uses their leading rows.
    Each step is the arithmetic of moving one seed at a time (see
    _sq_dists), so the attractors are bit-identical to it. The stacked
    matmul (rows, 1, n) @ (n, d) runs that gemv once per row; one 2-D
    (rows, n) @ (n, d) matmul for the whole block is a gemm and would not
    be bit-identical. The stop and merge tests are vectorised and settled
    (_settle), with np.linalg.norm only for rows near the bound.
    `diagnostics` counts the steps of all seeds and the seeds stopped by
    max_iter.
    """
    # C order: the gemv's layout, and so its rounding, does not depend on
    # how the caller laid the points out.
    points = np.ascontiguousarray(points, dtype=float)
    n, d = points.shape
    columns = np.ascontiguousarray(points.T)
    live = _sq_dists_live(d)
    # A quarter of the budget is no slower than all of it at n=1500, d=3.
    block = max(1, _BLOCK_ELEMENTS // (4 * max(n, 1) * live))
    workspace = np.empty((live, min(block, n) * n))
    # -s / (2 h^2) == s / -(2 h^2) exactly: rounding to nearest is symmetric.
    scale = -(2.0 * cfg.bandwidth**2)
    attractors = np.empty_like(points)
    seeds = np.arange(min(block, n))  # the point each block row started at
    x = points[seeds]
    steps = np.zeros(seeds.size, dtype=int)
    queued = seeds.size
    diagnostics = {"seed_steps": 0, "max_iter_stops": 0}
    # Squared by a product: a float ** 2 that overflows raises; this is inf.
    tol_sq = cfg.shift_tol * cfg.shift_tol
    while seeds.size:
        w = _sq_dists(columns, x, 0, d, [buf[: seeds.size * n].reshape(seeds.size, n) for buf in workspace])
        np.divide(w, scale, out=w)
        np.exp(w, out=w)
        moved = np.empty_like(x)
        np.matmul(w[:, None, :], points, out=moved[:, None, :])
        moved /= w.sum(axis=1)[:, None]
        shift = moved - x
        converged, unsure = _settle(np.einsum("ij,ij->i", shift, shift), tol_sq, d)
        for r in np.flatnonzero(unsure):
            converged[r] = np.linalg.norm(shift[r]) < cfg.shift_tol
        x = moved
        steps += 1
        stopped = converged | (steps == cfg.max_iter)
        diagnostics["seed_steps"] += int(steps[stopped].sum())
        diagnostics["max_iter_stops"] += int(np.count_nonzero(stopped & ~converged))
        attractors[seeds[stopped]] = x[stopped]
        fresh = np.arange(queued, min(n, queued + np.count_nonzero(stopped)))
        queued += fresh.size
        moving = ~stopped
        seeds = np.concatenate([seeds[moving], fresh])
        x = np.concatenate([x[moving], points[fresh]])
        steps = np.concatenate([steps[moving], np.zeros(fresh.size, dtype=int)])

    # Mode-major merge with the labels of a point-major first-match loop, in
    # which each point joins the first existing mode within merge_radius or
    # becomes a new mode. Here each new mode is the first attractor that no
    # mode claimed yet, and it claims every unclaimed attractor within
    # merge_radius. No unclaimed attractor precedes it, so the rows it claims
    # come after it, where the point loop has it already; and each lay beyond
    # merge_radius of every earlier mode, so it is their first match.
    modes: list[np.ndarray] = []
    labels = np.empty(n, dtype=int)
    radius_sq = cfg.merge_radius * cfg.merge_radius
    free = np.arange(n)
    while free.size:
        mode = attractors[free[0]]
        rest = free[1:]
        diff = attractors[rest] - mode
        near, unsure = _settle(np.einsum("ij,ij->i", diff, diff), radius_sq, d)
        for r in np.flatnonzero(unsure):
            near[r] = np.linalg.norm(diff[r]) <= cfg.merge_radius
        labels[free[0]] = labels[rest[near]] = len(modes)
        modes.append(mode)
        free = rest[~near]
    return ClusteringResult(labels, np.array(modes), len(modes), Algorithm.MEANSHIFT, diagnostics)
