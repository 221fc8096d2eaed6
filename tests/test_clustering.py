import numpy as np
import pytest

from fedckt.clustering import OBJECTIVE_CHUNK, CentroidSet, _objective, assign_nearest, cmeans_fit
from fedckt.rng import substream

from helpers import (
    brute_force_two_clusters,
    exhaustive_nearest,
    reference_assign_nearest,
    reference_cmeans_fit,
    reference_objective,
    traced_peak,
)


def stack_of(vectors):
    return np.asarray(vectors, dtype=np.float64)


def random_stack(rng, m=None, dim=None):
    m = m or int(rng.integers(2, 12))
    dim = dim or int(rng.integers(1, 6))
    return stack_of(rng.normal(size=(m, dim)) * rng.uniform(0.5, 3.0))


class TestFit:
    def test_single_cluster_is_exact_mean(self):
        rng = substream(0)
        stack = random_stack(rng, m=9, dim=4)
        centroids, assignment = cmeans_fit(stack, 1, seed=0)
        assert np.array_equal(centroids.centroids[0], stack.mean(axis=0))
        assert np.bincount(assignment, minlength=1).tolist() == [9]
        assert assignment.dtype == np.int64
        assert np.array_equal(assignment, np.zeros(len(stack)))

    def test_two_blob_analytic_optimum(self):
        stack = stack_of([[0.0], [0.1], [10.0], [10.1]])
        centroids, assignment = cmeans_fit(stack, 2, seed=3)
        got = sorted(centroids.centroids[:, 0])
        assert np.allclose(got, [0.05, 10.05], atol=1e-12)
        obj = centroids.objective_trace[-1]
        best_obj, best_partition = brute_force_two_clusters(stack)
        assert abs(obj - 0.01) < 1e-12
        assert abs(obj - best_obj) < 1e-12
        clusters = {}
        for row, cl in enumerate(assignment):
            clusters.setdefault(cl, set()).add(row)
        assert frozenset(frozenset(v) for v in clusters.values()) == best_partition

    def test_duplicate_inputs_repair_empty_cluster(self):
        stack = stack_of([[1.0, 1.0]] * 5)
        centroids, assignment = cmeans_fit(stack, 2, seed=1)
        assert centroids.objective_trace[-1] == 0.0
        assert np.bincount(assignment, minlength=2).tolist() == [4, 1]

    def test_objective_trace_monotone(self):
        rng = substream(202)
        for _ in range(100):
            stack = random_stack(rng)
            c = int(rng.integers(1, len(stack) + 1))
            centroids, _ = cmeans_fit(stack, c, seed=int(rng.integers(2**31)))
            trace = centroids.objective_trace
            assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("m, pool", [(10, 2000), (30, 200), (10, 30)])
    def test_objective_trace_monotone_on_logit_stacks(self, m, pool):
        # the bench's widths 20000, 2000 and 300: an objective chunk holds
        # one row, four rows or 27 rows. Each client uploads a blend of
        # three Dirichlet probability blocks, so some fits take several passes
        rng = substream(219, m, pool)
        lengths = []
        for seed in range(8):
            blocks = logit_stack(rng, 3, pool)
            stack = rng.dirichlet(np.ones(3), size=m) @ blocks
            trace = cmeans_fit(stack, 3, seed=seed)[0].objective_trace
            assert all(a >= b - 1e-12 * a for a, b in zip(trace, trace[1:])), (seed, trace)
            lengths.append(len(trace))
        assert max(lengths) >= 3, lengths

    def test_centroid_mean_identity(self):
        rng = substream(203)
        for _ in range(30):
            stack = random_stack(rng)
            c = int(rng.integers(1, len(stack) + 1))
            centroids, assignment = cmeans_fit(stack, c, seed=int(rng.integers(2**31)))
            for j in range(c):
                members = stack[assignment == j]
                assert len(members), "no cluster may end empty"
                assert np.allclose(
                    centroids.centroids[j], np.mean(members, axis=0), atol=1e-10
                )

    def test_assignment_optimality(self):
        rng = substream(204)
        for _ in range(30):
            stack = random_stack(rng)
            c = int(rng.integers(1, len(stack) + 1))
            centroids, assignment = cmeans_fit(stack, c, seed=int(rng.integers(2**31)))
            for i in range(len(stack)):
                own = ((stack[i] - centroids.centroids[assignment[i]]) ** 2).sum()
                others = ((stack[i] - centroids.centroids) ** 2).sum(axis=1)
                assert own <= others.min() + 1e-12

    def test_permutation_invariance_up_to_relabeling(self):
        # on well-separated blobs the fitted partition is unique, so neither
        # the stack order nor the seeding can change it (only the labels)
        rng = substream(205)
        blob_centers = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        vectors = np.vstack([c + 0.1 * rng.normal(size=(4, 3)) for c in blob_centers])
        perm = rng.permutation(len(vectors))
        _, assign_a = cmeans_fit(vectors, 3, seed=42)
        _, assign_b = cmeans_fit(vectors[perm], 3, seed=43)

        def partition(rows, assignment):
            groups = {}
            for row, cl in zip(rows, assignment):
                groups.setdefault(cl, set()).add(int(row))
            return frozenset(frozenset(g) for g in groups.values())

        assert partition(range(len(vectors)), assign_a) == partition(perm, assign_b)

    def test_deterministic_given_seed(self):
        rng = substream(206)
        stack = random_stack(rng, m=10, dim=4)
        a, _ = cmeans_fit(stack, 3, seed=9)
        b, _ = cmeans_fit(stack, 3, seed=9)
        assert np.array_equal(a.centroids, b.centroids)


class TestAssignNearest:
    def test_exact_centroid_match(self):
        centroids = CentroidSet(np.eye(4)[:3])
        assert assign_nearest(np.eye(4)[2], centroids) == 2

    def test_tie_breaks_to_lowest_index(self):
        centroids = CentroidSet(np.array([[0.0], [2.0]]))
        assert assign_nearest(np.array([1.0]), centroids) == 0

    def test_matches_exhaustive_scan(self):
        rng = substream(207)
        for _ in range(100):
            c = int(rng.integers(1, 7))
            dim = int(rng.integers(1, 5))
            centroids = CentroidSet(rng.normal(size=(c, dim)))
            vec = rng.normal(size=dim)
            assert assign_nearest(vec, centroids) == exhaustive_nearest(
                vec, centroids.centroids
            )


class TestObjective:
    def test_points_equal_centroids(self):
        stack = stack_of([[0.0, 1.0], [5.0, 5.0]])
        centroids, _ = cmeans_fit(stack, 2, seed=0)
        assert centroids.objective_trace[-1] == 0.0

    def test_single_cluster_is_total_squared_deviation(self):
        rng = substream(208)
        stack = random_stack(rng, m=12, dim=3)
        centroids, _ = cmeans_fit(stack, 1, seed=0)
        expected = ((stack - stack.mean(axis=0)) ** 2).sum()
        assert np.isclose(centroids.objective_trace[-1], expected)

    def test_matches_independent_recomputation(self):
        rng = substream(209)
        stack = random_stack(rng, m=10, dim=4)
        centroids, assignment = cmeans_fit(stack, 3, seed=1)
        manual = sum(
            ((stack[i] - centroids.centroids[assignment[i]]) ** 2).sum()
            for i in range(len(stack))
        )
        assert np.isclose(centroids.objective_trace[-1], manual)


def logit_stack(rng, m, pool, classes=10):
    """m flattened (pool, classes) probability matrices, as clients upload."""
    return rng.dirichlet(np.ones(classes), size=(m, pool)).reshape(m, pool * classes)


class TestReference:
    """cmeans_fit and assign_nearest against the copies in helpers that
    recompute every norm at each use: equal bit for bit."""

    def assert_fit_matches(self, points, c, seed):
        fit, assignment = cmeans_fit(points, c, seed=seed)
        centroids, ref_assignment, trace = reference_cmeans_fit(points, c, seed=seed)
        assert np.array_equal(fit.centroids, centroids)
        assert np.array_equal(assignment, ref_assignment)
        assert np.array(fit.objective_trace).tobytes() == np.array(trace).tobytes()
        return fit, assignment

    @pytest.mark.parametrize("m, dim, c", [(12, 4, 3), (30, 50, 5), (7, 1, 7), (9, 3, 1)])
    def test_fit_matches_reference(self, m, dim, c):
        rng = substream(210, m, dim)
        for seed in range(5):
            self.assert_fit_matches(rng.normal(size=(m, dim)) * rng.uniform(0.5, 3.0), c, seed)

    def test_fit_matches_reference_at_pool_width(self):
        # perfed_dirichlet100's shape: 10 uploads of a 2000 x 10 pool block, c = 3
        rng = substream(211)
        for seed in range(3):
            self.assert_fit_matches(logit_stack(rng, 10, 2000), 3, seed)

    @pytest.mark.parametrize("c", [2, 3, 5])
    def test_coincident_points_match_reference(self, c):
        # all points coincide: k-means++ finds no distance left to draw by
        # (total <= 0), and Lloyd repairs every cluster but the first
        stack = stack_of([[1.0, -2.0, 0.5]] * 6)
        fit, assignment = self.assert_fit_matches(stack, c, seed=c)
        assert fit.objective_trace[-1] == 0.0
        assert np.bincount(assignment, minlength=c).min() >= 1

    def test_repeated_locations_match_reference(self):
        # 3 distinct locations and c = 5: seeding runs out of distance after
        # 3 picks, and two clusters start empty and are repaired
        rng = substream(212)
        stack = np.repeat(rng.normal(size=(3, 6)), [4, 3, 2], axis=0)
        for seed in range(4):
            _, assignment = self.assert_fit_matches(stack, 5, seed)
            assert np.bincount(assignment, minlength=5).min() >= 1

    def test_centroid_update_matches_mean_bitwise(self):
        # the update adds a cluster's rows to zeros in row order and divides
        # once, as .mean(axis=0) does: entries over 30 binades make the
        # order of the additions show, and all-(-0.0) columns a start from
        # the first row instead of +0.0
        rng = substream(217)
        for seed in range(4):
            stack = rng.normal(size=(40, 300)) * 2.0 ** rng.integers(-15, 15, size=(40, 300))
            stack[:, :5] = -0.0
            fit, _ = cmeans_fit(stack, 3, seed=seed)
            centroids, _, _ = reference_cmeans_fit(stack, 3, seed=seed)
            assert fit.centroids.tobytes() == centroids.tobytes()

    @pytest.mark.parametrize(
        "m, width",
        [
            (1, 150), (10, 150), (1, 20000), (10, 20000),  # the bench stacks' shapes
            (1, OBJECTIVE_CHUNK), (1, OBJECTIVE_CHUNK + 1), (2, OBJECTIVE_CHUNK - 1),
            (3, OBJECTIVE_CHUNK // 2), (5, 3001), (7, 5), (12, 8193), (40, 1),
            (9, 2000), (100, 150),
        ],
    )
    def test_streamed_objective_matches_reference(self, m, width):
        # rows longer than, as long as and shorter than a chunk; a last
        # chunk with fewer rows than the others (3, 5, 9 and 100 rows);
        # magnitudes over 20 binades make the order of the adds show
        rng = substream(218, m, width)
        for c in sorted({1, min(3, m), m}):
            points = rng.normal(size=(m, width)) * 2.0 ** rng.integers(-10, 10, size=(m, width))
            centroids = rng.normal(size=(c, width))
            assign = rng.integers(0, c, size=m)
            got = _objective(points, centroids, assign)
            assert np.float64(got).tobytes() == np.float64(
                reference_objective(points, centroids, assign)
            ).tobytes(), (m, width, c)

    def assert_assign_matches(self, fit, vectors):
        for vec in vectors:
            pick = assign_nearest(vec, fit)
            assert pick == reference_assign_nearest(vec, fit.centroids)

    @pytest.mark.parametrize("scale", [3e-161, 1e150])
    def test_scaled_stacks_match_reference(self, scale):
        # _sq_dists doubles the centroids where the reference doubles the
        # points; the two agree bit for bit at any scale short of overflow.
        # At 3e-161 the cross products are subnormal, where doubling after
        # the product, 2.0 * (points @ centroids.T), rounds differently and
        # fails every seed; at 1e150 they near 1e300
        rng = substream(214)
        for seed in range(8):
            stack = logit_stack(rng, 20, 2) * scale
            fit, _ = self.assert_fit_matches(stack, 4, seed)
            self.assert_assign_matches(fit, stack)

    def test_unaligned_rows_match_reference(self):
        # width 5: k-means++ picks rows at 40-byte offsets into the stack;
        # the reference's product reads such a row unaligned where
        # _sq_dists reads a fresh doubled copy of it
        rng = substream(215)
        for seed in range(6):
            stack = rng.normal(size=(40, 5)) * rng.uniform(0.5, 3.0)
            fit, _ = self.assert_fit_matches(stack, 4, seed)
            self.assert_assign_matches(fit, stack)

    def test_assign_nearest_matches_reference(self):
        rng = substream(213)
        for seed in range(3):
            fit, _ = cmeans_fit(logit_stack(rng, 10, 200), 3, seed=seed)
            for vec in logit_stack(rng, 20, 200):
                pick = assign_nearest(vec, fit)
                assert pick == reference_assign_nearest(vec, fit.centroids)
                assert pick == exhaustive_nearest(vec, fit.centroids)


class TestMemory:
    def test_fit_holds_no_second_copy_of_the_stack(self):
        # perfed_dirichlet100's shape, the stack allocated before tracing
        # starts. A fit holds (c, L) arrays and (m, c) distances, and the
        # objective one chunk of whole rows (here one row): 0.64x.
        # Gathering the objective's (m, L) centroids as one array (1.30x)
        # or copying a cluster's rows in the update (1.50x at seed 2) fails
        rng = substream(216)
        for seed in range(3):
            stack = logit_stack(rng, 10, 2000)
            peak = traced_peak(cmeans_fit, stack, 3, seed=seed)
            assert peak < 1.0 * stack.nbytes, (seed, peak / stack.nbytes)

    @pytest.mark.parametrize(
        "stack, c",
        [
            (np.arange(24.0).reshape(8, 3) ** 1.5, 3),  # m > c
            (np.arange(15.0).reshape(5, 3) ** 1.5, 5),  # m = c
            (np.arange(3.0).reshape(1, 3), 1),  # m = c = 1
            (stack_of([[1.0, -2.0, 0.5]] * 6), 3),  # empty-cluster repair
        ],
    )
    def test_fit_shares_no_memory_with_points(self, stack, c):
        # run_rounds overwrites the stack with the next uploads while the
        # fitted centroids are still in use
        for seed in range(3):
            fit, _ = cmeans_fit(stack, c, seed=seed)
            assert not np.shares_memory(fit.centroids, stack)
            assert not np.shares_memory(fit.norms, stack)
