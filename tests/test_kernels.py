import numpy as np
import pytest

from dphist import kernels

from oracles import objective_value


def random_case(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 25, size=(rng.integers(4, 30), rng.integers(4, 30)))
    r0 = int(rng.integers(0, counts.shape[0] - 2))
    r1 = int(rng.integers(r0 + 2, counts.shape[0] + 1))
    c0 = int(rng.integers(0, counts.shape[1] - 2))
    c1 = int(rng.integers(c0 + 2, counts.shape[1] + 1))
    return counts, r0, r1, c0, c1


class TestObjectiveKernels:
    def test_scan_matches_pointwise(self):
        for seed in range(25):
            counts, r0, r1, c0, c1 = random_case(seed)
            for row_split in (True, False):
                scan = kernels.objective_scan(counts, r0, r1, c0, c1, row_split)
                extent = (r1 - r0) if row_split else (c1 - c0)
                assert scan.shape == (extent,)
                for k in range(1, extent + 1):
                    assert scan[k - 1] == pytest.approx(
                        kernels.objective_at(counts, r0, r1, c0, c1, k, row_split)
                    )

    def test_backends_agree_with_reference(self):
        for seed in range(25):
            counts, r0, r1, c0, c1 = random_case(seed)
            block = counts[r0:r1, c0:c1].tolist()
            for row_split in (True, False):
                extent = (r1 - r0) if row_split else (c1 - c0)
                for k in range(1, extent + 1):
                    ref = objective_value(block, k, row_split)
                    assert kernels.objective_at(counts, r0, r1, c0, c1, k, row_split) == pytest.approx(ref)


class TestAnswerWorkload:
    @staticmethod
    def reference(bounds, ncounts, queries):
        out = []
        for qr0, qr1, qc0, qc1 in queries:
            acc = 0.0
            for (r0, r1, c0, c1), n in zip(bounds, ncounts):
                rows = max(0, min(r1, qr1) - max(r0, qr0))
                cols = max(0, min(c1, qc1) - max(c0, qc0))
                acc += n * rows * cols / ((r1 - r0) * (c1 - c0))
            out.append(acc)
        return out

    def make_case(self, seed):
        rng = np.random.default_rng(seed)
        # random slab partition of a 16x16 grid
        cuts = sorted({0, 16, *map(int, rng.integers(1, 16, size=5))})
        bounds = np.array(
            [(a, b, 0, 16) for a, b in zip(cuts, cuts[1:])], dtype=np.int64
        )
        ncounts = rng.normal(0, 10, size=len(bounds))
        queries = []
        for _ in range(40):
            r0, c0 = rng.integers(0, 16, size=2)
            queries.append((int(r0), int(rng.integers(r0 + 1, 17)), int(c0), int(rng.integers(c0 + 1, 17))))
        return bounds, ncounts, np.array(queries, dtype=np.int64)

    def test_matches_reference(self):
        for seed in range(10):
            bounds, ncounts, queries = self.make_case(seed)
            ref = self.reference(bounds.tolist(), ncounts.tolist(), queries.tolist())
            assert kernels.answer_workload(bounds, ncounts, queries) == pytest.approx(ref, abs=1e-9)

