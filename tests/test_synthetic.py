import numpy as np
from numpy.testing import assert_allclose

from covlasso import (
    CovAccumulator,
    InvalidInput,
    PlantedDependency,
    accumulate,
    finalize,
    generate,
    lambda_max,
    reduce_problem,
    solution_path,
)
from covlasso.synthetic import derive_seed, mix64, normals, unit_doubles

from conftest import raises_exact
from oracles import reference_normals


class TestSplitMix64:
    def test_known_vector_seed_zero(self):
        # First outputs of the standard SplitMix64 stream seeded with 0.
        from covlasso.synthetic import _outputs

        got = [int(v) for v in _outputs(0, 0, 3)]
        assert got == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_random_access_matches_streaming(self):
        from covlasso.synthetic import _outputs

        whole = _outputs(1234, 0, 10)
        assert np.array_equal(whole[4:], _outputs(1234, 4, 6))

    def test_unit_doubles_in_range(self):
        u = unit_doubles(99, 10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02

    def test_mix64_is_deterministic(self):
        assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF
        assert derive_seed(5, 1, 0) == 0x3281E4424633355C
        assert derive_seed(2**64 - 1, 3, 999) == 0xCE9BE6A8056EB1A4
        zs = [0, 1, 0x9E3779B97F4A7C15, 2**63 + 17, 2**64 - 1]
        got = mix64(np.array(zs, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [mix64(z) for z in zs]


class TestNormals:
    def test_matches_scalar_reference_bitwise(self):
        for seed in (0, 1, 0xDEADBEEF, 2**63 + 17):
            for count in (1, 2, 7, 64, 101):
                got = normals(seed, count)
                ref = reference_normals(seed, count)
                assert np.array_equal(got, ref), (seed, count)

    def test_moments(self):
        z = normals(7, 50000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_derive_seed_separates_streams(self):
        seeds = {
            derive_seed(5, tag, idx) for tag in (1, 2, 3) for idx in range(50)
        }
        assert len(seeds) == 150


class TestGenerate:
    def test_deterministic(self):
        a = generate(6, 40, 6, seed=123)
        b = generate(6, 40, 6, seed=123)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = generate(4, 10, 4, seed=1)
        b = generate(4, 10, 4, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_planted_column_is_exact_combination(self):
        planted = PlantedDependency(2, {4: -1.25, 0: 0.5}.items())
        logits = generate(5, 64, 5, planted=planted, seed=77)
        expect = 0.5 * logits.data[:, 0] - 1.25 * logits.data[:, 4]
        assert_allclose(logits.data[:, 2], expect, rtol=0, atol=0)
        assert planted.support == (0, 4)
        assert planted.coefficients == (0.5, -1.25)
        assert planted.target == 2

    def test_unit_coefficient_copies_column_bitwise(self):
        logits = generate(4, 32, 4, planted=PlantedDependency(0, [(3, 1.0)]), seed=5)
        assert np.array_equal(logits.data[:, 0], logits.data[:, 3])

    def test_labels_come_from_pre_noise_logits(self):
        planted = PlantedDependency(1, [(0, 0.8)])
        noisy = generate(5, 200, 5, noise_sigma=0.5, planted=planted, seed=9)
        clean = generate(5, 200, 5, noise_sigma=0.0, planted=planted, seed=9)
        assert np.array_equal(noisy.labels, clean.labels)
        keep = np.arange(5) != 1
        assert np.array_equal(noisy.data[:, keep], clean.data[:, keep])
        assert not np.array_equal(noisy.data[:, 1], clean.data[:, 1])

    def test_low_rank_covariance_is_rank_deficient(self):
        logits = generate(10, 500, 3, seed=3)
        cov = finalize(accumulate(CovAccumulator(10), logits))
        vals = np.linalg.eigvalsh(cov.data)
        assert vals[6] / vals[-1] < 1e-10  # only 3 nonzero directions

    def test_spec_validation(self):
        with raises_exact(InvalidInput, "need at least one category"):
            generate(0, 1, 1)
        with raises_exact(InvalidInput, "need at least one sample"):
            generate(2, 0, 1)
        with raises_exact(InvalidInput, "latent rank must be at least 1"):
            generate(2, 1, 0)
        with raises_exact(InvalidInput, "noise sigma must be nonnegative, got -0.1"):
            generate(2, 1, 1, noise_sigma=-0.1)
        expect = (
            "noise sigma 0.5 needs a planted dependency: "
            "noise is added to the planted target only"
        )
        with raises_exact(InvalidInput, expect):
            generate(2, 1, 1, noise_sigma=0.5)
        with raises_exact(InvalidInput, "planted support must not contain the target"):
            generate(3, 1, 1, planted=PlantedDependency(0, [(0, 1.0)]))
        with raises_exact(InvalidInput, "planted index 5 outside [0, 3)"):
            generate(3, 1, 1, planted=PlantedDependency(0, [(5, 1.0)]))
        expect = "planted coefficient for 1 must be finite nonzero"
        with raises_exact(InvalidInput, expect):
            generate(3, 1, 1, planted=PlantedDependency(0, [(1, 0.0)]))
        with raises_exact(InvalidInput, "planted index 1 repeated"):
            generate(3, 1, 1, planted=PlantedDependency(0, [(1, 0.5), (1, 0.25)]))
        for seed in (1 << 64, -(1 << 63) - 1):
            with raises_exact(InvalidInput, f"seed must lie in [-2^63, 2^64), got {seed}"):
                generate(2, 1, 1, seed=seed)


class TestVerifyRecovery:
    def test_end_to_end_recovery_on_small_instance(self):
        planted = PlantedDependency(0, [(2, 0.8), (5, -0.6)])
        logits = generate(8, 500, 8, planted=planted, seed=2024)
        cov = finalize(accumulate(CovAccumulator(8), logits))
        rp = reduce_problem(cov, 0)
        lmax = lambda_max(rp)
        path = solution_path(rp, np.geomspace(lmax, lmax / 1000.0, 25))
        # Both supports are sorted, so equality is precision = recall = 1.
        assert any(sol.support == planted.support for sol in path.solutions)
