import numpy as np
from numpy.testing import assert_allclose

from covlasso import (
    CovAccumulator,
    InvalidInput,
    PlantedDependency,
    SyntheticSpec,
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
        spec = SyntheticSpec(n=6, samples=40, latent_rank=6, seed=123)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a, _ = generate(SyntheticSpec(n=4, samples=10, latent_rank=4, seed=1))
        b, _ = generate(SyntheticSpec(n=4, samples=10, latent_rank=4, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_planted_column_is_exact_combination(self):
        planted = PlantedDependency(2, {0: 0.5, 4: -1.25})
        spec = SyntheticSpec(
            n=5, samples=64, latent_rank=5, planted=planted, seed=77
        )
        logits, truth = generate(spec)
        expect = 0.5 * logits.data[:, 0] - 1.25 * logits.data[:, 4]
        assert_allclose(logits.data[:, 2], expect, rtol=0, atol=0)
        assert truth.support == (0, 4)
        assert truth.coefficients == (0.5, -1.25)
        assert truth.n == 5 and truth.target == 2

    def test_unit_coefficient_copies_column_bitwise(self):
        spec = SyntheticSpec(
            n=4,
            samples=32,
            latent_rank=4,
            planted=PlantedDependency(0, {3: 1.0}),
            seed=5,
        )
        logits, _ = generate(spec)
        assert np.array_equal(logits.data[:, 0], logits.data[:, 3])

    def test_labels_come_from_pre_noise_logits(self):
        planted = PlantedDependency(1, {0: 0.8})
        noisy, _ = generate(
            SyntheticSpec(
                n=5, samples=200, latent_rank=5, noise_sigma=0.5,
                planted=planted, seed=9,
            )
        )
        clean, _ = generate(
            SyntheticSpec(
                n=5, samples=200, latent_rank=5, noise_sigma=0.0,
                planted=planted, seed=9,
            )
        )
        assert np.array_equal(noisy.labels, clean.labels)
        keep = np.arange(5) != 1
        assert np.array_equal(noisy.data[:, keep], clean.data[:, keep])
        assert not np.array_equal(noisy.data[:, 1], clean.data[:, 1])

    def test_low_rank_covariance_is_rank_deficient(self):
        logits, _ = generate(SyntheticSpec(n=10, samples=500, latent_rank=3, seed=3))
        cov = finalize(accumulate(CovAccumulator(10), logits))
        vals = np.linalg.eigvalsh(cov.data)
        assert vals[6] / vals[-1] < 1e-10  # only 3 nonzero directions

    def test_spec_validation(self):
        with raises_exact(InvalidInput, "need at least one category"):
            generate(SyntheticSpec(n=0, samples=1, latent_rank=1))
        with raises_exact(InvalidInput, "need at least one sample"):
            generate(SyntheticSpec(n=2, samples=0, latent_rank=1))
        with raises_exact(InvalidInput, "latent rank must be at least 1"):
            generate(SyntheticSpec(n=2, samples=1, latent_rank=0))
        with raises_exact(InvalidInput, "noise sigma must be nonnegative, got -0.1"):
            generate(SyntheticSpec(n=2, samples=1, latent_rank=1, noise_sigma=-0.1))
        with raises_exact(InvalidInput, "planted support must not contain the target"):
            generate(
                SyntheticSpec(
                    n=3, samples=1, latent_rank=1,
                    planted=PlantedDependency(0, {0: 1.0}),
                )
            )
        with raises_exact(InvalidInput, "planted index 5 outside [0, 3)"):
            generate(
                SyntheticSpec(
                    n=3, samples=1, latent_rank=1,
                    planted=PlantedDependency(0, {5: 1.0}),
                )
            )
        expect = "planted coefficient for 1 must be finite nonzero"
        with raises_exact(InvalidInput, expect):
            generate(
                SyntheticSpec(
                    n=3, samples=1, latent_rank=1,
                    planted=PlantedDependency(0, {1: 0.0}),
                )
            )
        with raises_exact(InvalidInput, "planted index 1 repeated"):
            generate(
                SyntheticSpec(
                    n=3, samples=1, latent_rank=1,
                    planted=PlantedDependency(0, [(1, 0.5), (1, 0.25)]),
                )
            )


class TestVerifyRecovery:
    def test_end_to_end_recovery_on_small_instance(self):
        planted = PlantedDependency(0, {2: 0.8, 5: -0.6})
        spec = SyntheticSpec(
            n=8, samples=500, latent_rank=8, noise_sigma=0.0,
            planted=planted, seed=2024,
        )
        logits, truth = generate(spec)
        cov = finalize(accumulate(CovAccumulator(8), logits))
        rp = reduce_problem(cov, 0)
        lmax = lambda_max(rp)
        path = solution_path(rp, np.geomspace(lmax, lmax / 1000.0, 25))
        # Both supports are sorted, so equality is precision = recall = 1.
        assert any(sol.support == truth.support for sol in path.solutions)
