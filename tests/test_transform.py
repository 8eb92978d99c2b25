"""DCT: orthogonality, invertibility, energy compaction, zig-zag."""

import numpy as np
import pytest

from repro.codec.transform import dct_matrix, forward_dct, inverse_dct, zigzag_order


class TestDctMatrix:
    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_orthonormal(self, size):
        c = dct_matrix(size)
        assert np.allclose(c @ c.T, np.eye(size), atol=1e-12)

    def test_readonly(self):
        with pytest.raises(ValueError):
            dct_matrix(8)[0, 0] = 1.0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            dct_matrix(0)


class TestForwardInverse:
    def test_roundtrip(self, rng):
        blocks = rng.normal(0, 50, size=(7, 8, 8))
        assert np.allclose(inverse_dct(forward_dct(blocks)), blocks, atol=1e-9)

    def test_roundtrip_16(self, rng):
        blocks = rng.normal(0, 50, size=(3, 16, 16))
        assert np.allclose(inverse_dct(forward_dct(blocks)), blocks, atol=1e-9)

    def test_dc_of_constant_block(self):
        blocks = np.full((1, 8, 8), 10.0)
        coeffs = forward_dct(blocks)
        assert coeffs[0, 0, 0] == pytest.approx(80.0)  # 10 * sqrt(64)
        assert np.allclose(coeffs[0].ravel()[1:], 0.0, atol=1e-12)

    def test_parseval_energy_preserved(self, rng):
        blocks = rng.normal(0, 30, size=(4, 8, 8))
        coeffs = forward_dct(blocks)
        assert np.sum(blocks**2) == pytest.approx(np.sum(coeffs**2))

    def test_energy_compaction_on_smooth_content(self):
        # A smooth ramp concentrates energy in low frequencies.
        ramp = np.outer(np.arange(8), np.ones(8))[None]
        coeffs = forward_dct(ramp)[0]
        low = np.sum(coeffs[:2, :2] ** 2)
        assert low / np.sum(coeffs**2) > 0.95

    @pytest.mark.parametrize("transform", [forward_dct, inverse_dct])
    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_block_bits_do_not_depend_on_the_batch(self, rng, transform, size):
        """The encoder batches per wavefront, the decoder per frame:
        ``decode == recon`` needs block *i* to come out the same either way."""
        blocks = rng.normal(0, 50, size=(96, size, size))
        alone = np.concatenate([transform(block[None]) for block in blocks])
        for n in (0, 1, 7, 96):
            batch = transform(blocks[:n])
            assert batch.shape == (n, size, size)
            np.testing.assert_array_equal(batch, alone[:n])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            forward_dct(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            inverse_dct(np.zeros((1, 8, 4)))


class TestZigzag:
    def test_is_permutation(self):
        order = zigzag_order(8)
        assert sorted(order.tolist()) == list(range(64))

    def test_starts_at_dc(self):
        assert zigzag_order(8)[0] == 0

    def test_first_antidiagonal(self):
        order = zigzag_order(8).tolist()
        # After DC: (0,1) then (1,0) -- the classic scan.
        assert order[1] == 1
        assert order[2] == 8

    def test_ends_at_highest_frequency(self):
        assert zigzag_order(8)[-1] == 63

    def test_scans_by_frequency_band(self):
        order = zigzag_order(4)
        diag = [(i // 4) + (i % 4) for i in order.tolist()]
        assert diag == sorted(diag)

    def test_readonly(self):
        with pytest.raises(ValueError):
            zigzag_order(8)[0] = 3
