import numpy as np
import pytest

from qcrb import blocks, linalg, model, sld
from qcrb.config import DEFAULT
from qcrb.errors import DimensionMismatch, IllDeterminedRank, InvalidState

from conftest import WORKING_POINTS
from util import (BlockView, block_of, decompose_rho, embed, embed_parts, random_hermitian,
                  random_unitary)


def _state_with_spectrum(spectrum, seed=0):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, len(spectrum))
    return (u * np.asarray(spectrum)) @ linalg.dag(u)


class TestDecompose:
    def test_example2_split(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        assert (dec.r_plus, dec.r_zero) == (2, 1)
        assert np.allclose(dec.q, [0.75, 0.25], atol=1e-12)

    def test_full_rank(self):
        dec = decompose_rho(np.eye(3) / 3.0)
        assert (dec.r_plus, dec.r_zero) == (3, 0)
        assert dec.Y.shape == (3, 0)

    def test_orthonormality_invariants(self, example2):
        bundle = model.eval_bundle(example2, [0.4, 0.8])
        dec = blocks.decompose(bundle.spectrum)
        assert np.allclose(linalg.dag(dec.V) @ dec.V, np.eye(dec.r_plus), atol=1e-10)
        assert np.allclose(linalg.dag(dec.Y) @ dec.Y, np.eye(dec.r_zero), atol=1e-10)
        assert np.max(np.abs(linalg.dag(dec.V) @ dec.Y)) <= 1e-10
        assert np.allclose(bundle.rho @ dec.V, dec.V * dec.q, atol=1e-9)
        projectors = dec.V @ linalg.dag(dec.V) + dec.Y @ linalg.dag(dec.Y)
        assert np.allclose(projectors, np.eye(3), atol=1e-10)
        assert np.min(dec.q) > DEFAULT.rank

    def test_ill_determined_rank(self):
        # the 1.0e-8 eigenvalue sits on tol.rank, within the eigensolver's error band
        rho = _state_with_spectrum([0.5, 0.5 - 2.05e-8, 1.05e-8, 1.0e-8], seed=2)
        with pytest.raises(IllDeterminedRank, match="rank threshold"):
            decompose_rho(rho)

    def test_small_spectral_gap_is_ambiguous(self):
        # clear of the band, but kept 1e-6 over dropped 1e-9 is a gap of 1e3 < tol.gap
        rho = np.diag([0.5, 0.5 - 1e-6 - 1e-9, 1e-6, 1e-9])
        with pytest.raises(IllDeterminedRank, match="spectral gap ratio"):
            decompose_rho(rho)

    def test_eigenvalue_on_the_threshold_is_ambiguous(self):
        # kept by ">= tol.rank", but any roundoff could have dropped it
        rho = np.diag([1.0 - DEFAULT.rank, DEFAULT.rank, 0.0])
        with pytest.raises(IllDeterminedRank):
            decompose_rho(rho)

    def test_reuses_the_bundle_spectrum(self, example2, monkeypatch):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        fresh = decompose_rho(bundle.rho)

        def no_second_eigen(*_, **__):
            raise AssertionError("decompose ran an eigensolve")

        monkeypatch.setattr(linalg, "herm_eigen", no_second_eigen)
        monkeypatch.setattr(np.linalg, "eigh", no_second_eigen)
        reused = blocks.decompose(bundle.spectrum)
        assert np.array_equal(fresh.V, reused.V)
        assert np.array_equal(fresh.Y, reused.Y)
        assert np.array_equal(fresh.q, reused.q)

    def test_clean_zero_modes_pass_the_gap_test(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        blocks.decompose(bundle.spectrum)  # exact zero eigenvalue, no gap ambiguity

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidState):
            decompose_rho(np.eye(3))  # trace 3

    def test_non_square_state_rejected_by_the_state_gate(self):
        with pytest.raises(InvalidState):
            decompose_rho(np.eye(2, 3) / 2.0)

    def test_deterministic(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        d1 = blocks.decompose(bundle.spectrum)
        d2 = blocks.decompose(bundle.spectrum)
        assert np.array_equal(d1.V, d2.V)
        assert np.array_equal(d1.Y, d2.Y)

    def test_degenerate_weights_are_ordered_deterministically(self):
        rho = _state_with_spectrum([0.4, 0.4, 0.2], seed=5)
        d1 = decompose_rho(rho)
        d2 = decompose_rho(rho)
        assert np.array_equal(d1.V, d2.V)

    def test_range_vectors_keep_their_weights_in_a_near_degenerate_spectrum(self):
        # the two top weights lie inside one tol.rank (1 + q_0) wide cluster
        for seed in range(40):
            rho = _state_with_spectrum([0.4 + 3e-9, 0.4, 0.2 - 3e-9], seed=seed)
            dec = decompose_rho(rho)
            assert linalg.fro(rho @ dec.V - dec.V * dec.q) <= 1e-12


class TestBlockView:
    def test_block_of_rho_is_diagonal(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        bv = block_of(bundle.rho, dec)
        assert np.allclose(bv.opp, np.diag(dec.q), atol=1e-9)
        assert linalg.fro(bv.opz) <= 1e-9
        assert linalg.fro(bv.ozz) <= 1e-9

    def test_block_of_identity(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        bv = block_of(np.eye(3), dec)
        assert np.allclose(bv.opp, np.eye(2), atol=1e-12)
        assert np.allclose(bv.ozz, np.eye(1), atol=1e-12)
        assert np.max(np.abs(bv.opz)) <= 1e-12

    def test_phase_parameter_has_no_range_block(self, example2):
        # moving theta2 only rotates the phase of the range frame, so the
        # ++ block of that derivative vanishes while the +0 block does not
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        bv = block_of(bundle.drho[1], dec)
        assert linalg.fro(bv.opp) <= 1e-10
        assert linalg.fro(bv.opz) > 0.1

    def test_hermitian_block_structure(self, example2):
        rng = np.random.default_rng(3)
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        o = random_hermitian(rng, 3)
        bv = block_of(o, dec)
        assert linalg.herm_defect(bv.opp) <= 1e-12
        assert linalg.herm_defect(bv.ozz) <= 1e-12
        assert np.allclose(bv.ozp, linalg.dag(bv.opz), atol=1e-10)


class TestEmbed:
    @pytest.mark.parametrize("name", sorted(WORKING_POINTS))
    def test_round_trip_on_random_hermitians(self, name):
        mdl = model.build_model(name)
        bundle = model.eval_bundle(mdl, WORKING_POINTS[name])
        dec = blocks.decompose(bundle.spectrum)
        rng = np.random.default_rng(len(name))
        for _ in range(50):
            o = random_hermitian(rng, mdl.n_s)
            back = embed(block_of(o, dec), dec)
            assert np.max(np.abs(back - o)) <= 1e-12 * (1 + np.max(np.abs(o)))

    def test_identity_blocks(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        out = embed_parts(dec, opp=np.eye(2), ozz=np.eye(1))
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_projector_trace(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        proj = np.diag([1.0, 0.0]).astype(complex)
        out = embed_parts(dec, opp=proj)
        assert np.isclose(np.trace(out).real, 1.0, atol=1e-12)

    def test_block_shape_mismatch(self, example2):
        bundle = model.eval_bundle(example2, [0.25, 0.5])
        dec = blocks.decompose(bundle.spectrum)
        with pytest.raises(DimensionMismatch):
            embed(BlockView(np.eye(3), np.zeros((3, 1)), np.zeros((1, 3)), np.eye(1)), dec)


@pytest.mark.parametrize("name", sorted(WORKING_POINTS))
def test_derivatives_have_no_null_null_mass(name):
    mdl = model.build_model(name)
    bundle = model.eval_bundle(mdl, WORKING_POINTS[name])
    dec = blocks.decompose(bundle.spectrum)
    slds = sld.compute_slds(bundle, dec)
    for d, mass in zip(bundle.drho, slds.null_mass):
        assert mass == linalg.fro(block_of(d, dec).ozz)
        assert mass <= DEFAULT.nullblock * (1 + linalg.fro(d))
