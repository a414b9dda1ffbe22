"""The (C, Z, lam) group law over batch axes: one code path for one element
and for many.  A batch must give what the same elements give one at a time,
raise what its invalid element raises alone, and leave single-element return
types as they were."""

import numpy as np
import pytest

from sympdirac import mpc
from sympdirac import symplinalg as sl

RNG_SEED = 20260814
K = 5


def models():
    return [sl.standard_model(1, hbar=0.7), sl.standard_model(2, hbar=1.3)]


def stack_pairs(pairs):
    return sl.CZPair(C=np.stack([p.C for p in pairs]),
                     Z=np.stack([p.Z for p in pairs]))


def stack_elements(elements):
    return mpc.MpcElement(pair=stack_pairs([u.pair for u in elements]),
                          lam=np.array([u.lam for u in elements]))


def assert_same_pairs(batch, singles):
    assert np.array_equal(batch.C, np.stack([p.C for p in singles]))
    assert np.array_equal(batch.Z, np.stack([p.Z for p in singles]))


def assert_close_scalars(batch, singles):
    want = np.array(singles)
    assert np.all(np.abs(batch - want) <= 1e-15 * np.abs(want))


def assert_same_elements(batch, singles):
    assert_same_pairs(batch.pair, [u.pair for u in singles])
    assert_close_scalars(batch.lam, [u.lam for u in singles])


def same_error(fn, batch_args, single_args):
    with pytest.raises(ValueError) as alone:
        fn(*single_args)
    with pytest.raises(ValueError) as batched:
        fn(*batch_args)
    assert str(batched.value) == str(alone.value)


# ---------------------------------------------------------------------------
# draws


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_random_sp_batch_is_consecutive_single_draws(m):
    rng = np.random.default_rng(RNG_SEED)
    singles = [sl.random_sp(m, rng) for _ in range(2 * K)]
    rng = np.random.default_rng(RNG_SEED)
    assert np.array_equal(sl.random_sp(m, rng, shape=(K,)), np.stack(singles[:K]))
    rng = np.random.default_rng(RNG_SEED)
    assert np.array_equal(sl.random_sp(m, rng, shape=(K, 2)),
                          np.stack(singles).reshape(K, 2, 2 * m.n, 2 * m.n))


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
@pytest.mark.parametrize("metaplectic", [False, True])
def test_random_mpc_batch_is_consecutive_single_draws(m, metaplectic):
    rng = np.random.default_rng(RNG_SEED)
    singles = [mpc.random_mpc(m, rng, metaplectic=metaplectic)
               for _ in range(2 * K)]
    tail = rng.standard_normal()
    rng = np.random.default_rng(RNG_SEED)
    batch = mpc.random_mpc(m, rng, metaplectic=metaplectic, shape=(K, 2))
    assert rng.standard_normal() == tail
    d = 2 * m.n
    assert_same_pairs(sl.CZPair(C=batch.pair.C.reshape(-1, d, d),
                                Z=batch.pair.Z.reshape(-1, d, d)),
                      [u.pair for u in singles])
    assert_close_scalars(batch.lam.ravel(), [u.lam for u in singles])


# ---------------------------------------------------------------------------
# the law: a batch equals single calls


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_cz_law_batch_matches_single_calls(m):
    rng = np.random.default_rng(RNG_SEED + 1)
    g = sl.random_sp(m, rng, shape=(K, 2))
    g1, g2 = g[:, 0], g[:, 1]
    p1 = [sl.cz_decompose(m, x) for x in g1]
    p2 = [sl.cz_decompose(m, x) for x in g2]
    b1, b2 = sl.cz_decompose(m, g1), sl.cz_decompose(m, g2)
    assert_same_pairs(b1, p1)
    assert_same_pairs(sl.cz_inverse(m, b1), [sl.cz_inverse(m, p) for p in p1])
    assert_same_pairs(sl.cz_product(m, b1, b2),
                      [sl.cz_product(m, a, b) for a, b in zip(p1, p2)])
    assert np.array_equal(sl.cz_compose(m, b1),
                          np.stack([sl.cz_compose(m, p) for p in p1]))
    assert np.array_equal(sl.inverse_z(b1), np.stack([sl.inverse_z(p) for p in p1]))


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_mpc_law_batch_matches_single_calls(m):
    rng = np.random.default_rng(RNG_SEED + 2)
    u1 = [mpc.random_mpc(m, rng) for _ in range(K)]
    u2 = [mpc.random_mpc(m, rng) for _ in range(K)]
    b1, b2 = stack_elements(u1), stack_elements(u2)
    assert_same_elements(mpc.mpc_mul(m, b1, b2),
                         [mpc.mpc_mul(m, a, b) for a, b in zip(u1, u2)])
    assert_same_elements(mpc.mpc_inverse(m, b1),
                         [mpc.mpc_inverse(m, a) for a in u1])
    assert_close_scalars(mpc.eta(m, b1), [mpc.eta(m, a) for a in u1])
    assert_close_scalars(mpc._pair_product_logdet(m, b1.pair, b2.pair),
                         [mpc._pair_product_logdet(m, a.pair, b.pair)
                          for a, b in zip(u1, u2)])


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_indexing_an_element_indexes_its_batch(m):
    u = mpc.random_mpc(m, np.random.default_rng(RNG_SEED + 3), shape=(K, 3))
    part = u[:, 1]
    assert part.pair.C.shape == (K, 2 * m.n, 2 * m.n)
    assert np.array_equal(part.pair.Z, u.pair.Z[:, 1])
    assert np.array_equal(part.lam, u.lam[:, 1])
    assert isinstance(u[2, 0].lam, complex)


# ---------------------------------------------------------------------------
# validation per element


def stretched(m, a=1e3):
    """Valid symplectic diag(a, 1, .., 1/a, 1, ..): a large C, Z near the rim."""
    d = np.ones(2 * m.n)
    d[0], d[m.n] = a, 1.0 / a
    return np.diag(d)


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_batch_with_one_non_symplectic_element_raises_its_error(m):
    g = sl.random_sp(m, np.random.default_rng(RNG_SEED + 4), shape=(3,))
    bad = g[1] * 1.01
    g[1] = bad
    same_error(lambda x: sl.cz_decompose(m, x), (g,), (bad,))


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_batch_with_one_z_outside_the_disc_raises_its_error(m):
    p = sl.cz_decompose(m, sl.random_sp(m, np.random.default_rng(RNG_SEED + 5),
                                        shape=(2, 2)))
    Z = p.Z.copy()
    Z[1, 0] = sl.antilinear_real(m, 2.0 * np.eye(m.n))
    same_error(lambda C, Z: sl.make_cz_pair(m, C, Z), (p.C, Z), (p.C[1, 0], Z[1, 0]))


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_tolerance_scales_per_element(m):
    # the large valid element would hide the small defect under a tolerance
    # scaled by the batch's largest entry
    big = sl.cz_decompose(m, stretched(m))
    small = sl.cz_decompose(m, sl.random_sp(m, np.random.default_rng(RNG_SEED + 6)))
    C_bad = small.C + 1e-8 * sl.antilinear_real(m, np.eye(m.n))
    same_error(lambda C, Z: sl.make_cz_pair(m, C, Z),
               (np.stack([big.C, C_bad]), np.stack([big.Z, small.Z])),
               (C_bad, small.Z))
    same_error(lambda C: sl.complex_matrix(m, C), (np.stack([big.C, C_bad]),), (C_bad,))
    sl.make_cz_pair(m, np.stack([big.C, small.C]), np.stack([big.Z, small.Z]))


@pytest.mark.parametrize("m", models(), ids=["n1", "n2"])
def test_batch_with_one_invalid_lambda_or_log_det_raises_its_error(m):
    u = mpc.random_mpc(m, np.random.default_rng(RNG_SEED + 7), shape=(3,))
    lam = u.lam.copy()
    lam[2] *= 1.5
    same_error(lambda pair, lam: mpc.mpc_element(m, pair, lam),
               (u.pair, lam), (u.pair[2], lam[2]))
    K_batch = np.stack([np.eye(m.n, dtype=complex), -np.eye(m.n, dtype=complex)])
    same_error(lambda K: sl.smooth_log_det(m, K), (K_batch,), (K_batch[1],))


# ---------------------------------------------------------------------------
# single-element return types


def test_single_element_calls_keep_their_types():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 8)
        u1, u2 = mpc.random_mpc(m, rng), mpc.random_mpc(m, rng)
        for u in (u1, mpc.mpc_mul(m, u1, u2), mpc.mpc_inverse(m, u1),
                  mpc.random_mpc(m, rng, metaplectic=True)):
            assert type(u.lam) is complex
        assert type(mpc.eta(m, u1)) is complex
        ok, diag = sl.siegel_check(m, u1.pair.Z)
        assert type(ok) is bool
        assert all(type(v) is float for v in diag.values())
        assert type(sl.smooth_log_det(m, u1.pair.C)) is complex
        assert type(sl.sp_residual(m, sl.random_sp(m, rng))) is float
        assert type(sl.hermitean_min_eig(np.eye(m.n))) is float
        batch = sl.siegel_check(m, np.stack([u1.pair.Z, u2.pair.Z]))
        assert batch[0].shape == (2,)
        assert all(v.shape == (2,) for v in batch[1].values())
