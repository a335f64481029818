"""Rearrangements and Lorentz quasi-norms on sampled fields."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictionlab import lorentz
from restrictionlab.lorentz import indicator_lorentz_norm, lorentz_norm_values


def test_exponent_validation():
    assert lorentz_norm_values(np.ones(4), 1.0, 2.0, math.inf) == 2.0
    with pytest.raises(ValueError, match="p must be finite and positive"):
        lorentz_norm_values(np.ones(4), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"s must be positive \(math.inf allowed\)"):
        lorentz_norm_values(np.ones(4), 1.0, 2.0, 0.0)


@pytest.mark.parametrize("p", [0.0, -1.0, math.inf, math.nan])
def test_norm_rejects_bad_p(p):
    # unchecked, p = 0 divides by zero, p = -1 gives inf and NaN gives nan
    for s in (2.0, (2.0, math.inf)):
        with pytest.raises(ValueError, match="p must be finite and positive"):
            lorentz_norm_values(np.ones(4), 1.0, p, s)
    with pytest.raises(ValueError, match="p must be finite and positive"):
        indicator_lorentz_norm(p, 2.0, 1.0)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
def test_norm_rejects_bad_s(s):
    # unchecked, s = 0 divides by zero and NaN gives nan; every entry of a
    # sequence is checked, also for samples that are all zero
    for values in (np.ones(4), np.zeros(4)):
        for s_arg in (s, (2.0, s), (s, math.inf)):
            with pytest.raises(ValueError, match="s must be positive"):
                lorentz_norm_values(values, 1.0, 2.0, s_arg)
    with pytest.raises(ValueError, match="s must be positive"):
        indicator_lorentz_norm(2.0, s, 1.0)


def test_norm_matches_hand_integral():
    # f* = 3 on (0, 1/2], 1 on (1/2, 2]; p = 2, s = 1 gives
    # integral t^(-1/2) f*(t) dt = 4 sqrt(2)
    got = lorentz_norm_values(np.array([3.0, 1.0, 1.0, 1.0]), 0.5, 2.0, 1.0)
    assert got == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


def test_weak_norm_of_two_level_field():
    # sup t^(1/2) f*(t) over steps: max(3 sqrt(1/2), 1 sqrt(2)) = 3/sqrt(2)
    got = lorentz_norm_values(np.array([3.0, 1.0, 1.0, 1.0]), 0.5, 2.0, math.inf)
    assert got == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-12)


def test_diagonal_case_is_lebesgue_norm():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    cell = 0.3 * 0.3
    for p in (1.0, 2.0, 4.0, 7.5):
        lp = (np.sum(np.abs(v) ** p) * cell) ** (1.0 / p)
        lps = lorentz_norm_values(v, cell, p, p)
        assert abs(lps - lp) <= 1e-10 * lp


def test_p2_s2_small_example():
    assert lorentz_norm_values(np.array([3.0, 1.0]), 1.0, 2.0, 2.0) == pytest.approx(
        math.sqrt(10.0), rel=1e-12
    )


def test_indicator_closed_form():
    assert indicator_lorentz_norm(2.0, 1.0, 4.0) == pytest.approx(4.0, rel=1e-14)
    assert indicator_lorentz_norm(3.0, math.inf, 8.0) == pytest.approx(2.0, rel=1e-14)
    assert indicator_lorentz_norm(2.0, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        indicator_lorentz_norm(2.0, 1.0, -1.0)


def test_indicator_matches_sampled_field():
    # 6 unit cells of ones
    for p, s in ((2.0, 1.0), (2.0, 2.0), (1.5, 3.0), (2.0, math.inf)):
        assert lorentz_norm_values(np.ones(6), 1.0, p, s) == pytest.approx(
            indicator_lorentz_norm(p, s, 6.0), rel=1e-12
        )


def test_power_of_two_homogeneity_is_exact():
    rng = np.random.default_rng(11)
    v = rng.standard_normal(32)
    base = lorentz_norm_values(v, 0.7, 2.0, 1.0)
    assert lorentz_norm_values(8.0 * v, 0.7, 2.0, 1.0) == 8.0 * base


def test_power_of_two_homogeneity_is_exact_for_a_sequence_of_s():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    s_values = (0.5, 1.0, 2.0, 2.5, math.inf)
    base = lorentz_norm_values(v, 0.3, 1.2, s_values)
    assert lorentz_norm_values(0.25 * v, 0.3, 1.2, s_values) == tuple(0.25 * b for b in base)


def _reference_norm(values, cell_volume, p, s):
    # the step-function integral written out with a fresh array per step
    a = np.sort(np.abs(np.asarray(values)).ravel())[::-1]
    a = a[a > 0]
    if a.size == 0:
        return 0.0
    vmax = a[0]
    core = a / vmax
    t = cell_volume * np.arange(1, a.size + 1, dtype=float)
    if math.isinf(s):
        return float(vmax * np.max(core * t ** (1.0 / p)))
    tp = t ** (s / p)
    tp_prev = np.concatenate([[0.0], tp[:-1]])
    # moduli are normalized in their own dtype, summands taken in float64
    summand = core.astype(float) ** s * (p / s) * (tp - tp_prev)
    return float(vmax * np.sum(summand) ** (1.0 / s))


@pytest.mark.parametrize("p", [0.5, 1.2, 2.0, 3.0])
def test_norms_equal_the_written_out_integral_bit_for_bit(p):
    rng = np.random.default_rng(int(100 * p))
    s_values = [2.0, math.inf, 0.5, p, 1.0, 3.0, 2.5]
    for n in (1, 7, 300, 5000):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[rng.uniform(size=n) < 0.2] = 0.0
        cell = float(10.0 ** rng.uniform(-2, 2))
        norms = lorentz_norm_values(v, cell, p, s_values)
        assert norms == tuple(_reference_norm(v, cell, p, s) for s in s_values)


_B = lorentz._BLOCK


@pytest.mark.parametrize("n", [1, 2, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_norms_equal_the_written_out_integral_at_block_boundaries(n):
    # n nonzero samples make n steps, so the blocks of the integral end
    # exactly at these sizes; the exact zeros beside them are dropped
    rng = np.random.default_rng(n)
    v = np.concatenate([rng.standard_normal(n) + 1j * rng.standard_normal(n), np.zeros(n // 3 + 1)])
    rng.shuffle(v)
    p = 1.7
    s_values = (0.7, 2.5, math.inf, p, 2.0)
    norms = lorentz_norm_values(v, 0.37, p, s_values)
    assert norms == tuple(_reference_norm(v, 0.37, p, s) for s in s_values)


def test_non_contiguous_samples_give_the_norms_of_their_c_ordered_copy():
    rng = np.random.default_rng(15)
    v = rng.standard_normal((512, 300)) + 1j * rng.standard_normal((512, 300))
    v[rng.uniform(size=v.shape) < 0.1] = 0.0
    p, s_values = 1.3, (0.6, 2.5, math.inf)
    for view in (v.T, np.asfortranarray(v), v[:, ::2], v[::-3]):
        copy = np.ascontiguousarray(view)
        expected = tuple(_reference_norm(copy, 0.21, p, s) for s in s_values)
        assert lorentz_norm_values(view, 0.21, p, s_values) == expected
        assert lorentz_norm_values(copy, 0.21, p, s_values) == expected


def _traced_peak(call):
    """Peak of the memory numpy and Python allocate during call(), above
    what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_small_call_allocates_little():
    # the block buffers are sized to the samples, not to a whole block
    v = np.random.default_rng(16).standard_normal(200)
    assert _traced_peak(lambda: lorentz_norm_values(v, 0.37, 1.5, (2.5, math.inf))) < 64 * 1024


@pytest.mark.parametrize("p", [0.5, 1.2, 2.0, 3.0])
def test_sequence_of_s_equals_one_call_per_s_bit_for_bit(p):
    rng = np.random.default_rng(int(10 * p))
    v = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    v[rng.uniform(size=500) < 0.3] = 0.0
    s_values = [2.0, math.inf, 0.5, p, 1.0, 3.0, 2.0]
    norms = lorentz_norm_values(v, 0.37, p, s_values)
    assert isinstance(norms, tuple) and len(norms) == len(s_values)
    assert norms == tuple(lorentz_norm_values(v, 0.37, p, s) for s in s_values)
    assert all(type(x) is float for x in norms)
    assert lorentz_norm_values(np.zeros(4), 1.0, p, s_values) == (0.0,) * len(s_values)
    assert lorentz_norm_values(v, 0.37, p, []) == ()


def _samples(kind, shape, rng):
    if kind == "integer":
        return rng.integers(-4, 5, size=shape)
    v = rng.standard_normal(shape)
    if kind not in ("real", "float32"):
        v = v + 1j * rng.standard_normal(shape)
    v[rng.uniform(size=shape) < 0.2] = 0.0
    if kind in ("float32", "complex64"):  # moduli that are not float64
        return v.astype(kind)
    return np.asfortranarray(v) if kind == "fortran" else v


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["real", "complex", "integer", "fortran", "float32", "complex64"]),
    shape=st.tuples(st.sampled_from([1, 3, 64]), st.sampled_from([1, 5, 300, 1200])),
    finite=st.lists(st.sampled_from([0.5, 1.0, 1.7, 2.0, 3.0]), min_size=1, max_size=2),
    inf_first=st.booleans(),
    p=st.sampled_from([0.5, 1.2, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_summands_over_the_moduli_leave_input_and_bits_alone(kind, shape, finite, inf_first, p, seed):
    # the last finite s writes its summands over the sorted moduli; that
    # buffer is the call's own, and every norm keeps the bits of its own
    # single-s call and of the written-out integral (64 x 1200 samples
    # cross a block boundary of the integral)
    v = _samples(kind, shape, np.random.default_rng(seed))
    before = v.copy(order="K")
    s_values = (math.inf, *finite) if inf_first else (*finite, math.inf)
    norms = lorentz_norm_values(v, 0.37, p, s_values)
    assert np.array_equal(v, before)
    assert norms == tuple(lorentz_norm_values(v, 0.37, p, s) for s in s_values)
    assert norms == tuple(_reference_norm(v, 0.37, p, s) for s in s_values)


def test_one_finite_s_allocates_one_float_buffer():
    # 2^20 complex or int64 samples: the sorted moduli are the only
    # n-element buffer, since the one finite s writes its summands over
    # them (integer moduli are taken as float64 in one step)
    rng = np.random.default_rng(18)
    complex_samples = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    for v in (complex_samples, rng.integers(-1000, 1000, size=(1024, 1024))):
        peak = _traced_peak(lambda: lorentz_norm_values(v, 0.37, 1.2, (2.0, math.inf)))
        assert peak < 8 * v.size + 4 * 2**20


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_integer_minimum_matches_its_float_copy_bit_for_bit(dtype):
    # the modulus of the dtype minimum does not fit the dtype: np.abs gives
    # the minimum back, so int8 [-128] once had norm 0 and [-128, 3] 3.0
    lo = np.iinfo(dtype).min
    for samples in ([lo], [lo, 3], [3, lo, -7, 0, lo]):
        v = np.array(samples, dtype=dtype)
        for s in (2.0, math.inf, (0.5, math.inf, 2.0)):
            expected = lorentz_norm_values(v.astype(np.float64), 0.37, 1.2, s)
            assert lorentz_norm_values(v, 0.37, 1.2, s) == expected
    assert lorentz_norm_values(np.array([lo], dtype=dtype), 1.0, 2.0, math.inf) == -float(lo)


def test_input_samples_are_not_modified():
    rng = np.random.default_rng(14)
    for v in (rng.standard_normal(50), rng.standard_normal(50) + 1j * rng.standard_normal(50)):
        before = v.copy()
        lorentz_norm_values(v, 1.0, 2.0, (1.0, math.inf))
        assert np.array_equal(v, before)


def test_rearrangement_invariance_is_exact():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(64)
    w = v.copy()
    rng.shuffle(w)
    assert lorentz_norm_values(v, 1.0, 1.5, 2.5) == lorentz_norm_values(w, 1.0, 1.5, 2.5)


def test_dilation_scaling():
    # same samples, doubled spacing in d = 2 (cell volume 4): norm scales by 2^(d/p)
    rng = np.random.default_rng(17)
    v = rng.standard_normal((16, 16))
    for p, s in ((2.0, 1.0), (3.0, math.inf), (1.2, 1.2)):
        n1 = lorentz_norm_values(v, 1.0, p, s)
        n2 = lorentz_norm_values(v, 4.0, p, s)
        assert abs(n2 - 2.0 ** (2.0 / p) * n1) <= 1e-10 * n2


def test_pointwise_monotonicity():
    rng = np.random.default_rng(19)
    small = rng.standard_normal(40)
    big = small * (1.0 + rng.uniform(0.0, 1.0, 40))
    for p, s in ((2.0, 1.0), (2.0, math.inf), (4.0, 0.5)):
        assert lorentz_norm_values(small, 1.0, p, s) <= lorentz_norm_values(big, 1.0, p, s) + 1e-14


def test_zero_field_has_zero_norm():
    assert lorentz_norm_values(np.zeros(3), 1.0, 2.0, 1.0) == 0.0
    assert lorentz_norm_values(np.zeros(3), 1.0, 2.0, math.inf) == 0.0
