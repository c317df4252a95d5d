import numpy as np

from matfield.rng import SplitMix64, derive_seed

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_stream(seed, n):
    # line-by-line pure-int transcription of the published SplitMix64 step
    out = []
    x = seed & MASK
    for _ in range(n):
        x = (x + GOLDEN) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_matches_reference():
    for seed in (0, 1, 42, 2**63 + 11, MASK):
        got = SplitMix64(seed).bulk_u64(16)
        assert [int(v) for v in got] == reference_stream(seed, 16)


def test_known_first_output_for_seed_zero():
    # widely quoted first output of SplitMix64 seeded with 0
    assert int(SplitMix64(0).bulk_u64(1)[0]) == 0xE220A8397B1DCDAF


def test_bulk_equals_sequential():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [int(a.bulk_u64(1)[0]) for _ in range(10)] == [int(v) for v in b.bulk_u64(10)]


def test_state_advances_across_calls():
    a = SplitMix64(7)
    first = list(a.bulk_u64(5)) + list(a.bulk_u64(5))
    b = SplitMix64(7)
    assert first == list(b.bulk_u64(10))


def test_uniforms_are_half_open_unit():
    u = SplitMix64(5).uniforms(200000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert abs(np.mean(u) - 0.5) < 2e-3
    # top-53-bit mapping of the first raw output
    raw = reference_stream(5, 1)[0]
    assert u[0] == ((raw >> 11) + 1) * 2.0**-53


def test_normals_match_boxmuller_of_reference_uniforms():
    raws = reference_stream(9, 4)
    u = [((r >> 11) + 1) * 2.0**-53 for r in raws]
    want = [
        np.sqrt(-2 * np.log(u[0])) * np.cos(2 * np.pi * u[1]),
        np.sqrt(-2 * np.log(u[0])) * np.sin(2 * np.pi * u[1]),
        np.sqrt(-2 * np.log(u[2])) * np.cos(2 * np.pi * u[3]),
        np.sqrt(-2 * np.log(u[2])) * np.sin(2 * np.pi * u[3]),
    ]
    got = SplitMix64(9).normals(4)
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_normals_odd_count_discards_tail():
    a = SplitMix64(11).normals(3)
    b = SplitMix64(11).normals(4)
    assert np.array_equal(a, b[:3])


def test_normals_moments():
    z = SplitMix64(13).normals(200000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.var(z) - 1.0) < 0.02


def test_complex_normal_layout_and_variance():
    g = SplitMix64(17)
    m = g.complex_normal(2, 3)
    z = SplitMix64(17).normals(12)
    want = ((z[0::2] + 1j * z[1::2]) / np.sqrt(2)).reshape(2, 3)
    assert np.array_equal(m, want)
    big = SplitMix64(19).complex_normal(200, 200)
    assert abs(np.mean(np.abs(big) ** 2) - 1.0) < 0.02


def test_complex_stack_is_sequential():
    stack = SplitMix64(23).complex_normal_stack(3, 2, 2)
    g = SplitMix64(23)
    singles = np.stack([g.complex_normal(2, 2) for _ in range(3)])
    assert np.array_equal(stack, singles)


def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seen = {derive_seed(42)}
    for path in [(0,), (1,), (2,), (0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]:
        s = derive_seed(42, *path)
        assert s not in seen
        seen.add(s)


def test_derive_seed_reference_formula():
    def mix(z):
        z &= MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    want = mix(mix(mix(99) + 1 * GOLDEN) + 4 * GOLDEN)
    assert derive_seed(99, 0, 3) == want
