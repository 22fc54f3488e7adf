"""The array %.17g of the snapshot CSVs (delaykpp._g17): the text of
every finite double is ``"%.17g" % v``, and the 10**s table it scales by
is exact to 2**-104."""

import time
from fractions import Fraction

import numpy as np

from delaykpp._g17 import _POW10, WORD, WORDS, _tables, format_values


def _texts(u: np.ndarray) -> list[str]:
    words = np.empty((WORDS, u.size), WORD)
    format_values(u, words)
    raw = words.T.tobytes()
    size = 8 * WORDS
    return [raw[i:i + size].translate(None, b"\0").decode()
            for i in range(0, len(raw), size)]


def _boundaries() -> np.ndarray:
    """Each power of ten from 1e-320 to 1e308 with both neighbours, and
    three doubles either side of the exponents where %.17g changes form
    (-5/-4, 16/17) or its exponent gains a digit (99/100)."""
    tens = np.array([float(f"1e{e}") for e in range(-320, 309)])
    values = [tens, np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)]
    for b in (1e-5, 1e-4, 1e16, 1e17, 1e-100, 1e-99, 1e99, 1e100):
        up, down = [b], [b]
        for _ in range(3):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], 0.0))
        values.append(np.array(up + down))
    return np.concatenate(values)


def test_every_double_gets_its_percent_text():
    bound_s = 3.0  # set before the run
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 1 << 17, dtype=np.uint64).view(np.float64)
    # exact ties at the 17th digit, x.25 and x.75 with 16 integer digits,
    # which %.17g rounds half to even
    ties = (2.0 ** 52 + 2.0 * rng.integers(0, 2 ** 50, 4096) + 1.0) / 4.0
    subnormal = rng.integers(1, 2 ** 52, 256, dtype=np.uint64).view(
        np.float64)
    special = np.array([0.0, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 1e23, 0.1 + 0.2])
    u = np.concatenate([bits, ties, subnormal, special, _boundaries()])
    u = u[np.isfinite(u)]
    u = np.concatenate([u, -u])
    wrong = [(v, got) for v, got in zip(u.tolist(), _texts(u))
             if got != "%.17g" % v]
    assert wrong == []
    assert time.perf_counter() - start <= bound_s


def test_power_of_ten_table_is_exact_to_2_pow_minus_104():
    hi, _, _, lo = _tables()[:4]
    for s, h, l in zip(_POW10, hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** s
        assert abs(Fraction(h) + Fraction(l) - exact) <= exact / 2 ** 104, s
