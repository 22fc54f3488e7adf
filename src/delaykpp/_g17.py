"""An exact %.17g of a whole float64 array at once.

format_values writes the bytes of FLOAT % v, for every finite value v
of an array, into an array of 8-byte words, one column per value, and
Lines makes text lines that end in those texts.  They are the snapshot
CSVs' formatter (cli._SnapshotCSV): CPython's %.17g takes about 560 ns
per value, because 17 digits are past the fast path of its dtoa, and a
snapshot CSV has hundreds of thousands of values.
"""

from __future__ import annotations

import functools

import numpy as np

FLOAT = "%.17g"  # 17 significant digits: every double reads back exactly
# the s of the 10**s table: 16 - k for |v| in [1e-280, 1e280], with margin
_POW10 = range(-270, 301)
_EXP_SPAN = 300  # the exponent tables cover k = -300 .. 299
_SPLIT = 2.0 ** 27 + 1  # Dekker's split of a double into two 26-bit halves
WORD = np.dtype("<u8")  # 8 bytes of text, the first in the lowest byte
WORDS = 6  # the words of a value's text (see format_values)


def _word(text: str, at: int = 0) -> int:
    """The WORD whose bytes at, at + 1, ... hold text."""
    return int.from_bytes(("\0" * at + text).encode(), "little")


@functools.cache
def _tables():
    """The tables of format_values, built on first use from integers.

    10**s for s in _POW10 as hi + lo: hi is 10**s rounded (int / int
    rounds correctly) and lo the exact remainder 10**s - hi rounded, so
    hi + lo is 10**s within 2**-104 of it; lo is normal over the whole
    range.  hi also comes split into halves for Dekker's product.  The
    pair word of 00 .. 99 is "d", 0, "d", 0 (two digits, two empty point
    slots).  By k + _EXP_SPAN: the prefix word of 0.000ddd for k = -4 ..
    -1, the exponent word "e+XX" for k outside -4 .. 16, and the byte of
    the point (after digit k, after digit 0 in e-notation, none for k <
    0 or k = 16)."""
    hi, lo = [], []
    for s in _POW10:
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_h = c - (c - hi)
    pairs = np.array([_word(f"{i // 10}\0{i % 10}") for i in range(100)],
                     np.dtype("<u4"))
    exponents = range(-_EXP_SPAN, _EXP_SPAN)
    prefix = [_word("0.000"[:1 - k], 1) if -4 <= k < 0 else 0
              for k in exponents]
    suffix = [0 if -4 <= k < 17 else _word("e%+03d" % k) for k in exponents]
    point = [7 + 2 * k if 0 <= k < 16 else 7 if not -4 <= k < 17 else -1
             for k in exponents]
    return (hi, hi_h, hi - hi_h, np.array(lo), pairs,
            np.array(prefix, WORD), np.array(suffix, WORD),
            np.array(point, np.intp))


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10**(16 - k) as p + r: p = fl(a * hi) and r = the rest, from
    Dekker's exact product a * hi plus a * lo."""
    hi, hi_h, hi_l, lo = _tables()[:4]
    s = 16 - _POW10.start - k
    p = a * hi.take(s)
    c = a * _SPLIT
    a_h = c - (c - a)
    a_l = a - a_h
    h_h, h_l = hi_h.take(s), hi_l.take(s)
    r = a_h * h_h - p
    r += a_h * h_l
    r += a_l * h_h
    r += a_l * h_l
    r += a * lo.take(s)
    return p, r


def format_values(u: np.ndarray, words: np.ndarray) -> None:
    """Fills words, a (WORDS, u.size) WORD array, with the text
    ``FLOAT % v`` of every finite v in u: column i holds the bytes of
    u[i]'s text, a 0 byte being no character.

    The bytes of a value are: its sign (byte 0); the "0." and zeros of a
    value in [1e-4, 1) (bytes 1-5); its 17 significant digits (bytes 6, 8,
    .., 38), each followed by a point slot; and its exponent "e+XX"
    (bytes 40-44).  Digits are those of N = round(|v| * 10**(16 - k)),
    k its decimal exponent, computed as p + r in double-double arithmetic
    (_scaled): the error in p + r is about 1e17 * 2**-102 = 2e-14.  The
    fraction drops its trailing zeros and its point when nothing is
    left, as %g does.  A value that this cannot settle takes
    ``FLOAT % v`` instead: |v| outside [1e-280, 1e280] (subnormals
    among them) and a p + r within 1e-6 of a half-integer (exact ties
    among them), where the error could choose the rounding."""
    *_, pairs, prefix, suffix, point = _tables()
    n = u.size
    a = np.abs(u)
    fallback = ~((a >= 1e-280) & (a <= 1e280))
    a[fallback] = 1.0  # a zero is 1 with its digit 1 made 0
    fallback &= u != 0
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    p, r = _scaled(a, k)
    # log10 may be one off near a power of ten; p alone can round onto
    # 1e16 or 1e17 (1e-280 gives p = 1e16, r = -0.43), so r decides
    near = np.flatnonzero((p >= 1e17) | (p <= 1e16))
    if near.size:
        pn, rn = p[near], r[near]
        k[near] += ((pn > 1e17) | ((pn == 1e17) & (rn >= 0))).view(np.int8)
        k[near] -= ((pn < 1e16) | ((pn == 1e16) & (rn < 0))).view(np.int8)
        p[near], r[near] = _scaled(a[near], k[near])
    floor = np.floor(r)
    r -= floor
    fallback |= np.abs(r - 0.5) < 1e-6
    floor += r > 0.5
    N = p.astype(np.int64)
    N += floor.astype(np.int64)
    carry = np.flatnonzero(N >= 10 ** 17)  # 99..9.5 rounds up to 10**17
    N[carry] = 10 ** 16
    k[carry] += 1
    # N = d0 * 10**16 + high * 10**8 + low; digits 1 .. 16 go in pairs
    d0 = N // 10 ** 16
    N -= d0 * 10 ** 16
    high = N // 10 ** 8
    low = N - high * 10 ** 8
    halves = words.view(np.dtype("<u4")).reshape(WORDS, n, 2)
    for row, four in enumerate((high // 10 ** 4, high % 10 ** 4,
                                low // 10 ** 4, low % 10 ** 4), 1):
        two = four // 100
        pairs.take(two, out=halves[row, :, 0])
        pairs.take(four - two * 100, out=halves[row, :, 1])
    at_k = k + _EXP_SPAN  # k's entry in the exponent tables
    d0[u == 0] = 0
    first = prefix.take(at_k)
    first |= np.signbit(u) * np.uint64(ord("-"))
    first |= (d0.astype(WORD) + ord("0")) << 48
    words[0] = first
    suffix.take(at_k, out=words[-1])

    text = words.view(np.uint8).reshape(-1)

    def byte(at, col):  # the index in text of byte at of column col
        return (at >> 3) * 8 * n + col * 8 + (at & 7)

    at = point.take(at_k)
    has = np.flatnonzero(at >= 0)
    text[byte(at[has], has)] = ord(".")
    # trailing zeros: only a value whose last digit is 0 has any
    zeros = np.flatnonzero(low % 10 == 0)
    if zeros.size:
        rest, count = N[zeros], np.zeros(zeros.size, np.intp)
        for step in (16, 8, 4, 2, 1):
            q, rem = np.divmod(rest, 10 ** step)
            rest = np.where(rem == 0, q, rest)
            count += (rem == 0) * step
        last = 16 - np.minimum(count, 16)  # the last nonzero digit
        kz = k[zeros]
        whole = np.where((kz >= 0) & (kz < 17), kz, 0)  # last integer digit
        col, digit = np.nonzero(np.arange(1, 17) >
                                np.maximum(last, whole)[:, None])
        text[byte(8 + 2 * digit, zeros[col])] = 0
        at = point.take(at_k[zeros])
        bare = (last <= whole) & (at >= 0)  # no fraction left: no point
        text[byte(at[bare], zeros[bare])] = 0
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        texts = b"".join([(FLOAT % v).encode().ljust(8 * WORDS, b"\0")
                          for v in u[fallback].tolist()])
        words[:, fallback] = np.frombuffer(texts, WORD).reshape(
            -1, WORDS).T


class Lines:
    """The lines head + lefts[i] + ``FLOAT % u[i]``, joined by "\\n", of
    a head of at most 31 characters, a left text per line (fixed when
    Lines is made) and a finite float64 array u.

    They are built as one array of text: column i holds line i as
    words, "\\n" + head (the same words in every column), then lefts[i],
    then the words format_values gives u[i].  The transpose's bytes, less
    their first "\\n" and every 0 byte (one translate), are the lines.
    The words live as long as the Lines, so a call allocates no array
    of their size."""

    _HEAD = 4  # the words of "\n" + head

    def __init__(self, lefts: list[str]):
        texts = [s.encode() for s in lefts]
        size = 8 * -(-max(map(len, texts)) // 8)
        left = np.frombuffer(b"".join(s.ljust(size, b"\0") for s in texts),
                             WORD).reshape(len(texts), -1).T
        self._words = np.empty((self._HEAD + len(left) + WORDS, len(texts)),
                               WORD)
        self._words[self._HEAD:-WORDS] = left

    def __call__(self, head: str, u: np.ndarray) -> str:
        head = ("\n" + head).encode()
        head = np.frombuffer(head.ljust(8 * -(-len(head) // 8), b"\0"), WORD)
        words = self._words[self._HEAD - head.size:]
        words[:head.size] = head[:, None]
        words[0, 0] &= ~np.uint64(0xFF)  # the first line's "\n"
        format_values(u, words[-WORDS:])
        return words.T.tobytes().translate(None, b"\0").decode()
