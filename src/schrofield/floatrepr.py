"""CSV cells of float64 arrays, byte for byte as `repr` writes them, computed in numpy.

`encode(a)` lays out the text of each value of `a` in 4 little-endian uint64
words (32 bytes) padded with NULs, and `texts(words)` drops every NUL byte,
which leaves the texts one after another. Byte 31 of a cell is always NUL,
so a writer can put a separator there first. An array is encoded by about
100 numpy calls whatever its size, a fixed cost of some 0.2 ms: thousands
of cells take a quarter to two fifths of the time `str` takes.

The digits are those `repr` prints: the shortest decimal that rounds back
to the value and, among those, the closest to it, ties to even (D. M. Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", 1990,
which CPython's `repr` runs). They come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), as `toDecimal` of Java's
`DoubleToDecimal` computes them, with two departures, since Java writes at
least two digits and `repr` does not: one digit fewer is tried whatever the
number of digits (Java tries it from s >= 100 on), and the two smallest
subnormals are not scaled by 10 first. Java's integer fast path is not
needed. The 126-bit table of g(k), the upper approximations of 10^-k for
k = -324..292, is built at import from Python ints and kept in 32-bit
limbs; every 64 x 64 -> 128-bit product of Java's `rop` is formed from
32 x 32-bit products in uint64, the bits it drops dropped alike.

The 17 digits F = f 10^(17 - len(f)) become one leading digit and two
8-digit ASCII words by SWAR lane splits (by 10^4, 100 and 10 with
multiply-shift quotients), and the number of significant digits is read
off the bit lengths of the two digit words. `repr`'s forms: fixed notation
for -4 < decpt <= 16 (the value is 0.F 10^decpt), with ".0" on integers;
exponent notation otherwise, with at least two exponent digits; "0.0",
"-0.0", "inf", "-inf" and "nan" (whatever the sign and payload of a NaN).
Words are built as '<u8', so their bytes are in the same order on
big-endian hosts.
"""

import numpy as np

_U64 = np.uint64
_LE = np.dtype("<u8")
_M32 = 0xFFFFFFFF

# Schubfach's decimal exponents k of the normal and subnormal doubles.
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(e log2(10)) for |e| <= 5456721 (Java's MathUtils)."""
    return (e * 913124641741) >> 38


def _g_limbs():
    """g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1 = g1 2^63 + g0, for k = _K_MIN.._K_MAX.

    Rows: the low 32 bits of g0 and of g1, their high bits, then g1 whole.
    """
    pow10 = [1]
    for _ in range(max(-_K_MIN, _K_MAX)):
        pow10.append(10 * pow10[-1])
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            g = (pow10[-k] << shift if shift >= 0 else pow10[-k] >> -shift) + 1
        else:
            g = (1 << shift) // pow10[k] + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g0 & _M32, g1 & _M32, g0 >> 32, g1 >> 32, g1))
    return np.array(rows, dtype=_U64).T.copy()


_G = _g_limbs()


def _byte_words(table):
    """A (rows, 32) uint8 table as 4 uint64 words a row, word-major: shape (4, rows)."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(_LE).astype(_U64).T.copy()


# A cell's text is laid out in 32 bytes. B holds the 17 digits at bytes 7-23,
# behind '0' pads at bytes 2-6; S is B moved one byte up. A cell keeps the
# bytes [lo, cut) of B and (cut, end) of S, and puts its '.' at cut when
# end > cut and its '-' at lo - 1: so the point goes in by a one-byte shift
# of the digits after it. Fixed notation has the integer part in [lo, cut),
# with a '0' pad for |value| < 1; exponent notation has the first digit
# there and its exponent at bytes 25-29. Byte 31 is left for a separator.
_D0 = 7
# decpt of fixed notation: -3..16
_FIXED_DECPTS = 20
_NDIGITS = 17


def _layout():
    """Word-major table of 12 words a layout: the kept bytes of B, those of S, the '.' and '-'.

    Layout `(form * _NDIGITS + nd - 1) * 2 + neg` is that of nd significant
    digits, a '-' if neg, and form decpt + 3 for fixed notation, or
    _FIXED_DECPTS for exponent notation.
    """
    rows = np.arange((_FIXED_DECPTS + 1) * _NDIGITS * 2)
    neg, nd, form = rows % 2, rows // 2 % _NDIGITS + 1, rows // (2 * _NDIGITS)
    fixed, decpt = form < _FIXED_DECPTS, form - 3
    lo = np.where(fixed, _D0 - 1 + np.minimum(decpt, 1), _D0)
    cut = np.where(fixed, _D0 + decpt, _D0 + 1)
    end = np.where(fixed, np.maximum(_D0 + nd, cut + 1), _D0 + nd)
    end = end + (end > cut)
    # uint8 throughout, so that building the table stays small
    p = np.arange(32, dtype=np.uint8)[None, :]
    lo, cut, end, neg = (v[:, None].astype(np.uint8) for v in (lo, cut, end, neg))
    keep_b = (lo <= p) & (p < np.minimum(cut, end))
    keep_s = (cut < p) & (p < end)
    dot = (p == cut) & (cut < end)
    minus = (p == lo - 1) & (neg == 1)
    ff, point, sign = np.uint8(0xFF), np.uint8(ord(".")), np.uint8(ord("-"))
    masks = [keep_b * ff, keep_s * ff, dot * point | minus * sign]
    return np.concatenate([_byte_words(m) for m in masks])


_LAYOUT = _layout()


def _words(texts):
    """Each byte string NUL-padded to 4 little-endian uint64 words, word-major."""
    raw = b"".join(t.ljust(32, b"\0") for t in texts)
    return _byte_words(np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), 32))


# Word 3 of exponent notation: e[+-]XX at bytes 1-5 (25-29), for decpt - _DECPT_MIN.
_DECPT_MIN, _DECPT_MAX = -330, 320
_EXP = _words(
    [b"" if -4 < d <= 16 else b"\0" * 25 + f"e{d - 1:+03d}".encode()
     for d in range(_DECPT_MIN, _DECPT_MAX + 1)]
)[3].copy()
_NONFINITE = _words([b"inf", b"-inf", b"nan"])
# '0' at bytes 2-6 of word 0
_PAD = int.from_bytes(b"\0\0" + b"00000" + b"\0", "little")


def _shortest(bits):
    """Schubfach: the shortest f 10^k that rounds to each double of `bits` (nonzero, finite).

    Returns (f, k) as uint64 and int64 arrays. Java's names: the value is
    c 2^q; its rounding interval runs from cbl to cbr in units of 2^q / 4
    (cb = 4c), closed when c is even; vbl, vb and vbr are those three over
    10^k, rounded to odd, with 10^k at most the interval's width. s 10^k and
    (s + 1) 10^k bracket the value, sp10 10^k and tp10 10^k do with one digit
    fewer.
    """
    t = bits & ((1 << 52) - 1)
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    q = np.maximum(bq, 1) - 1075
    c = t | ((bq > 0).astype(_U64) << 52)
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    cb = c << 2
    cps = np.empty((3, len(bits)), dtype=_U64)
    np.subtract(cb, 2, out=cps[0])
    cps[0] += irregular
    cps[1] = cb
    np.add(cb, 2, out=cps[2])
    cps <<= h
    # rop(g cp 2^-127) as Java's `rop`, for g = g1 2^63 + g0: the high words x1
    # of g0 cp and y1 of g1 cp from 32 x 32-bit products, the low word y0 of g1 cp
    g = np.take(_G, k - _K_MIN, axis=1)
    a0, a1 = g[0:2, None], g[2:4, None]
    b0, b1 = cps & _M32, cps >> 32
    mid = a0 * b0
    mid >>= 32
    p = a0 * b1
    hi = p >> 32
    p &= _M32
    mid += p
    np.multiply(a1, b0, out=p)
    hi += p >> 32
    p &= _M32
    mid += p
    np.multiply(a1, b1, out=p)
    hi += p
    mid >>= 32
    hi += mid
    del mid, p, b0, b1
    x1, y1 = hi
    z = g[4] * cps
    z >>= 1
    z += x1
    vbl, vb, vbr = y1 + (z >> 63) | ((z << 1) != 0)
    out = c & 1
    vbl += out
    vbr -= out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= vbr
    uin = vbl <= s << 2
    win = (s << 2) + 4 <= vbr
    # both of s and s + 1 in: the closer to v, the even one on a tie
    above = (vb & 3) + (s & 1) > 2
    return np.where(upin != wpin, sp10 + wpin * _U64(10), s + np.where(uin != win, win, above)), k


def _digits8(x):
    """Digit values (not ASCII) of 8-digit numbers x < 10^8, the leftmost in byte 0."""
    a = (x * 109951163) >> 40
    v = a | ((x - a * 10000) << 32)
    q = ((v * 5243) >> 19) & 0x0000007F0000007F
    v = q | ((v - q * 100) << 16)
    q = ((v * 103) >> 10) & 0x000F000F000F000F
    return q | ((v - q * 10) << 8)


def encode(a):
    """The repr texts of the float64 values of `a` as words of shape a.shape + (4,)."""
    a = np.asarray(a, dtype=np.float64)
    shape = a.shape
    bits = np.ascontiguousarray(a).reshape(-1).view(_U64)
    neg = (bits >> 63).astype(np.intp)
    zero = (bits << 1) == 0
    finite = (bits & (0x7FF << 52)) != (0x7FF << 52)
    # a value Schubfach does not take: 1.0 stands in
    f, k = _shortest(np.where(zero | ~finite, _U64(0x3FF0000000000000), bits))
    # F = f 10^(17 - len(f)): 16 or 17 digits for a normal, fewer for a subnormal
    short = f < 10**16
    F = np.where(short, f * 10, f)
    decpt = k + 17 - short
    sub = f < 10**15
    if sub.any():
        sub = np.flatnonzero(sub)
        fs, ds = f[sub], k[sub] + 17
        for p in (16, 8, 4, 2, 1):
            m = fs < 10 ** (17 - p)
            fs = np.where(m, fs * 10**p, fs)
            ds = ds - p * m
        F[sub], decpt[sub] = fs, ds
    F[zero] = 0
    decpt[zero] = 1
    hl = np.empty((2, len(bits)), dtype=_U64)
    np.floor_divide(F, 10**8, out=hl[0])
    np.subtract(F, hl[0] * 10**8, out=hl[1])
    d0 = hl[0] // 10**8
    hl[0] -= d0 * 10**8
    dig = _digits8(hl)
    # significant digits, from the bit lengths of the two digit words
    nbytes = (np.frexp(dig.astype(np.float64))[1] + 7) >> 3
    nd = 1 + np.where(nbytes[1] > 0, 8 + nbytes[1], nbytes[0])
    fixed = (decpt > -4) & (decpt <= 16)
    key = (np.where(fixed, decpt + 3, _FIXED_DECPTS) * _NDIGITS + nd - 1) * 2 + neg
    layout = np.take(_LAYOUT, key, axis=1)
    b = np.empty((3, len(bits)), dtype=_U64)
    np.bitwise_or(d0 << 56, _PAD | 0x3000000000000000, out=b[0])
    np.bitwise_or(dig, 0x3030303030303030, out=b[1:])
    shifted = np.zeros((4, len(bits)), dtype=_U64)
    np.left_shift(b, 8, out=shifted[:3])
    shifted[1:] |= b >> 56
    shifted &= layout[4:8]
    words = layout[8:]
    words[:3] |= b & layout[:3]
    words |= shifted
    words[3] |= np.take(_EXP, decpt - _DECPT_MIN)
    if not finite.all():
        bad = np.flatnonzero(~finite)
        nan = (bits[bad] << 12) != 0
        words[:, bad] = _NONFINITE[:, np.where(nan, 2, neg[bad])]
    return np.ascontiguousarray(words.T, dtype=_LE).reshape(shape + (4,))


def texts(words):
    """The texts of encoded words, in order, with every NUL byte dropped."""
    v = np.ascontiguousarray(words, dtype=_LE).view(np.uint8).reshape(-1)
    return v[v != 0].tobytes()
