"""CSV text of float columns, built by NumPy a block at a time.

Every value is printed as ``"%.9g" % float(x)`` prints it: 9 significant
digits, trailing zeros dropped, exponent form for magnitudes below 1e-4 and
from 1e9 on, and ``nan``, ``inf``, ``-inf`` and ``-0`` spelled as Python
spells them.

A value in fixed notation is rounded to the nine-digit integer
rint(|x| * 10**(8 - e)), e its decimal exponent. Its integer digits and its
fraction digits fill a fixed run of bytes, with zero bytes where Python
prints nothing (see _fields). The rows of a block are laid side by side,
and deleting the zero bytes leaves the CSV text. Exponent forms, non-finite
values and values too close to a rounding tie for the product to decide it
are printed by ``"%.9g"`` one at a time.

write_traces loads this module on its first call, so ``import tdsnn`` does
not compile it: most runs write no trace.
"""

from __future__ import annotations

import functools

import numpy as np

# Values per block. The formatter's temporaries then stay in cache: blocks
# of 2**12 formatted fastest among 2**11..2**15 (2-vCPU Xeon).
_CHUNK = 1 << 12
# A field is seven uint32 lanes, 28 bytes: two unused bytes, the sign, nine
# integer digits, the point, twelve fraction digits, the separator (byte
# _SEP) and two unused bytes.
_LANES = 7
_SEP = 25
# |x| * 10**(8 - e) is below 2**30 and rounded once, so it is within 2**-24
# of the exact product: this close to a half-integer it may round either way.
_TIE = 0.5 - 2.0 ** -20


@functools.cache
def _tables():
    """(lead, zero, trail, points, powers).

    lead, zero and trail hold the four-digit groups 0..9999 as uint32 lanes
    of ASCII bytes, twice: first with leading zeros as zero bytes (zero:
    the same, but "0" for 0) or with trailing zeros as zero bytes (trail),
    then with every digit. points holds the point and the three-digit
    groups 0..999 likewise: with trailing zeros (and the point of 0) as
    zero bytes, then with every digit. powers is 10.0**0..10.0**13, all
    exact.
    """
    n = np.arange(10_000)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    full = (n // place % 10 + ord("0")).astype(np.uint8)
    leading = np.where(n >= place, full, 0).astype(np.uint8)
    zero = leading.copy()
    zero[0, 3] = ord("0")
    trailing = np.where(n % (10 * place) != 0, full, 0).astype(np.uint8)
    points = np.concatenate([trailing[:1000], full[:1000]])
    points[:, 0] = ord(".")
    points[0, 0] = 0

    def lanes(*groups):
        return np.concatenate(groups).view(np.uint32).ravel()

    return (lanes(leading, full), lanes(zero, full), lanes(trailing, full),
            lanes(points), 10.0 ** np.arange(14))


def _split(x, unit: float):
    """(x // unit, x % unit) of integer-valued doubles below 2**53, exactly."""
    q = np.floor(x / unit)
    return q, x - q * unit


def _fields(x, lanes, sep) -> None:
    """Write the text of each value of the 1-D x, then its separator byte,
    into the matching row of lanes, a (len(x), _LANES) uint32 array.

    sep is the separator shifted left by 8 bits, a scalar or one per value.
    """
    lead, zero, trail, points, powers = _tables()
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    finite = np.isfinite(ax)
    ax[~finite] = 0.0
    nonzero = ax > 0
    log = np.log10(ax, where=nonzero, out=np.zeros_like(ax))
    e = np.clip(np.floor(log), -5, 8).astype(np.intp)
    scale = powers[8 - e]
    product = ax * scale
    m = np.rint(product)
    tie = np.abs(product - m) > _TIE
    up = np.flatnonzero(m >= 1e9)  # the rounded value has the next exponent
    if up.size:
        e[up] += 1
        scale[up] = powers[np.maximum(8 - e[up], 0)]
        product[up] = ax[up] * scale[up]
        m[up] = np.rint(product[up])
        tie[up] |= np.abs(product[up] - m[up]) > _TIE
    other = np.flatnonzero(~finite | tie | (np.abs(e - 2) > 6))  # e outside -4..8
    e[other] = 0
    m[other] = 0.0
    whole, frac = _split(m, scale)
    frac *= powers[4 + e]  # the fraction digits, left-aligned in twelve
    w1, w = _split(whole, 1e8)
    w2, w3 = _split(w, 1e4)
    f1, rest = _split(frac, 1e9)
    f2, rest4 = _split(rest, 1e5)
    f3, f4 = _split(rest4, 10.0)

    def group(table, values, full):  # every digit where full, else blanks
        return table[(values + full * 1e4).astype(np.intp)]

    lanes[:, 0] = (np.where(w1 > 0, w1 + ord("0"), 0).astype(np.uint32) << 24
                   | np.signbit(x).astype(np.uint32) * (ord("-") << 16))
    lanes[:, 1] = group(lead, w2, w1 > 0)
    lanes[:, 2] = group(zero, w3, whole >= 1e4)
    lanes[:, 3] = points[(f1 + (rest > 0) * 1e3).astype(np.intp)]
    lanes[:, 4] = group(trail, f2, rest4 > 0)
    lanes[:, 5] = group(trail, f3, f4 > 0)
    lanes[:, 6] = np.where(f4 > 0, f4 + ord("0"), 0).astype(np.uint32) | sep
    if other.size:
        lanes.view(np.uint8)[other, :_SEP] = _printed(x[other])


def _printed(x) -> np.ndarray:
    """``"%.9g" % v`` of each value v of x, zero-padded to _SEP bytes a row."""
    texts = np.array([b"%.9g" % v for v in x.tolist()], f"S{_SEP}")
    return texts.view(np.uint8).reshape(-1, _SEP)


def packed(values) -> np.ndarray:
    """The text of each value and a comma, left-aligned in the zero-padded
    rows of a uint32 array."""
    lanes = np.empty((len(values), _LANES), np.uint32)
    _fields(values, lanes, ord(",") << 8)
    text = lanes.view(np.uint8)
    kept = text != 0
    lengths = kept.sum(axis=1)
    out = np.zeros((len(values), -(-lengths.max(initial=0) // 4)), np.uint32)
    out_text = out.view(np.uint8)
    out_text[np.arange(out_text.shape[1]) < lengths[:, None]] = text[kept]
    return out


def rows(columns, prefix=()):
    """Yield the CSV bytes of the rows (s, i) of the equal-shape 2-D arrays
    columns, a block at a time: the prefix texts of the row, then its value
    in each column, separated by commas and ended by a newline.

    prefix holds (texts, axis) pairs, texts from packed(), indexed by s
    (axis 0) or by i (axis 1).
    """
    n_outer, n_inner = np.shape(columns[0])
    width = len(columns)
    per_block = max(1, _CHUNK // width)  # rows
    inner = max(1, min(n_inner, per_block))
    outer = max(1, per_block // inner)
    at = sum(texts.shape[1] for texts, _ in prefix)
    block = np.empty((outer, inner, at + _LANES * width), np.uint32)
    fields = np.empty((outer * inner * width, _LANES), np.uint32)
    seps = np.full(width, ord(","), np.uint32)
    seps[-1] = ord("\n")
    seps = np.tile(seps << 8, outer * inner)
    for s0 in range(0, n_outer, outer):
        for i0 in range(0, n_inner, inner):
            window = (slice(s0, s0 + outer), slice(i0, i0 + inner))
            values = np.stack([column[window] for column in columns], axis=-1)
            k, n = values.shape[:2]
            out = fields[:values.size]
            _fields(values.ravel(), out, seps[:values.size])
            lines = block[:k, :n]
            lane = 0
            for texts, axis in prefix:
                texts = texts[window[axis]]
                for j in range(texts.shape[1]):  # a lane at a time: long loops
                    lines[..., lane] = texts[:, None, j] if axis == 0 else texts[:, j]
                    lane += 1
            lines[..., at:] = out.reshape(k, n, -1)
            yield lines.tobytes().translate(None, b"\0")
