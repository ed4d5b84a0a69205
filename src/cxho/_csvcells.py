"""The CSV text of ``evolve`` and ``wavefunction``, by numpy integer arithmetic.

``csv_table`` writes each float cell as the bytes of ``'%.17g' % x``: the
17 significant digits are formed exactly from the float's significand
times a power of five (``_scaled``), and a byte table per decimal exponent
gives ``%g``'s layout (``_cell_table``).  Values that the arithmetic does
not cover go through ``'%.17g' %`` itself.  Only the two commands that
write CSV import this module, when they run.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

#: '%.17g' % x, for the values the integer route does not cover
_fmt = "%.17g".__mod__

#: 5**s, s = 0..27, as 32-bit halves for ``_scaled``'s products
_POW5_HI = np.array([5 ** s >> 32 for s in range(28)], np.uint64)
_POW5_LO = np.array([5 ** s & 0xFFFFFFFF for s in range(28)], np.uint64)

#: The values ``_cells`` formats itself: finite, normal and with a decimal
#: exponent p in -11..15, so that s = 16 - p is in 1..27.  Every other
#: value goes through ``_fmt``.
_FAST_MIN, _FAST_MAX = 1e-11, 2.0 ** 52

#: A byte that no UTF-8 text holds: the cells' unused bytes, deleted
#: from the joined rows.
_GONE = 0xFF

#: Bytes per cell: the sign, "0.000", digit j at byte 6 + 2j with a '.'
#: slot after it (j < 16), "e-XX" at 39..42 and one pad byte, so that
#: the digit pairs (j, j + 1), j odd, are aligned 32-bit words.
_CELL = 44

#: The digits t, u of 10t + u as a 32-bit word: t at byte 0, u at byte 2
_PAIR_WORDS = np.array([t | u << 16 for t in range(10) for u in range(10)],
                       np.uint32)

#: Rows formatted at a time, which bounds the temporaries' memory
_CHUNK_ROWS = 256


def _scaled(bits: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(|x|·10^(16-p)) and whether it rounds up, half to even, for
    the positive normal floats x with the bit patterns ``bits``.

    x = M·2^E with the 53-bit significand M, so |x|·10^s = M·5^s·2^(E+s),
    s = 16 - p.  M·5^s is formed exactly in two 64-bit limbs from 32-bit
    partial products (M < 2^53, 5^s < 2^63), then shifted right by
    k = -(E + s), 0 <= k <= 62 here, and the k bits shifted out decide
    the rounding.
    """
    u64 = np.uint64
    s = 16 - p
    k = u64(1075) - (bits >> u64(52)) - s.astype(u64)
    m = (bits & u64(2 ** 52 - 1)) | u64(2 ** 52)
    f_hi, f_lo = _POW5_HI.take(s), _POW5_LO.take(s)
    m_hi, m_lo = m >> u64(32), m & u64(0xFFFFFFFF)
    lo = m_lo * f_lo
    mid = m_hi * f_lo + m_lo * f_hi  # < 2^53 + 2^63
    low = lo + (mid << u64(32))
    high = m_hi * f_hi + (mid >> u64(32)) + (low < lo)
    # (high << (64 - k)) in two steps: a shift by 64 is undefined
    n = (high << (u64(63) - k) << u64(1)) | (low >> k)
    one = u64(1) << k
    rest = low & (one - u64(1))
    # above half, or half with n odd; 2·rest < 2^63
    return n, (rest << u64(1)) + (n & u64(1)) > one


@functools.cache
def _cell_table() -> np.ndarray:
    """The bytes of a ``_CELL``-byte cell, one row per decimal exponent p
    and index ``last`` of the last nonzero digit, row 17·(p + 11) + last.

    A kept digit slot holds '0' and a dropped one ``_GONE``, so that OR-ing
    the digit values 0..9 in gives the digits, and the dropped slots, which
    hold zeros, stay ``_GONE``.  The layout is ``%g``'s: fixed notation for
    -4 <= p, "0." and -p-1 zeros before the digits at p < 0, the '.' after
    digit p at p >= 0, and d.ddd"e-XX" at p < -4; the fraction's trailing
    zeros, and a '.' with nothing after it, are dropped.
    """
    p = np.arange(-11, 16)[:, None, None]
    last = np.arange(17)[:, None]
    col = np.arange(_CELL)
    j = (col - 6) // 2  # the digit at col, or the one before the '.' slot
    digit = (col >= 6) & (col < 40) & (col % 2 == 0)
    point = (col > 6) & (col < 38) & (col % 2 == 1)
    exponential = p < -4
    keep = (
        (col == 0)
        | digit & (j <= np.maximum(last, p))
        | point & (j == np.maximum(p, 0)) & (last > j)
        & ((p >= 0) | exponential)
        | (p < 0) & ~exponential & (col >= 1) & (col < 2 - p)
        | exponential & (col >= 39) & (col < 43))
    text = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e-00 ", np.uint8)
    text = np.repeat(text[None, None], len(p), axis=0)
    text[:, 0, 41:43] = 48 + np.hstack(np.divmod(np.abs(p[:, 0]), 10))
    return np.where(keep, text, np.uint8(_GONE)).reshape(-1, _CELL)


def _cells(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` texts of a 1-D float64 array as ``_CELL``-byte rows,
    their unused bytes ``_GONE``.

    For each value x that ``_FAST_MIN < |x| < _FAST_MAX`` admits, p is
    floor(log10|x|), corrected where the 17-digit integer N = |x|·10^(16-p)
    (``_scaled``) falls outside [10^16, 10^17); a rounding carry to 10^17
    moves p up.  N's digits come from four rounds of division by 100, and
    the cell from ``_cell_table`` at (p, last nonzero digit).  Every other
    value is ``_fmt`` itself.
    """
    u64 = np.uint64
    magnitude = np.abs(values)
    fast = (magnitude > _FAST_MIN) & (magnitude < _FAST_MAX)
    magnitude[~fast] = 1.0  # a stand-in, its cell replaced below
    bits = magnitude.view(u64)
    p = np.clip(np.floor(np.log10(magnitude)), -11, 15).astype(np.intp)
    n, up = _scaled(bits, p)
    wrong = (n < u64(10 ** 16)) | (n >= u64(10 ** 17))
    if wrong.any():  # log10 is one off next to a power of ten
        p[wrong] += np.where(n[wrong] < u64(10 ** 16), -1, 1)
        n[wrong], up[wrong] = _scaled(bits[wrong], p[wrong])
    n += up
    carry = n == u64(10 ** 17)
    n[carry] = u64(10 ** 16)
    p += carry
    # N = d0·10^16 + b·10^8 + c; digit j at byte 6 + 2j
    high = n // u64(10 ** 8)
    parts = np.empty((2, len(n)), np.uint32)
    parts[1] = n - high * u64(10 ** 8)
    first = high // u64(10 ** 8)
    parts[0] = high - first * u64(10 ** 8)
    digits = np.zeros((len(n), _CELL), np.uint8)
    digits[:, 6] = first
    # the pair (j, j + 1), j odd, is word (3 + j) / 2: b's are 2..5, c's 6..9
    words = digits.view(np.uint32)
    for word in range(5, 1, -1):
        rest = parts // np.uint32(100)
        words[:, word::4][:, :2].T[...] = _PAIR_WORDS.take(
            parts - rest * np.uint32(100))
        parts = rest
    last = 16 - np.argmax(digits[:, 38:5:-2] != 0, axis=1)
    cells = _cell_table().take(17 * (p + 11) + last, axis=0)
    cells |= digits
    cells[:, 0] |= np.uint8(_GONE) * ~np.signbit(values)
    if not fast.all():
        cells[~fast] = np.frombuffer(b"".join(
            _fmt(x).encode().ljust(_CELL, bytes([_GONE]))
            for x in values[~fast].tolist()), np.uint8).reshape(-1, _CELL)
    return cells


def csv_table(header: list[str], columns: list) -> Iterator[str]:
    """CSV text from a header and columns, byte for byte the per-value
    ``'%.17g' % x`` join: the header line, then ``_CHUNK_ROWS`` rows at a
    time, so that the whole text is never held at once.

    A column is a float array, one cell per row, or one text cell used on
    every row; at least one column is a float array.  Each row is one fixed
    template of ``_CELL`` bytes per float column and the text cells and
    separators between them, which ``_csv_rows`` fills.
    """
    pieces = [column.encode() if isinstance(column, str)
              else bytes([_GONE]) * _CELL for column in columns]
    row = np.frombuffer(b",".join(pieces) + b"\n", np.uint8)
    starts = np.cumsum([0] + [len(piece) + 1 for piece in pieces])
    starts = [int(start) for start, column in zip(starts, columns)
              if not isinstance(column, str)]
    floats = [column for column in columns if not isinstance(column, str)]
    yield ",".join(header) + "\n"
    for top in range(0, len(floats[0]), _CHUNK_ROWS):
        yield _csv_rows([column[top:top + _CHUNK_ROWS] for column in floats],
                        row, starts)


def _csv_rows(floats: list, row: np.ndarray, starts: list[int]) -> str:
    """The CSV rows of equal-length float columns: the row template ``row``
    with each column's ``_cells`` at its start, less every ``_GONE`` byte.
    """
    block = np.column_stack(floats).astype(np.float64, copy=False)
    cells = _cells(block.ravel()).reshape(len(block), len(starts), _CELL)
    rows = np.empty((len(block), len(row)), np.uint8)
    rows[:] = row
    for i, start in enumerate(starts):
        rows[:, start:start + _CELL] = cells[:, i]
    return rows.tobytes().translate(None, bytes([_GONE])).decode()
