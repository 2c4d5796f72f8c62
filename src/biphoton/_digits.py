"""The sweep-file rows from whole numpy columns: printf's CSV, repr's JSON.

`csv_rows` returns the text of "%.6f,%.8e,%.8e,%.8e,%.8e\\n" % row and
`json_rows` the rows of json.dumps(..., indent=2, sort_keys=True), byte for
byte, without formatting each float on its own.  The digits of every value
come from float and integer arithmetic on the whole column; only the values
where that may differ from the exact decimal are formatted one by one (by
printf or repr).  Both writers fill one table of ASCII codes, one row of
the table per character position, and drop its NUL padding once.

Only `SweepResult.to_csv` and `to_json` import this module, so a run that
writes no sweep file neither compiles it nor loads numpy for it.
"""
from __future__ import annotations

import numpy as np

# The exact doubles 10**0 ... 10**22: scaling by one of them rounds once.
_POW10 = np.array([float(10**k) for k in range(23)])
_INT_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
# Within this distance (in units of the last kernel digit) of a rounding
# tie or of an interval edge, the kernel's rounding errors could decide the
# digits, so the value is formatted on its own.
_TIE_GUARD = 1e-6
# repr writes |x| in [1e-4, 1e16) positionally; _DECADES[e + 4] is the
# double nearest 10**e, and x >= it exactly when x >= 10**e.
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
_EXPONENT_BITS = np.uint64(0x7FF0_0000_0000_0000)
# The widest fraction the kernel writes: fraction digits left-aligned to
# this many still fit in an int64.
_MAX_DECIMALS = 18
# Rows per block when the table is transposed and its NULs dropped: a
# block of about 100 KB stays in cache.
_BLOCK_ROWS = 512
# One row of json.dumps(..., indent=2, sort_keys=True), keys in sorted
# order; every row ends in ",\n", which the last row drops.
_JSON_PIECES = (
    '    {\n      "R1": ', ',\n      "R2": ', ',\n      "Rc": ', ',\n      "g2": ',
    ',\n      "param": ', "\n    },\n",
)
# json's spelling of the floats repr writes as nan, inf and -inf (NaN reads
# null because SweepResult.to_json_obj maps it to None).
_JSON_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def csv_rows(param, r1, r2, rc, g2) -> str:
    """'%.6f' of param and '%.8e' of the others, comma-separated, one line per row."""
    columns = [np.asarray(c, dtype=float) for c in (param, r1, r2, rc, g2)]
    fields = [_printf_field(x, fixed=i == 0) for i, x in enumerate(columns)]
    return _rows(("", ",", ",", ",", ",", "\n"), fields).decode("ascii")


def json_rows(r1, r2, rc, g2, param) -> str:
    """The row objects of the JSON "rows" list, joined by ",\\n": every number
    is its float repr, as json writes it."""
    columns = [np.asarray(c, dtype=float) for c in (r1, r2, rc, g2, param)]
    fields = [_repr_field(x) for x in columns]
    return str(memoryview(_rows(_JSON_PIECES, fields))[:-2], "ascii")


def _rows(pieces, fields) -> bytes:
    """pieces[0] field[0] pieces[1] ... field[-1] pieces[-1] for every row.

    Each field is (chars, slow, tokens): the ASCII codes of a column, one
    row per character position and NUL-padded, and for the rows in the
    mask `slow` the tokens that replace them.
    """
    widths = [max([len(chars), *map(len, tokens)]) for chars, _, tokens in fields]
    table = np.zeros((sum(map(len, pieces)) + sum(widths), fields[0][0].shape[1]), np.uint8)
    start = 0
    for piece, (chars, slow, tokens), width in zip(pieces, fields, widths):
        table[start : start + len(piece)] = np.frombuffer(piece.encode(), np.uint8)[:, None]
        start += len(piece)
        table[start : start + len(chars)] = chars
        if tokens:
            padded = "".join(token.ljust(width, "\0") for token in tokens)
            table[start : start + width, slow] = (
                np.frombuffer(padded.encode("ascii"), np.uint8).reshape(-1, width).T
            )
        start += width
    table[start:] = np.frombuffer(pieces[-1].encode(), np.uint8)[:, None]
    # row by row without the NULs, a block of rows at a time, so no
    # transposed copy of the whole table is made
    blocks = [table[:, i : i + _BLOCK_ROWS].T for i in range(0, table.shape[1], _BLOCK_ROWS)]
    return b"".join([block.tobytes().translate(None, b"\0") for block in blocks])


# ---------------------------------------------------------------- CSV: printf


def _printf_field(x: np.ndarray, fixed: bool):
    """printf's text of column x as (chars, slow, tokens), see _rows.

    The kernel fields, before printf tokens widen them: '%.6f' (|x| < 1000)
    is a sign, 3 integer digits, '.' and 6 decimals; '%.8e' a sign, a digit,
    '.', 8 decimals, 'e', the exponent's sign and 2 exponent digits.
    """
    n, exp, slow = _printf_digits(x, fixed)
    chars = np.zeros((11 if fixed else 15, len(x)), np.uint8)
    chars[0] = np.signbit(x) * ord("-")
    point = 4 if fixed else 2
    _put_digits(chars[point + 1 : 11], n)
    _put_digits(chars[1:point], n // (10**6 if fixed else 10**8))
    chars[point] = ord(".")
    if fixed:
        chars[1, n < 100_000_000] = 0  # no zeros ahead of the units digit
        chars[2, n < 10_000_000] = 0
    else:
        chars[11] = ord("e")
        chars[12] = np.where(exp < 0, ord("-"), ord("+"))
        magnitude = np.abs(exp)
        chars[13] = magnitude // 10 + ord("0")
        chars[14] = magnitude % 10 + ord("0")
    tokens = [("%.6f" if fixed else "%.8e") % v for v in x[slow].tolist()]
    return chars, slow, tokens


def _printf_digits(x: np.ndarray, fixed: bool):
    """The digits of one column as integers: (n, exp, slow).

    '%.6f' (fixed): n = round(|x| 1e6) and exp is None.  '%.8e': n holds
    the 9 significant digits of |x| and exp its decimal exponent.  Rows in
    `slow` are left to printf: non-finite values, values beyond the exact
    powers or the 9 digits, and values whose scaled form lies within
    _TIE_GUARD of a half-integer, where the exact decimal may round the
    other way.
    """
    a = np.abs(x)
    if fixed:
        slow = ~(a < 999.9999)  # nan, inf and more than 3 integer digits
        exp = None
        s = np.where(slow, 0.0, a) * 1e6
    else:
        zero = a == 0.0
        slow = ~((a >= 1e-13) & (a < 1e29) | zero)
        a = np.where(slow | zero, 1.0, a)
        # log10 lands a decade off only within ~1e-14 of a power of ten,
        # where s rounds to 1e8 or to 1e9 (the carry below) all the same
        exp = np.floor(np.log10(a)).astype(np.int64)
        k = 8 - exp  # s = a * 10**k with one rounding
        pow10 = _POW10[np.abs(k)]
        s = np.where(k >= 0, a * pow10, a / pow10)
        s[zero] = 0.0
    slow |= np.abs(s - np.floor(s) - 0.5) < _TIE_GUARD
    n = np.rint(s).astype(np.uint32)
    if exp is not None:
        carry = n == 1_000_000_000  # 9.999999996 reads 1.00000000e+01
        n[carry] = 100_000_000
        exp[carry] += 1
    return n, exp, slow


# ---------------------------------------------------------------- JSON: repr


def _repr_field(x: np.ndarray):
    """repr's text of column x as (chars, slow, tokens), see _rows.

    The kernel writes every value repr writes positionally, as integer
    digits, '.' and fraction digits.  Integer-valued floats below 1e16 are
    their digits and '.0'.  Other values in [1e-4, 1e16) get the shortest
    digits that read back as the value (_shortest).  The rest is left to
    repr: non-finite values, values repr writes in scientific notation,
    fractions wider than _MAX_DECIMALS and the values the kernel cannot be
    sure of.
    """
    a = np.abs(x)
    whole = (a < 1e16) & (np.floor(a) == a)  # also +-0.0; nan and inf fail
    split = np.flatnonzero(~whole & (a >= 1e-4) & (a < 1e16))
    integer = np.where(whole, a, 0.0).astype(np.int64)
    fraction = np.zeros(len(x), np.int64)
    decimals = np.ones(len(x), np.int64)  # '.0' after an integer
    digits, last, unsure = _shortest(a[split])
    unsure |= last < -_MAX_DECIMALS
    kept = split[~unsure]
    digits, last = digits[~unsure], last[~unsure]
    scale = _INT_POW10[-last]
    integer[kept] = digits // scale
    fraction[kept] = digits - integer[kept] * scale
    decimals[kept] = -last
    slow = ~whole
    slow[kept] = False

    int_width = len(str(integer.max(initial=0)))
    frac_width = int(decimals.max(initial=1))
    chars = np.zeros((int_width + frac_width + 2, len(x)), np.uint8)
    chars[0] = np.signbit(x) * ord("-")
    _put_digits(chars[1 : int_width + 1], integer)
    chars[1:int_width] *= integer >= _INT_POW10[int_width - 1 : 0 : -1, None]
    chars[int_width + 1] = ord(".")
    # the fraction's digits, left-aligned in frac_width digits, then cut to `decimals`
    _put_digits(chars[int_width + 2 :], fraction * _INT_POW10[frac_width - decimals])
    chars[int_width + 2 :] *= np.arange(1, frac_width + 1)[:, None] <= decimals

    tokens = [repr(v) for v in x[slow].tolist()]
    if not np.isfinite(x[slow]).all():
        tokens = [_JSON_NON_FINITE.get(t, t) for t in tokens]
    return chars, slow, tokens


def _put_digits(chars: np.ndarray, n: np.ndarray) -> None:
    """Write the last len(chars) decimal digits of n into chars, one row each."""
    for row in reversed(chars):
        quotient = n // 10
        row[:] = n - quotient * 10 + ord("0")
        n = quotient


def _shortest(a: np.ndarray):
    """repr's digits of the non-integers a in [1e-4, 1e16).

    Returns (digits, last, unsure): the digits as an integer whose last
    digit stands for 10**last, and the rows whose digits the kernel cannot
    be sure of.  With e the decade of a, the shortest digits that read back
    as a are the multiple of 10**j nearest to v = a * 10**(16 - e), for the
    largest j at which that multiple lies in a's rounding interval, v plus
    or minus half a unit in the last place.  Whether it does falls with j,
    so j is found by bisection; it is at least 0 (17 digits always read
    back).  That multiple never ends in a zero (j + 1 would do too) and is
    never 10**17 (a would read back as 10**(e + 1)).  The interval of a
    power of two is half as wide below it, but the only ones here are
    2**-1 ... 2**-13, whose exact decimals are short: v itself is the
    multiple found, at distance 0.
    """
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 15)
    e += (a >= _DECADES[e + 5]).astype(np.int64) - (a < _DECADES[e + 4])
    power = _POW10[16 - e]  # exact, so a * power rounds once
    high = a * power  # an integer-valued double in [1e16, 1e17]
    low = _product_error(a, power, high)
    floor_low = np.floor(low)
    # v = scaled + rest, exact up to an ulp of rest
    scaled = high.astype(np.int64) + floor_low.astype(np.int64)
    rest = low - floor_low
    half_width = (a.view(np.uint64) & _EXPONENT_BITS).view(np.float64) * (2.0**-53 * power)

    digits = np.zeros(len(a), np.int64)
    unsure = np.zeros(len(a), bool)
    fits = np.zeros(len(a), np.int64)  # the largest j known to fit
    fails = np.full(len(a), 17)  # the smallest j known not to
    # ceil(log2(17)) halvings of [0, 17]; every row's final j is probed (j = 0
    # by the last halving), which sets its digits and checks its tie
    for _ in range(5):
        j = (fits + fails) >> 1
        step = _INT_POW10[j]
        quotient = scaled // step
        remainder = scaled - quotient * step
        below = remainder + rest  # the distances from v down and up to a multiple of 10**j
        above = (step - remainder) - rest
        near = np.minimum(below, above)
        inside = near < half_width
        unsure |= np.abs(near - half_width) < _TIE_GUARD
        unsure |= inside & (np.abs(below - above) < _TIE_GUARD)
        # selects by arithmetic: np.where on a random mask is slower here
        fits += inside * (j - fits)
        fails -= ~inside * (fails - j)
        digits += inside * (quotient + (above < below) - digits)
    return digits, fits + e - 16, unsure


def _product_error(a, b, product):
    """a * b - product exactly, for product = fl(a * b) (Dekker's TwoProduct)."""
    a_high, a_low = _halves(a)
    b_high, b_low = _halves(b)
    return ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low


def _halves(v):
    """v as high + low, each with at most 26 significant bits (Veltkamp's split)."""
    c = 134217729.0 * v  # 2**27 + 1
    high = c - (c - v)
    return high, v - high
