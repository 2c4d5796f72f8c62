"""printf's fixed-precision digits for whole numpy columns: the CSV rows.

`csv_rows` returns the text of "%.6f,%.8e,%.8e,%.8e,%.8e\\n" % row for every
row of five float columns, byte for byte, without formatting each float on
its own.  Each value is scaled by an exact power of ten (one rounding), its
digits come from `rint` and integer arithmetic on the whole column, and
only the values where that may differ from the exact decimal are formatted
by printf.  The characters are filled into one (rows x width) table of
ASCII codes whose NUL padding is dropped once.

Only `SweepResult.to_csv` imports this module, so a run that writes no CSV
neither compiles it nor loads numpy for it.
"""
from __future__ import annotations

import numpy as np

# The exact doubles 10**0 ... 10**22: scaling by one of them rounds once.
_POW10 = np.array([float(10**k) for k in range(23)])
# One rounding moves a scaled value below 1e9 by at most 6e-8, so a scaled
# value this far from a half-integer rounds as its exact decimal does.
_TIE_GUARD = 1e-6
# Kernel fields, before printf tokens widen them.  '%.6f' (|x| < 1000):
# sign, 3 integer digits, '.', 6 decimals.  '%.8e': sign, digit, '.',
# 8 digits, 'e', exponent sign, 2 exponent digits.
_FIXED_DIGITS = (1, 2, 3, 5, 6, 7, 8, 9, 10)
_SCIENTIFIC_DIGITS = (1, 3, 4, 5, 6, 7, 8, 9, 10)


def csv_rows(param, r1, r2, rc, g2) -> str:
    """'%.6f' of param and '%.8e' of the others, comma-separated, one line per row."""
    columns = [np.asarray(c, dtype=float) for c in (param, r1, r2, rc, g2)]
    digits = [_digits(x, fixed=i == 0) for i, x in enumerate(columns)]
    tokens = [
        [("%.6f" if exp is None else "%.8e") % v for v in x[slow].tolist()]
        for x, (_, exp, slow) in zip(columns, digits)
    ]
    widths = [
        max([11 if exp is None else 15, *map(len, column_tokens)])
        for (_, exp, _), column_tokens in zip(digits, tokens)
    ]
    table = np.zeros((len(columns[0]), sum(widths) + len(widths)), np.uint8)
    start = 0
    for x, (n, exp, slow), column_tokens, width in zip(columns, digits, tokens, widths):
        field = table[:, start : start + width]
        _put_field(field, x, n, exp)
        if column_tokens:
            padded = "".join(token.ljust(width, "\0") for token in column_tokens)
            field[slow] = np.frombuffer(padded.encode("ascii"), np.uint8).reshape(-1, width)
        table[:, start + width] = ord(",")
        start += width + 1
    table[:, -1] = ord("\n")
    return table.tobytes().replace(b"\0", b"").decode("ascii")


def _digits(x: np.ndarray, fixed: bool):
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


def _put_field(field: np.ndarray, x: np.ndarray, n, exp) -> None:
    """Write the ASCII codes of column x into field (rows x width), NUL-padded."""
    field[:, 0] = np.signbit(x) * ord("-")
    rest = n
    for pos in reversed(_FIXED_DIGITS if exp is None else _SCIENTIFIC_DIGITS):
        quotient = rest // 10
        field[:, pos] = rest - quotient * 10 + ord("0")
        rest = quotient
    if exp is None:
        field[:, 4] = ord(".")
        field[n < 100_000_000, 1] = 0  # no zeros ahead of the units digit
        field[n < 10_000_000, 2] = 0
    else:
        field[:, 2] = ord(".")
        field[:, 11] = ord("e")
        field[:, 12] = np.where(exp < 0, ord("-"), ord("+"))
        magnitude = np.abs(exp)
        field[:, 13] = magnitude // 10 + ord("0")
        field[:, 14] = magnitude % 10 + ord("0")
