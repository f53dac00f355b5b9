"""The rows of a trajectory CSV, each value exactly as '%.17g' writes it.

Private to `StateTrajectory.write_csv`, which imports it on first use, so
that a process that writes no trajectory neither compiles this module nor
builds its tables.
"""

import numpy as np

# The trajectory CSV's fast path writes the bytes '%.17g' writes for every
# value with 1e-5 <= |x| <= 1. Such a value prints as 17 digits D (leading
# digit nonzero) times 10**(-16 - j) for j in 0..5, and D is found exactly:
# |x| * 10**(16 + j) is an error-free product p + e (Dekker, no FMA; 10**22
# is still an exact double), p is an even integer beyond 2**53, so D is p
# plus e rounded half to even. Two roundings never happen in this range: no
# double just below 1, 0.1, ..., 1e-4 lies within 5e-18 of it (relatively),
# so D never rounds up to 10**17, and no double prints as "de-05", so the
# exponent form always keeps its ".". A row holding any other value (0,
# subnormal, below 1e-5, or just above 1) keeps the row template.
_FAST_MIN = 1e-5
_BLOCK_VALUES = 4096  # values formatted per kernel call; bounds its memory
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting factor
_FIELD = 24  # "," + sign + 22 bytes: "0.000" and 17 digits, or "d.", 16 digits, "e-05"


def _split(v):
    """v as hi + lo, each with at most 26 significant bits."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def _tables():
    """Each 4-digit group's bytes as one uint32, plain at [g] and with its
    trailing zeros dropped at [g + 10000] (for the group that ends the
    number); 10**(16 + j) exactly, split; and what precedes the leading
    digit in fixed notation: "0." and j - 1 zeros, or nothing for j = 0
    (only +-1, which prints as "1")."""
    groups = np.arange(10000, dtype=np.uint16)
    digits = np.empty((10000, 4), np.uint8)
    for k, place in enumerate((1000, 100, 10, 1)):
        digits[:, k] = groups // place % 10 + ord("0")
    stripped = digits.copy()
    zeros = np.ones(10000, bool)  # every digit from k on is "0"
    for k in (3, 2, 1, 0):
        zeros &= digits[:, k] == ord("0")
        stripped[:, k] *= ~zeros  # NUL
    powers = np.array([float(10**k) for k in range(16, 23)])  # j in 0..6
    prefixes = np.zeros((6, 5), np.uint8)
    for j in range(1, 5):
        prefixes[j, :j + 1] = np.frombuffer(b"0." + b"0" * (j - 1), np.uint8)
    groups = np.concatenate([digits, stripped]).view(np.uint32).ravel()
    return groups, (powers, *_split(powers)), prefixes


_GROUPS, _POWERS, _PREFIXES = _tables()


def _scaled(a, j):
    """|x| * 10**(16 + j) as the exact sum p + e."""
    power, power_hi, power_lo = (table[j] for table in _POWERS)
    a_hi, a_lo = _split(a)
    p = a * power
    e = a_lo * power_lo - (((p - a_hi * power_hi) - a_lo * power_hi) - a_hi * power_lo)
    return p, e


def fast_lines(rows: np.ndarray, t0: int) -> str:
    """The CSV lines of `rows` (counted from t0), each value of which has
    1e-5 <= |x| <= 1, as '%.17g' writes them: every value is laid out in
    fixed columns of ASCII bytes, NUL where '%.17g' writes nothing."""
    steps, n = rows.shape
    x = rows.ravel()
    a = np.abs(x)
    j = (-np.floor(np.log10(a))).astype(np.intp)
    p, e = _scaled(a, j)
    # log10 can miss by one next to a power of ten; p + e is exact, so the
    # 17-digit range [1e16, 1e17) tells which way
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    miss = np.flatnonzero(low | high)
    if miss.size:
        j[miss] += low[miss].astype(np.intp) - high[miss]
        p[miss], e[miss] = _scaled(a[miss], j[miss])
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # D = lead g1 g2 g3 g4 (one digit, then four groups of four); the group
    # after which only zeros follow, and every later one, is stripped
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g1 = upper // 10**4
    g3 = lower // 10**4
    g2 = upper - g1 * 10**4
    g4 = lower - g3 * 10**4
    tail = np.empty((x.size, 4), np.uint32)
    tail[:, 0] = _GROUPS[g1 + 10000 * (rest == g1 * 10**12)]
    tail[:, 1] = _GROUPS[g2 + 10000 * (lower == 0)]
    tail[:, 2] = _GROUPS[g3 + 10000 * (g4 == 0)]
    tail[:, 3] = _GROUPS[g4 + 10000]
    tail = tail.view(np.uint8)
    lead += ord("0")

    width = len(str(t0 + steps - 1))
    lines = np.empty((steps, width + n * _FIELD + 1), np.uint8)
    t = np.arange(t0, t0 + steps)[:, None]
    scale = 10 ** np.arange(width - 1, -1, -1)
    lines[:, :width] = np.where((t >= scale) | (scale == 1), t // scale % 10 + ord("0"), 0)
    lines[:, -1] = ord("\n")
    fields = lines[:, width:-1].reshape(steps, n, _FIELD)  # a view into lines
    fields[..., 0] = ord(",")
    fields[..., 1] = np.signbit(rows).view(np.uint8) * np.uint8(ord("-"))
    fields[..., 2:7] = np.take(_PREFIXES, j.reshape(steps, n), axis=0)
    fields[..., 7] = lead.reshape(steps, n)
    fields[..., 8:] = tail.reshape(steps, n, 16)
    # exponent form, for 1e-5 <= |x| < 1e-4: "d.", up to 16 digits, "e-05"
    small = np.flatnonzero(j == 5)
    if small.size:
        mantissa = np.empty((small.size, _FIELD - 2), np.uint8)
        mantissa[:, 0] = lead[small]
        mantissa[:, 1] = ord(".")
        mantissa[:, 2:18] = tail[small]
        mantissa[:, 18:] = np.frombuffer(b"e-05", np.uint8)
        fields[small // n, small % n, 2:] = mantissa
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def write_rows(f, rows: np.ndarray) -> None:
    """Write `t,x0,x1,...` lines for the float rows `rows` (t counting from
    0) to the text stream `f`, a block of rows at a time."""
    line = "%d," + ",".join(["%.17g"] * rows.shape[1]) + "\n"
    block = max(1, _BLOCK_VALUES // rows.shape[1])
    for start in range(0, len(rows), block):
        part = rows[start:start + block]
        a = np.abs(part)
        fast = ((a >= _FAST_MIN) & (a <= 1.0)).all(axis=1)
        edges = [0, *(np.flatnonzero(fast[1:] != fast[:-1]) + 1).tolist(), len(part)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if fast[lo]:
                f.write(fast_lines(part[lo:hi], start + lo))
            else:
                for t in range(lo, hi):
                    f.write(line % (start + t, *part[t].tolist()))
