"""TOPSIS ranking engine: normalize, weight, ideal points, separations, rank.

Vector normalization is the only normalization offered; separations use the
Euclidean metric. The kernel ranks by one stable sort of each closeness row,
so ties go to the earlier index. Sensitivity sweeps need only orders:
``_screened_order`` takes them from one matrix product per chunk of weight
rows, ordering each row with one sort of packed keys (truncated closeness
bits with the entry index in the low bits), wherever a proven error bound,
one per row (``_grid_screen``) or else one per entry (``_entry_bound``),
shows they are the kernel's, and leaves the remaining, near-tied rows to the
caller's kernel run. ``_grid_ranks`` and leave-one-out's removals both go
through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateAlternative, DimensionMismatch, InvalidValue, ZeroColumn
from .model import Criterion, DecisionMatrix, Direction, TopsisResult, WeightVector


@dataclass(frozen=True)
class IdealPoints:
    ideal: tuple[float, ...]
    anti_ideal: tuple[float, ...]


# A squared norm below this is subnormal: it has already lost precision.
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _unit_columns(x: np.ndarray, criteria: Sequence[Criterion]) -> np.ndarray:
    """Divide every column of each (..., m, n) slice by its Euclidean norm.

    Over a stack, the first slice that cannot be normalized raises the error
    that normalizing that slice alone raises, naming one of ``criteria``.
    """
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        squares = (x * x).sum(axis=-2)
    in_range = (squares >= _TINY) & (squares < np.inf)
    if not in_range.all():
        slices = x.reshape(-1, *x.shape[-2:])
        k = int(np.argmin(in_range.reshape(len(slices), -1).all(axis=1)))
        _reject_norms(slices[k], squares.reshape(len(slices), -1)[k], criteria)
    return x / np.sqrt(squares)[..., None, :]


def _reject_norms(x: np.ndarray, squares: np.ndarray, criteria: Sequence[Criterion]) -> None:
    """Raise the error for an (m, n) array with a squared column norm out of range."""
    zero = squares == 0
    for fault, error, message in (
        (~np.isfinite(squares), InvalidValue, "a column whose norm overflows to infinity"),
        (zero & x.any(axis=0), InvalidValue, "a nonzero column whose norm underflows to zero"),
        (zero, ZeroColumn, "an all-zero column"),
        (squares < _TINY, InvalidValue, "a column whose squared norm is subnormal"),
    ):
        if fault.any():
            raise error(_named(f"cannot normalize {message}", criteria, fault))


def _named(message: str, criteria: Sequence[Criterion], fault: np.ndarray) -> str:
    """``message`` ending with the name of the first criterion that ``fault`` marks."""
    return f"{message}: criterion {criteria[int(np.argmax(fault))].name!r}"


def _ideal(
    high: np.ndarray, low: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ideal and anti-ideal points from each column's high and low values."""
    return np.where(benefit, high, low), np.where(benefit, low, high)


def _distances(weighted: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance of each (k, m, n) row from its (k, n) point; k may broadcast."""
    diff = weighted - points[:, None, :]
    return np.sqrt(np.square(diff, out=diff).sum(axis=2))


def _separations(
    unit: np.ndarray, weights: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """S+ and S-, each (k, m), of unit columns under (k, n) weight rows.

    ``unit`` is one (m, n) array for every weight row, or a (k, m, n) stack
    under one shared (1, n) weight row. The ideal and anti-ideal points are
    the weights times each column's unit max and min: rounding is monotone
    and weights are nonnegative, so this equals the max and min of the
    weighted column, up to the sign of a zero, which squaring removes.
    """
    if weights.shape[1] != unit.shape[-1]:
        raise DimensionMismatch("weight count does not match criterion count")
    weighted = unit * weights[:, None, :]
    ideal, anti = _ideal(weights * unit.max(axis=-2), weights * unit.min(axis=-2), benefit)
    return _distances(weighted, ideal), _distances(weighted, anti)


def _closeness(s_plus: np.ndarray, s_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closeness s_minus / (s_plus + s_minus), 0 where undefined, and the undefined mask."""
    total = s_plus + s_minus
    undefined = total <= 0
    return s_minus / np.where(undefined, 1.0, total), undefined


def _ranks_from(order: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Ranks 1..m from each row of ``order``, the row's indices best first,
    written into ``out``, a C-contiguous (k, m) array, if given."""
    k, m = order.shape
    ranks = np.empty((k, m), dtype=np.intp) if out is None else out
    ranks.reshape(-1)[order + np.arange(k)[:, None] * m] = np.arange(1, m + 1)
    return ranks


def _ranks(c: np.ndarray) -> np.ndarray:
    """Ranks within each row of c; rank 1 = largest, ties go to the earlier index."""
    return _ranks_from(np.argsort(-c, axis=1, kind="stable"))


def _batch_topsis(
    unit: np.ndarray, weights: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TOPSIS for a (k, n) stack of weight rows over one unit-column (m, n) array.

    Returns s_plus, s_minus, closeness and ranks, each (k, m). Each row is
    bit-identical to the staged functions below on that row's weights.
    """
    s_plus, s_minus = _separations(unit, weights, benefit)
    c, undefined = _closeness(s_plus, s_minus)
    if undefined.any():
        raise DegenerateAlternative("closeness undefined when both separations are zero")
    return s_plus, s_minus, c, _ranks(c)


# Unit roundoff of float64.
_U = 2.0**-53
# Bounds the largest array of one stacked kernel call: the (k, m, n)
# temporaries of k weight rows, or the (k, m - 1, n) ones of k leave-one-out
# removals.
_CHUNK_ELEMENTS = 1 << 18
# _grid_ranks screens weight rows, and leave_one_out removals, in chunks of
# at most this many (k, m) outputs, so a chunk's product, sort and bound
# arrays stay in cache.
_GRID_CHUNK_ELEMENTS = 1 << 13


def _chunk(outputs: int, elements: int) -> int:
    """Rows per chunk, at least 1, for ``outputs`` screen outputs and
    ``elements`` kernel elements per row, within both budgets above."""
    return max(1, min(_GRID_CHUNK_ELEMENTS // outputs, _CHUNK_ELEMENTS // elements))


def _terms(
    unit: np.ndarray, points: np.ndarray, scale: int, relative: int, floor: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_grid_screen``'s left-hand sides for the (m, c) ``unit`` columns and
    their (2, 1, c) ideal and anti-ideal ``points``.

    With d = u_ij - a_j and the error term
    E_ij = scale u |d| (u_ij + a_j) + relative u d^2 + floor u^2:

    - ``squares``, a C-contiguous (2m + 2, c) array: d^2 of every alternative
      for the ideal, then for the anti-ideal, then each block's largest error
      term max_i E_ij times 1 + 8 (c + 1) u;
    - ``errors``, a C-contiguous (2m, c) array of the E_ij, ideal block first.

    Weight rows go on the right, so a product has one column per weight row
    and its reductions over alternatives run down contiguous rows.
    """
    m, c = unit.shape
    diff = unit - points
    square = diff * diff
    error = (scale * _U) * np.abs(diff) * (unit + points) + (relative * _U) * square
    error += floor * _U * _U
    top = error.max(axis=1) * (1 + 8 * (c + 1) * _U)
    return np.concatenate([square.reshape(2 * m, c), top]), error.reshape(2 * m, c)


def _grid_terms(unit: np.ndarray, benefit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weight-independent terms of ``_grid_screen``'s and ``_entry_bound``'s
    products (``_terms``), with E_ij = 16 u |d| (u_ij + a_j) + 6 (n + 4) u d^2 + 64 u^2."""
    n = unit.shape[1]
    ideal, anti = _ideal(unit.max(axis=0), unit.min(axis=0), benefit)
    return _terms(unit, np.stack([ideal, anti])[:, None, :], 16, 6 * (n + 4), 64)


def _removal_terms(
    x: np.ndarray, w: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``_grid_screen``'s terms for removing each row of the (m, n) matrix ``x``
    in turn, under the weights ``w``, or None where a removal's squared column
    norm is not safely inside the range ``_unit_columns`` accepts.

    Removal r is the full unit matrix u = x / N without row r, under the
    weights v_rj = w_j N_j / N'_rj, with N'_rj^2 the column's squares summed
    without row r, from prefix plus suffix sums (N_j^2 - x_rj^2 would cancel
    where row r holds most of the column). A survivor column's ideal or
    anti-ideal point is the full column's, except where r holds it (argmax or
    argmin): there it is the second value of the sorted column, equal to the
    first on a tie. Over 3n columns, the ideal block holds d^2 against
    [first ideal, second ideal, first ideal] and the anti-ideal block against
    [first anti, first anti, second anti]. Removal r's squared weight row is
    v^2 in the first third where r holds neither point, in the second where
    it holds the ideal and in the third where it holds the anti-ideal (row 0
    holds both of a constant column, where every d is 0), and 0 elsewhere.

    Returns the (2m + 2, 3n) ``squares`` and (2m, 3n) ``errors`` of ``_terms``,
    with E_ij = 32 u |d| (u_ij + a_j) + 12 (n + m + 4) u d^2 + 256 u^2 (derived
    in ``_entry_bound``'s docstring), and the C-contiguous (m, 3n) squared
    weight rows, row r for removal r.

    The kernel's reduced squared norm and the prefix plus suffix sum are each
    within gamma_(m-1) of the exact sum, and underflowing squares lose at most
    m 2^-1075 more, so they differ by less than 3 m u of either where both are
    at least tiny. A sum outside [tiny (1 + 4 m u), huge / (1 + 4 m u)] could
    take the kernel out of range, so it returns None, as it does where a
    squared weight is not finite.
    """
    m, n = x.shape
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range sums are rejected below
        square = x * x
        ahead = np.cumsum(square, axis=0)
        behind = np.cumsum(square[::-1], axis=0)[::-1]
        reduced = np.empty_like(square)
        reduced[0], reduced[-1] = behind[1], ahead[-2]
        np.add(ahead[:-2], behind[2:], out=reduced[1:-1])
        margin = 1 + 4 * m * _U
        if not ((reduced >= _TINY * margin) & (reduced <= _HUGE / margin)).all():
            return None
        total = ahead[-1]
        # Not w^2 times the factor: a subnormal w^2 would lose too much in that product.
        v2 = w * (w * (total / reduced))
        if not np.isfinite(v2).all():
            return None
    unit = x / np.sqrt(total)
    ordered = np.sort(unit, axis=0)
    first = np.stack(_ideal(ordered[-1], ordered[0], benefit))
    second = np.stack(_ideal(ordered[-2], ordered[1], benefit))
    holder = np.stack(_ideal(unit.argmax(axis=0), unit.argmin(axis=0), benefit))
    holds = np.arange(m)[:, None, None] == holder  # (m, 2, n): r holds the ideal, the anti-ideal
    points = np.concatenate([first, first, first], axis=1)
    points[0, n : 2 * n] = second[0]
    points[1, 2 * n :] = second[1]
    squares, errors = _terms(np.tile(unit, 3), points[:, None, :], 32, 12 * (n + m + 4), 256)
    neither = ~(holds[:, 0] | holds[:, 1])
    rows = np.concatenate([v2 * neither, v2 * holds[:, 0], v2 * holds[:, 1]], axis=1)
    return squares, errors, rows


def _grid_screen(
    squares: np.ndarray, w2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separations, closeness and one error bound per row of (k, n) squared weights.

    Returns the (2m, k) product separations, S+ then S-, the (m, k) closeness
    s- / max(s+ + s-, tiny) and a (k,) bound that is at least every entry's
    eps in ``_entry_bound``, all from one product with ``squares``.

    The product's last two rows are E+ and E-, the squared weights times
    each block's largest error term, so in exact arithmetic E+ is at least
    every alternative's eta+ and E- every eta-. Computed, in any summation
    order, with n the columns of ``squares``, E+ is at least
    (1 - gamma_(n+1)) times its exact value with the
    factor 1 + 8 (n + 1) u on the largest terms, and each eta+ at most
    1 + gamma_n times its own; so E+ exceeds every computed eta+ by a factor
    above 1 + 13u, more than the 9u that one square root and one division on
    each side lose below; likewise E-. With S+_min and S-_min the smallest
    separations, D+ = E+ / max(S+_min, sqrt(E+)) is then at least every
    delta+, and likewise D-. So with room = min_i T_i - D+ - D- > 0, every
    eps is at most (D+ + 2 D-) / room + 4u: each step is the per-entry
    formula on values no smaller (numerators) or no larger (denominators),
    and correctly rounded arithmetic is monotone. The bound is infinite
    where room <= 0.
    """
    m = len(squares) // 2 - 1
    product = squares @ w2.T
    s = np.sqrt(product[: 2 * m], out=product[: 2 * m])
    s_plus, s_minus = s[:m], s[m:]
    total = s_plus + s_minus
    lowest = total.min(axis=0)
    c = s_minus / np.maximum(total, _TINY, out=total)  # 0 where total is 0
    top = product[2 * m :]
    d = top / np.maximum(s.reshape(2, m, -1).min(axis=1), np.sqrt(top))
    spread = d[0] + d[1]
    room = lowest - spread
    bound = np.divide(spread + d[1], room, out=np.full_like(room, np.inf), where=room > 0)
    bound += 4 * _U
    return s, c, bound


def _entry_bound(errors: np.ndarray, w2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (m, k) per-entry bound eps on the distance of ``_grid_screen``'s
    closeness from the kernel's, for (k, n) squared weights, each the square
    of a weight row summing to 1, and their (2m, k) separations from
    ``_grid_screen``; ``errors`` is ``_grid_terms``' or ``_removal_terms``'.

    Unit entries lie in [0, 1] and weights are nonnegative, so the kernel's
    squared separations are, in exact arithmetic,
    S^2 = sum_j t_j, t_j = w_j^2 (u_ij - a_j)^2, with a_j the unit column's
    max or min: products of squared weights with squared unit differences.

    Error bound, with u = 2^-53, gamma_k = k u / (1 - k u), (n + 4) u <= 0.01
    and the summation analysis of Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3-4, which holds for any summation order or use
    of FMA. The product rounds u - a, its square, w^2 and each product once,
    then sums: it lies within gamma_(n+4) S^2 of S^2. The kernel rounds
    x = u w and y = a w, so with D = w |u - a| and P = w (u + a) >= D its
    rounded x - y is within e = 2 u P (1 + u) of w (u - a), and the rounded
    square of that within 2 D e + e^2 + u (D + e)^2 <= 6 u D P + 5 u^2 P^2 of
    t_j; its sum adds gamma_(n-1) S^2. As P^2 <= 4 w^2, the two computed
    values of S^2 differ by at most half of the per-entry
        eta = sum_j w_j^2 E_ij,
        E_ij = 16 u |u_ij - a_j| (u_ij + a_j) + 6 (n + 4) u (u_ij - a_j)^2 + 64 u^2,
    taken from a second product, with ``_grid_terms``' error block; the factor 2
    also covers the rounding of eta. The last term also covers underflow: the
    largest weight is at least 1 / n, so it adds at least 64 u^2 / n^2, far
    above n times the 2^-1074 that each underflowing operation may lose. Each
    term's share is small where the alternative is close to the ideal, however
    large the column's values.
    As |sqrt(a) - sqrt(b)| is at most sqrt(|a - b|) and at most
    |a - b| / sqrt(a), each separation then differs by at most
    delta = min(sqrt(eta), eta / S); the slack of eta's second term over
    gamma_(n-1) + gamma_(n+4) covers the rounding of both square roots, at
    most u S each. Moving S+ and S- by at most delta+ and delta- moves
    s- / (s+ + s-) by at most (delta+ + 2 delta-) / (T - delta+ - delta-),
    with T = S+ + S-; 4u adds the rounding of both closeness divisions. eps
    is infinite where T <= delta+ + delta-, where the kernel's closeness may
    be undefined.

    Leave-one-out (``_removal_terms``). For removal r the kernel normalizes the
    reduced matrix itself, u'_ij = fl(x_ij / N'), N' = fl(sqrt(Q')) with Q' its
    sum of the survivors' squares, and runs on w. The product takes
    u_ij = fl(x_ij / N), N = fl(sqrt(Q)), and V_j = fl(w_j fl(w_j fl(Q / P))),
    P the prefix plus suffix sum. With rho = N / N' and kappa = 2u / (1 - u),
    u'_ij = rho u_ij (1 + k_ij) with |k_ij| <= kappa. Rounding is monotone, so
    both sides take the survivors' extreme at the same row, and
    u' - a' = rho (d + e_ij) with |e_ij| <= e = kappa (u_ij + a_j). So the
    kernel's exact term w^2 (u' - a')^2 is within rho^2 w^2 (2 |d| e + e^2) of
    rho^2 w^2 d^2, and its rounding, 6 u D P + 5 u^2 P^2 with D <= rho w (|d| + e)
    and P <= rho w (u_ij + a_j) (1 + kappa), adds at most
    rho^2 w^2 (6.01 u |d| (u_ij + a_j) + 69 u^2), as u_ij + a_j <= 2. V is
    within (3 m + 8) u of rho^2 w^2: Q' and P differ by less than 3 m u (see
    ``_removal_terms``), and three roundings in V and the two square roots
    N and N' add 7 u. The product rounds d, its square and each product, then
    sums 3n terms: gamma_(3n+3). In all, the two computed S^2 differ by at most
    sum_j V_j (10.1 u |d| (u_ij + a_j) + (4 n + 3 m + 11) u d^2 + 86 u^2), so
    half of eta with
        E_ij = 32 u |d| (u_ij + a_j) + 12 (n + m + 4) u d^2 + 256 u^2
    covers it, with the slack over the first two terms' needs again covering
    the square roots, and the factor 2 the rounding of eta. V_j is at least
    w_j^2 (1 - (3 m + 8) u), so the last term still covers underflow: a
    subnormal u_ij moves its term by at most 2^-1074 V_j, and a subnormal V_j
    by at most 2^-1075. The
    removed row's own entries are in the products too: they only raise
    ``_grid_screen``'s maxima and lower its minima, so its row bound still
    holds on the survivors, and ``_screened_order`` leaves that entry out of
    the order and of the per-entry bound. These bounds hold for
    (3 n + 3 m + 11) u <= 0.01.

    ``_grid_screen`` derives one cheaper bound per row from the same product;
    ``_screened_order`` computes these per-entry bounds only for the rows it
    cannot clear.
    """
    m = len(errors) // 2
    eta = errors @ w2.T
    delta = np.sqrt(eta)
    np.divide(eta, np.maximum(s, delta, out=delta), out=delta)
    d_plus, d_minus = delta[:m], delta[m:]
    spread = d_plus + d_minus
    room = s[:m] + s[m:] - spread
    eps = np.divide(spread + d_minus, room, out=np.full_like(room, np.inf), where=room > 0)
    eps += 4 * _U
    return eps


def _screened_order(
    squares: np.ndarray, errors: np.ndarray, w2: np.ndarray, keep: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each (k, n) squared-weight row's entries best first, as entry indices,
    from one ``_grid_screen`` product, and the rows that no bound clears.

    A filter with an exact fallback, as in Shewchuk's adaptive predicates:
    cheapest filter first, tighter ones next, exact evaluation last. A row
    whose product closeness values are all more than twice its row bound
    apart has the kernel's strict order. ``keep``, a (k, m) index, names the
    m entries that take part in each row (all, if None); the others are left
    out of the order and of every test, and their own values may overflow.

    The first test needs no exact sort. Each key, a closeness in [0, 1] or
    NaN, becomes one 64-bit word: its bits with the low b bits cleared,
    b = max(1, bit length of m - 1), ORed with its entry index.
    Nonnegative floats order as their bit patterns, so one sort of each
    row's words, viewed as float64, orders the truncated keys t, ties to the
    lower index; the low bits give the order and clearing them gives t.
    Truncation lowers a key a in [0, 1] by less than 2^(b-53), and each
    difference or subtraction below, of values within 1 of 0, rounds by at
    most 2^-53. So with L = fl(min_i fl(t_(i+1) - t_i) - 2^(b-52)), for
    adjacent entries in t's order
        a_(i+1) - a_i > fl(t_(i+1) - t_i) - 2^-53 - 2^(b-53)
                     >= L + 2^(b-52) - 2^-52 - 2^(b-53) >= L,
    as b >= 1. The row bound is at least 4u, so where L > 2 bound every
    exact gap is positive: t's order is the keys' strict order, and every
    computed gap of the exactly sorted keys is at least L, so the exact test
    would clear the row too, with this order. A NaN key stays NaN (its
    quiet bit is above the low b), sorts last and makes L NaN, so its row is
    not cleared.

    A row the first test cannot clear gets the exact order (``np.argsort``)
    and smallest gap of its sorted keys, against twice the row bound; a row
    that fails that too is screened again with its entries'
    ``_entry_bound``, twice the largest. A row none clears, including any
    whose closeness the kernel leaves undefined, is returned as unsure: the
    caller ranks it exactly. So every row is cleared, with its order, exactly
    as the exact tests alone would clear it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s, c, bound = _grid_screen(squares, w2)
        keys = c.T if keep is None else np.take_along_axis(c.T, keep, axis=1)
        m = keys.shape[1]
        bits = max(1, (m - 1).bit_length())
        # C order: each row's words are contiguous for the in-place sort.
        words = np.bitwise_and(keys.view(np.int64), -(1 << bits), order="C")
        words |= np.arange(m)
        words.view(np.float64).sort(axis=1)
        order = words & ((1 << bits) - 1)
        words ^= order
        gap = np.diff(words.view(np.float64), axis=1).min(axis=1, initial=np.inf)
        gap -= 2.0 ** (bits - 52)
        unsure = np.flatnonzero(~(gap > 2 * bound))
        if len(unsure):
            exact = keys[unsure]
            order[unsure] = np.argsort(exact, axis=1)
            gap[unsure] = np.diff(np.sort(exact, axis=1), axis=1).min(axis=1, initial=np.inf)
            unsure = unsure[~(gap[unsure] > 2 * bound[unsure])]
        if len(unsure):
            eps = _entry_bound(errors, w2[unsure], s[:, unsure]).T
            if keep is not None:
                eps = np.take_along_axis(eps, keep[unsure], axis=1)
            unsure = unsure[~(gap[unsure] > 2 * eps.max(axis=1))]
    order = order[:, ::-1]
    return order if keep is None else np.take_along_axis(keep, order, axis=1), unsure


def _identical_rows(
    unit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Groups of equal rows of ``unit``, or None when all rows differ.

    Returns the first row of each group, each row's group, each row's place
    among its group's rows in input order and each group's size. Rows group
    by value, -0.0 with 0.0, because the kernel gives such rows the same
    separations: a zero's sign is squared away.
    """
    column = np.sort(unit[:, 0])
    if not (column[1:] == column[:-1]).any():  # equal rows share their first entry
        return None
    rows = np.ascontiguousarray(unit + 0.0)  # -0.0 + 0.0 is 0.0: equal rows, equal bytes
    keys = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(unit):
        return None
    size = np.bincount(group)
    members = np.argsort(group, kind="stable")  # by group, then input order
    within = np.empty_like(group)
    within[members] = np.arange(len(unit)) - (np.cumsum(size) - size)[group[members]]
    return first, group, within, size


def _grid_ranks(unit: np.ndarray, weights: np.ndarray, benefit: np.ndarray) -> np.ndarray:
    """``_batch_topsis(unit, weights, benefit)[3]``, with the kernel run only on
    the rows that ``_screened_order`` cannot clear.

    Equal rows of ``unit`` get equal closeness from the kernel under every
    weight row, so it ranks them consecutively in input order: only one row
    of each group is screened, and its group's rows take consecutive ranks.
    A weight row that is not cleared is still ranked by the kernel on all of
    ``unit``, which raises as usual. The weight-independent terms are
    computed once. Rows are screened in ``_chunk``s, so each chunk's unsure
    rows go to the kernel in one call.
    """
    groups = _identical_rows(unit)
    squares, errors = _grid_terms(unit if groups is None else unit[groups[0]], benefit)
    ranks = np.empty((len(weights), len(unit)), dtype=np.intp)
    chunk = _chunk(len(unit), unit.size)
    for start in range(0, len(weights), chunk):
        rows = weights[start : start + chunk]
        order, unsure = _screened_order(squares, errors, rows * rows)
        out = ranks[start : start + chunk]
        if groups is None:
            _ranks_from(order, out)
        else:
            _expanded(order, *groups[1:], out)
        if len(unsure):
            out[unsure] = _batch_topsis(unit, rows[unsure], benefit)[3]
    return ranks


def _expanded(
    order: np.ndarray, group: np.ndarray, within: np.ndarray, size: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Ranks of all alternatives, written into ``out``, from ``order``, each
    weight row's groups best first (see ``_identical_rows``): a group's
    alternatives take consecutive ranks in input order."""
    sizes = size[order]
    ahead = np.empty_like(sizes)
    ahead[np.arange(len(order))[:, None], order] = np.cumsum(sizes, axis=1) - sizes
    return np.add(ahead[:, group], within + 1, out=out)


def _benefit_mask(directions: Sequence[Direction]) -> np.ndarray:
    return np.array([d is Direction.BENEFIT for d in directions])


def vector_normalize(matrix: DecisionMatrix) -> DecisionMatrix:
    """The same matrix with every column divided by its Euclidean norm."""
    unit = _unit_columns(matrix.values, matrix.criteria)
    return DecisionMatrix(matrix.alternatives, matrix.criteria, unit)


def apply_weights(normalized: DecisionMatrix, weights: WeightVector) -> np.ndarray:
    """Scale each normalized column by its criterion weight."""
    if len(weights) != normalized.n:
        raise DimensionMismatch("weight count does not match criterion count")
    return normalized.values * weights.to_array()


def ideal_points(weighted: np.ndarray, directions: Sequence[Direction]) -> IdealPoints:
    """Per-criterion best/worst weighted values, direction-adjusted."""
    weighted = np.asarray(weighted, dtype=float)
    if weighted.shape[1] != len(directions):
        raise DimensionMismatch("direction count does not match column count")
    ideal, anti = _ideal(weighted.max(axis=0), weighted.min(axis=0), _benefit_mask(directions))
    return IdealPoints(ideal=tuple(ideal.tolist()), anti_ideal=tuple(anti.tolist()))


def separations(
    weighted: np.ndarray, points: IdealPoints
) -> list[tuple[float, float]]:
    """Euclidean distances of each row from the ideal and anti-ideal points."""
    weighted = np.asarray(weighted, dtype=float)
    if weighted.shape[1] != len(points.ideal):
        raise DimensionMismatch("ideal point length does not match column count")
    s_plus, s_minus = _distances(weighted[None], np.array([points.ideal, points.anti_ideal]))
    return list(zip(s_plus.tolist(), s_minus.tolist()))


def closeness(s_plus: float, s_minus: float) -> float:
    """Relative closeness ci = s_minus / (s_plus + s_minus)."""
    total = s_plus + s_minus
    if total <= 0:
        raise DegenerateAlternative("closeness undefined when both separations are zero")
    return s_minus / total


def rank(closeness_values: Sequence[float]) -> list[int]:
    """Rank 1 = largest closeness; ties go to the earlier index."""
    return _ranks(np.asarray(closeness_values, dtype=float)[None])[0].tolist()


def topsis_rank(matrix: DecisionMatrix, weights: WeightVector) -> TopsisResult:
    """Full pipeline; the result's columns stay in input alternative order."""
    if matrix.m < 2:
        raise DegenerateAlternative("TOPSIS needs at least two alternatives")
    unit = _unit_columns(matrix.values, matrix.criteria)
    s_plus, s_minus, cis, ranks = _batch_topsis(
        unit, weights.to_array()[None, :], _benefit_mask(matrix.directions)
    )
    return TopsisResult(matrix.alternatives, s_plus[0], s_minus[0], cis[0], ranks[0])
