"""Support sets of a binary matrix.

A support set is a set of 1-entries such that (1) every listed entry really
is a 1 (the all-zero matrix supports only the empty set), (2) every 1-entry
of the matrix shares its row or its column with some listed entry, and
(3) no two listed entries share a row and no two share a column. The size of
a maximum support set tells a pair scheduler how many beats can serve both
chains at once.

Why support sets are exactly the maximal matchings of the bipartite
row/column graph: condition (3) says the chosen entries form a matching.
Condition (2) says no 1-entry is free of them in both its row and column,
i.e. no edge could be added while keeping (3), which is precisely maximality.
Conversely a maximal matching satisfies (1) and (3) by construction and (2)
because an uncovered 1-entry would extend it. Hence a maximum support set is
a maximum matching, computed here by augmenting paths, and the brute-force
oracle (exhaustive search over entry subsets) must agree with it.

Tiled sizes without tiling: the l1 x l2 tiling of an n x o matrix M has
l1 copies of every row and l2 copies of every column, and a row copy of r
meets a column copy of c in a 1-entry exactly when M[r][c] = 1. So every copy
of row r is adjacent to every copy of column c. A matching of the tiling
projects to a flow f on the 1-entries of M, f[r][c] being the number of its
edges between copies of r and copies of c; row r's load is at most l1 (it
has l1 copies) and column c's at most l2. Conversely, a flow on the
1-entries with row loads <= l1 and column loads <= l2 lifts to a matching of
the same size: hand each row's units to distinct copies of that row and each
column's units to distinct copies of that column; each unit then joins a row
copy and a column copy that are adjacent, and no copy is used twice. Hence
the maximum support size of the tiling is the maximum flow on M with row
capacity l1 and column capacity l2, which tiled_support_sizes computes.

Its certificate is a weighted cover: a set U of rows and C of columns such
that every 1-entry lies in a row of U or a column of C. Each unit of a
feasible flow sits on a covered entry, so it counts against the load of a
row in U (at most l1 each) or a column in C (at most l2 each); no flow
exceeds l1 * |U| + l2 * |C|. When the augmenting search stops, the rows it
did not reach and the columns it reached form such a cover, and its weight
equals the flow (Ford-Fulkerson's min cut; König's theorem when l1 = l2 = 1),
which proves the flow maximum, not only maximal. So each entry is the least
cover weight, and only the covers on the lower convex hull of the points
(|U|, |C|) matter, at most min(rows, cols) + 1.

Checking rays, not entries: tiled_support_sizes finds those covers by a
breakpoint search over l1 : l2 (Eisner & Severance 1976). It starts from
the limit rays (0, 1) and (1, 0), where the all-rows and the all-columns
covers weigh 0 and the empty flow meets them. Where the covers P and Q that
the flows at two rays meet each weigh more at the other ray, it saturates a
flow from empty at the ray where they weigh the same, l1 : l2 =
(|C_Q| - |C_P|) : (|U_P| - |U_Q|). A flow there that meets P's weight
confirms the hull edge P-Q; one that falls short leaves a cover lighter
there than both, and the search recurses on either side of its ray. It
finds the whole hull, whatever the cap, in at most 2 * min(rows, cols) + 1
searches. Each stops at the lightest checked cover's weight, and the cover
a failed search leaves is checked and must weigh what the flow does.

Why the rays prove every entry: the probed rays cut the quadrant into
cones whose rays lo and hi share a cover S, of weight w_S, that both rays'
checked flows f_lo and f_hi meet. Each (l1, l2) in such a cone is
a * lo + b * hi for rationals a, b >= 0, and a * f_lo + b * f_hi is a
fractional flow feasible at (l1, l2) of size w_S(l1, l2). Bipartite
incidence matrices are totally unimodular (Hoffman & Kruskal 1956), so an
integral flow is as large, and none outweighs S: the entry is w_S(l1, l2),
the least weight over the checked covers, since each of them bounds it. A
failed search's cover, the rows it did not reach and the columns it reached,
is the same for every maximum flow, so neither the covers nor the table
depend on which maximum flow a search reaches.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterable, Sequence

from .errors import ConsistencyError, DomainError
from .model import _bits, _check_counts, _row_masks

__all__ = [
    "validate_support_set",
    "max_support_set",
    "tiled_support_sizes",
    "brute_force_max_support",
]

Element = tuple[int, int]  # (row, col), 1-based
_Flow = list[list[int]]  # units on each entry, row after row

_BRUTE_FORCE_CELL_LIMIT = 30


def validate_support_set(
    matrix: Sequence[Sequence[int]], elements: Iterable[Element]
) -> tuple[bool, list[str]]:
    """Check the three support-set conditions; returns (ok, violations).

    Elements are (row, column) pairs of 1-based ints (a bool is not one);
    any other element, or one out of range, is a domain error, not a violation.
    """
    violations = _violations(*_row_masks(matrix), elements)
    return (not violations, violations)


def _violations(ones: Sequence[int], width: int, elements: Iterable[Element]) -> list[str]:
    """validate_support_set's checks on a matrix given as row masks."""
    n = len(ones)
    chosen = []
    for element in elements:
        try:
            r, c = element
        except (TypeError, ValueError):
            raise DomainError(f"element {element!r} is not a (row, column) pair") from None
        if type(r) is not int or type(c) is not int:
            raise DomainError(f"element ({r!r}, {c!r}) has a position that is not an int")
        chosen.append((r, c))
    chosen = sorted(set(chosen))
    for r, c in chosen:
        if not (1 <= r <= n and 1 <= c <= width):
            raise DomainError(f"element ({r}, {c}) outside a {n}x{width} matrix")
    violations = []
    for r, c in chosen:
        if not ones[r - 1] >> (c - 1) & 1:
            violations.append(f"condition 1: element ({r}, {c}) is not a 1-entry")
    used_rows = used_cols = 0
    for r, c in chosen:
        if used_rows >> (r - 1) & 1:
            violations.append(f"condition 3: row {r} used by more than one element")
        if used_cols >> (c - 1) & 1:
            violations.append(f"condition 3: column {c} used by more than one element")
        used_rows |= 1 << (r - 1)
        used_cols |= 1 << (c - 1)
    for i, row in enumerate(ones):
        if not used_rows >> i & 1:
            violations += [
                f"condition 2: 1-entry ({i + 1}, {j + 1}) shares no row or column with any element"
                for j in _bits(row & ~used_cols)
            ]
    return violations


def max_support_set(matrix: Sequence[Sequence[int]]) -> tuple[tuple[Element, ...], int]:
    """Maximum support set via augmenting paths, plus its size.

    Deterministic: rows are processed ascending and each search explores
    columns ascending, so equal inputs give identical witnesses. The search
    is a depth-first walk over an explicit stack, so its depth is bounded by
    memory, not by the interpreter's recursion limit. Each row is a column
    mask, and a row's next column is the lowest bit of its mask outside the
    columns the search has seen.
    """
    return _max_support(*_row_masks(matrix))


def _max_support(adjacent: Sequence[int], o: int) -> tuple[tuple[Element, ...], int]:
    """max_support_set on a matrix given as row masks over o columns."""
    match_col: list[int | None] = [None] * o  # column -> matched row

    for root in range(len(adjacent)):
        seen = 0
        # stack holds the rows of the current path; via[k] is the column
        # through which stack[k] descended to stack[k + 1]
        stack = [root]
        via: list[int] = []
        while stack:
            row = stack[-1]
            free = adjacent[row] & ~seen
            if not free:
                stack.pop()
                if via:
                    via.pop()
                continue
            low = free & -free
            c = low.bit_length() - 1
            seen |= low
            if match_col[c] is None:
                match_col[c] = row
                for path_row, col in zip(stack, via):
                    match_col[col] = path_row
                break
            via.append(c)
            stack.append(match_col[c])
    elems = sorted((match_col[c] + 1, c + 1) for c in range(o) if match_col[c] is not None)
    # Exchange pass: among matchings over the same rows and columns, pair
    # earlier rows with earlier columns whenever the four entries involved
    # allow it. Augmenting leaves displacement artifacts otherwise (the
    # all-ones matrix would come out anti-diagonal), and downstream joint
    # beats read better when both phase sequences ascend together.
    changed = True
    while changed:
        changed = False
        for a in range(len(elems)):
            r1, c1 = elems[a]
            for b in range(a + 1, len(elems)):
                r2, c2 = elems[b]
                if c1 > c2 and adjacent[r1 - 1] >> (c2 - 1) & 1 and adjacent[r2 - 1] >> (c1 - 1) & 1:
                    elems[a], elems[b] = (r1, c2), (r2, c1)
                    c1 = c2
                    changed = True
    elements = tuple(elems)
    violations = _violations(adjacent, o, elements)
    if violations:
        raise ConsistencyError(f"matching produced an invalid support set: {violations}")
    return elements, len(elements)


def tiled_support_sizes(matrix: Sequence[Sequence[int]], max_traversals: int) -> tuple[tuple[int, ...], ...]:
    """Maximum support size of every l1 x l2 tiling, l1, l2 in 1..max_traversals.

    Entry [l1 - 1][l2 - 1] equals max_support_set(continuation(matrix, l1,
    l2))[1], computed without tiling: it is the maximum flow on the untiled
    matrix with row capacity l1 and column capacity l2 (see the module
    docstring). Every entry is proved maximum by a checked cover; a failed
    check is a ConsistencyError.
    """
    _check_counts(f"max_traversals must be >= 1, got {max_traversals}", max_traversals=max_traversals)
    return _tiled_sizes(*_row_masks(matrix), max_traversals)


def _tiled_sizes(ones: Sequence[int], width: int, max_traversals: int) -> tuple[tuple[int, ...], ...]:
    """tiled_support_sizes on row masks over `width` columns, max_traversals >= 1.
    The module docstring's breakpoint search starts from the limit rays and
    the all-rows and all-columns covers; a pending cone is done when one of
    its rays' covers meets both. Nothing pairs without a column."""
    if not width:
        return ((0,) * max_traversals,) * max_traversals
    n = len(ones)
    # each checked cover (unreached rows, reached columns) -> its row and column counts
    covers = {cover: _check_cover(ones, *cover) for cover in (((1 << n) - 1, 0), (0, (1 << width) - 1))}
    # a pending cone: its rays lo and hi, as (row cap, column cap), each
    # followed by the (row count, column count) of the cover met there
    pending = [(0, 1, n, 0, 1, 0, 0, width)]
    while pending:
        lo_row, lo_col, p_rows, p_cols, hi_row, hi_col, q_rows, q_cols = pending.pop()
        # p and q weigh the same at this ray; each weighs more at the other's
        # ray exactly when the ray lies strictly inside the cone
        cap_row, cap_col = q_cols - p_cols, p_rows - q_rows
        if hi_row * cap_col > hi_col * cap_row and lo_col * cap_row > lo_row * cap_col:
            weight = -1
            for sizes in covers.values():  # the first lightest cover bounds the search
                w = cap_row * sizes[0] + cap_col * sizes[1]
                if w < weight or weight < 0:
                    weight, r = w, sizes
            flow, row_load, col_load, total, cover = _saturate(ones, width, cap_row, cap_col, weight)
            _check_flow(ones, (cap_row, cap_col), flow, row_load, col_load, total)
            if cover is not None:
                r = covers[cover] = _check_cover(ones, *cover)
                weight = cap_row * r[0] + cap_col * r[1]
            if weight != total:
                message = f"cover weight {weight} differs from flow {total}"
                raise ConsistencyError(f"capacitated flow failed its certificate: {message}")
            if total < cap_row * p_rows + cap_col * p_cols:
                pending += [
                    (lo_row, lo_col, p_rows, p_cols, cap_row, cap_col, *r),
                    (cap_row, cap_col, *r, hi_row, hi_col, q_rows, q_cols),
                ]
    # row l1 of each cover's weights is an arithmetic progression in l2; the
    # all-rows and all-columns covers make at least two of them for min
    return tuple(
        tuple(islice(map(min, *[count(l1 * a + c, c) for a, c in covers.values()]), max_traversals))
        for l1 in range(1, max_traversals + 1)
    )


def _core(ones: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Row masks with every all-zero row and column dropped and the columns
    left renumbered in order, plus their width.

    _tiled_sizes gives the same table on the core as on the whole matrix: a
    zero row or column carries no flow, and a cover of the core's 1-entries
    covers every 1-entry of the matrix.
    """
    rows = [row for row in ones if row]
    used = 0
    for row in rows:
        used |= row
    if used & (used + 1):  # a zero column below the last used one
        columns = [j for j in range(used.bit_length()) if used >> j & 1]
        rows = [sum(1 << k for k, j in enumerate(columns) if row >> j & 1) for row in rows]
    return tuple(rows), used.bit_count()


def _saturate(
    ones: Sequence[int], width: int, cap_row: int, cap_col: int, bound: int
) -> tuple[_Flow, list[int], list[int], int, tuple[int, int] | None]:
    """Saturate a flow from empty at these capacities until it reaches bound
    or no augmenting path is left. Return the flow, its row and column loads,
    its size, and None if it reached bound, else the failed search's cover:
    the rows it did not reach and the columns it reached, as masks.

    Each row first fills its open columns (those with spare capacity)
    directly. Then breadth-first search over the residual graph: a row
    with spare capacity starts a path, a 1-entry leads from its row to
    its column, a column leads back to every row that sends it flow, and
    an open column ends the path.
    """
    n = len(ones)
    flow, row_load, col_load, total = [[0] * width for _ in range(n)], [0] * n, [0] * width, 0
    open_cols = (1 << width) - 1
    for i, row in enumerate(ones):
        spare, hit = cap_row, row & open_cols
        while spare and hit:
            low = hit & -hit
            hit ^= low
            j = low.bit_length() - 1
            delta = min(spare, cap_col - col_load[j])
            flow[i][j] += delta
            col_load[j] += delta
            if col_load[j] == cap_col:
                open_cols ^= low
            spare -= delta
            total += delta
        row_load[i] = cap_row - spare
    while total < bound:
        # via_col[i]: the column a reached row i came from, -1 for a start
        # row; via_row[j]: the row a reached column j came from
        via_col = [-1] * n
        via_row = [-1] * width
        queue = [i for i, load in enumerate(row_load) if load < cap_row]
        reached_rows, reached_cols, end = sum(1 << i for i in queue), 0, -1
        for i in queue:
            new = ones[i] & ~reached_cols
            reached_cols |= new
            ends = new & open_cols
            if ends:
                end = (ends & -ends).bit_length() - 1
                via_row[end] = i
                break
            while new:
                low = new & -new
                new ^= low
                j = low.bit_length() - 1
                via_row[j] = i
                for k in range(n):
                    if flow[k][j] > 0 and not reached_rows >> k & 1:
                        reached_rows |= 1 << k
                        via_col[k] = j
                        queue.append(k)
        if end < 0:
            return flow, row_load, col_load, total, ((1 << n) - 1 & ~reached_rows, reached_cols)
        # Walk the path back from its end: column j was reached from row
        # via_row[j] over a forward entry, and a row i that is not a start
        # from column via_col[i] over a backward entry, whose flow bounds
        # the push. Push the bottleneck through.
        delta = cap_col - col_load[end]
        i = via_row[end]
        while (j := via_col[i]) >= 0:
            delta = min(delta, flow[i][j])
            i = via_row[j]
        delta = min(delta, cap_row - row_load[i])
        row_load[i] += delta
        col_load[end] += delta
        if col_load[end] == cap_col:
            open_cols ^= 1 << end
        j = end
        while j >= 0:
            i = via_row[j]
            flow[i][j] += delta
            j = via_col[i]
            if j >= 0:
                flow[i][j] -= delta
        total += delta
    return flow, row_load, col_load, total, None


def _check_cover(ones: Sequence[int], unreached_rows: int, reached_cols: int) -> tuple[int, int]:
    """The cover's row and column counts; raise ConsistencyError unless every
    1-entry of the matrix lies in a row of unreached_rows or a column of
    reached_cols."""
    problems = [
        f"row {i + 1} has a 1-entry outside the cover"
        for i, row in enumerate(ones)
        if not unreached_rows >> i & 1 and row & ~reached_cols
    ]
    if problems:
        raise ConsistencyError(f"capacitated flow failed its certificate: {problems}")
    return unreached_rows.bit_count(), reached_cols.bit_count()


def _check_flow(
    ones: Sequence[int], caps: tuple[int, int], flow: _Flow, row_load: list[int], col_load: list[int], total: int
) -> None:
    """Raise ConsistencyError unless the flow is feasible on the matrix at
    these capacities: non-negative, none on a 0-entry, with row and column
    sums equal to the loads, which stay within capacity and sum to the
    flow's size."""
    cap_row, cap_col = caps
    # units on 0-entries, read from each row's 0-bits, which are few in a dense core
    off = 0
    for row, units in zip(ones, flow):
        zeros = ~row & (1 << len(units)) - 1
        while zeros:
            low = zeros & -zeros
            zeros ^= low
            off = off or units[low.bit_length() - 1]
    problems = []
    if min(map(min, flow)) < 0 or off:
        problems.append(f"flow {flow} has units off its 1-entries or below 0")
    if list(map(sum, flow)) != row_load or max(row_load) > cap_row:
        problems.append(f"row loads {row_load} are wrong or exceed {cap_row}")
    if list(map(sum, zip(*flow))) != col_load or max(col_load) > cap_col:
        problems.append(f"column loads {col_load} are wrong or exceed {cap_col}")
    if sum(row_load) != total:
        problems.append(f"row loads {row_load} do not sum to the flow's size {total}")
    if problems:
        raise ConsistencyError(f"capacitated flow failed its certificate: {problems}")


def brute_force_max_support(matrix: Sequence[Sequence[int]]) -> int:
    """Maximum support size by exhaustive search, for cross-checking.

    Enumerates every row/column-disjoint subset of 1-entries (each row picks
    one column or none) and keeps the largest that validates. Guarded to
    matrices of at most 30 cells.
    """
    ones, o = _row_masks(matrix)
    n = len(ones)
    if n * o > _BRUTE_FORCE_CELL_LIMIT:
        raise DomainError(f"brute force limited to {_BRUTE_FORCE_CELL_LIMIT} cells, got {n}x{o}")

    best = -1

    def recurse(r: int, used_cols: int, chosen: list[Element]):
        nonlocal best
        # even taking one entry in every remaining row cannot beat the best
        if len(chosen) + (n - r) <= best:
            return
        if r == n:
            if len(chosen) > best and not _violations(ones, o, chosen):
                best = len(chosen)
            return
        for c in _bits(ones[r] & ~used_cols):
            chosen.append((r + 1, c + 1))
            recurse(r + 1, used_cols | 1 << c, chosen)
            chosen.pop()
        recurse(r + 1, used_cols, chosen)

    recurse(0, 0, [])
    return max(best, 0)
