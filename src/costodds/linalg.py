"""Strongly connected components and the exact component kernel.

``strongly_connected`` is the package's one SCC routine: validation,
the acyclicity test and each process's zero-cost components, which the
chain and MDP solvers both read, call it. It emits each component after
every component it reaches, so a solver that resolves components in that
order finds every value a component reads from outside already fixed.
The kernel solves the MDP solver's components, of (state, remaining
budget) vertices, straight from each state's ``IntTable.rows`` entry:
``_best`` gives a lone vertex its best action, ``resolve_component``
runs policy iteration on a zero-cost cycle, whose evaluations are square
linear systems with one row per member.

The kernel runs on integers. Each action's weights are ints over that
action's own denominator D_a, and every value is a reduced (numerator,
denominator) int pair. An action's value is summed term by term with
Henrici's rule, as ``fractions`` adds, so each gcd sees at most one
value's denominator; putting all terms over one common denominator
instead would leave a gcd of the whole sum, which on wide-denominator
processes reaches numerators of 10^5 bits. Floating point is never
acceptable, and the package has one exact solve: ``solve_linear_system``,
fraction-free Gauss-Jordan (Bareiss 1968) on integer systems with any
number of right-hand sides. The chain solver's zero-cost closure calls it
once per cyclic component; policy evaluation scales each row to integers
and calls it with one column.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, MutableMapping

from .errors import SingularMatrixError

__all__ = ["resolve_component", "solve_linear_system", "strongly_connected"]


def strongly_connected(
    roots: Iterable, successors: Callable[[object], Iterable]
) -> Iterator[tuple[list, bool]]:
    """Tarjan's algorithm without recursion.

    Args:
        roots: start vertices (hashable); every vertex reachable from
            them is visited, in the order given and then depth first.
        successors: the out-neighbours of a vertex, called once per
            visited vertex.

    Yields:
        (members, cyclic) for each strongly connected component, after
        every component it reaches; ``cyclic`` is true when an edge stays
        inside the component (two or more members, or a self-loop).
    """
    index: dict = {}
    low: dict = {}  # lowlinks of the vertices still on the stack
    stack: list = []
    looped: set = set()
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work = [(root, len(stack), iter(successors(root)))]
        stack.append(root)
        while work:
            vertex, height, edges = work[-1]
            for succ in edges:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    work.append((succ, len(stack), iter(successors(succ))))
                    stack.append(succ)
                    break
                if succ in low:
                    if low[succ] < low[vertex]:
                        low[vertex] = low[succ]
                    elif succ == vertex:
                        looped.add(vertex)
            else:
                work.pop()
                if low[vertex] == index[vertex]:
                    component = stack[height:]
                    del stack[height:]
                    for member in component:
                        del low[member]
                    yield component, len(component) > 1 or vertex in looped
                elif low[vertex] < low[work[-1][0]]:
                    low[work[-1][0]] = low[vertex]


def resolve_component(
    members: list, rows: Mapping, level: tuple, values: MutableMapping, mode: str
) -> list[int]:
    """Optimize one cyclic component of states whose internal edges cost zero.

    ``rows`` is ``IntTable.rows`` and ``level`` is (cost, left, accept,
    tail, target): the level's cost, its remaining budget, the formula's
    ``IntervalSet``, its verdict past the budget as 0 or 1, and the
    target. ``values`` holds reduced (numerator, denominator) pairs keyed
    by (state, remaining budget) for every vertex outside the component
    that an edge names, and receives the members' values. Returns each
    member's lowest-index optimal action under ``mode``, "max" or "min".

    Policy iteration starts from the all-first-action policy; evaluation
    is an exact linear solve, nonsingular because a zero-cost recurrent
    class under some policy would be a forbidden end component.
    """
    left = level[1]
    choosing = [q for q in members if len(rows[q]) > 1]
    policy = dict.fromkeys(members, 0)
    lowest = dict(policy)
    improved = True
    while improved:
        _evaluate_policy(members, rows, policy, level, values)
        improved = False
        for q in choosing:
            best, lowest[q] = _best(rows[q], level, values, mode)
            # The policy's action attains the member's value, so any other
            # best is a strict improvement.
            if best != values[q, left]:
                policy[q], improved = lowest[q], True
    # No member improved, so the values are optimal and ``lowest`` holds
    # each member's lowest-index optimal action.
    return [lowest[q] for q in members]


def _best(actions: tuple, level: tuple, values: Mapping, mode: str) -> tuple[tuple[int, int], int]:
    """The best value of a state's ``actions`` at ``level``, reduced, and its lowest index.

    An edge past the remaining budget adds its weight times the tail
    verdict, one into the target its weight if the formula accepts its
    cost, and any other its weight times its vertex's value. The sum is
    kept reduced term by term, as ``fractions`` adds: Henrici's rule takes
    the gcd of the two denominators, then of the new numerator against
    that gcd alone, so no gcd ever sees a whole product of denominators.
    Actions compare by cross-multiplication; only the winner is divided
    by its D_a.
    """
    cost, left, accept, tail, target = level
    best_num = best_den = best_scale = best_index = 0
    for index, (scale, entries) in enumerate(actions):
        num, den = 0, 1
        for succ, step, weight in entries:
            if step > left:
                if tail:
                    num += weight * den
                continue
            if succ == target:
                if cost + step in accept:
                    num += weight * den
                continue
            n, d = values[succ, left - step]
            if not n:
                continue
            if d == 1:
                num += n * weight * den
                continue
            g = gcd(weight, d)
            if g != 1:
                weight //= g
                d //= g
            n *= weight
            g = gcd(den, d)
            if g == 1:
                num, den = num * d + n * den, den * d
            else:
                s = den // g
                t = num * (d // g) + n * s
                g2 = gcd(t, g)
                num, den = (t, s * d) if g2 == 1 else (t // g2, s * (d // g2))
        den *= scale
        if not index or (
            num * best_den > best_num * den if mode == "max" else num * best_den < best_num * den
        ):
            best_num, best_den, best_scale, best_index = num, den, scale, index
    # The sum is reduced, so only the part of the scale it shares can cancel.
    g = gcd(best_num, best_scale)
    return (best_num // g, best_den // g), best_index


def _evaluate_policy(
    members: list, rows: Mapping, policy: Mapping, level: tuple, values: MutableMapping
) -> None:
    """Write the values of ``policy`` on the component's members.

    Edges are classified as in ``_best``, but a zero-cost one that stays
    in the component is a matrix column. Each member's row x_q =
    (constant + Σ weight·x) / D_a is multiplied by D_a·L, where L is the
    lcm of the outside values' denominators, so every entry is an int.
    """
    cost, left, accept, tail, target = level
    index = {q: i for i, q in enumerate(members)}
    matrix, rhs = [], []
    for i, q in enumerate(members):
        scale, entries = rows[q][policy[q]]
        row = [0] * len(members)
        row[i] = scale
        const = 0
        outside = []
        for succ, step, weight in entries:
            if step > left:
                const += tail * weight
            elif succ == target:
                if cost + step in accept:
                    const += weight
            elif not step and succ in index:
                row[index[succ]] -= weight
            else:
                n, d = values[succ, left - step]
                if n:
                    outside.append((weight * n, d))
        multiple = lcm(*(d for _, d in outside))
        matrix.append([entry * multiple for entry in row])
        rhs.append([const * multiple + sum(n * (multiple // d) for n, d in outside)])
    d, solution = solve_linear_system(matrix, rhs)
    for q, (y,) in zip(members, solution):
        g = gcd(y, d)
        values[q, left] = (y // g, d // g)


def solve_linear_system(
    matrix: list[list[int]], rhs: list[list[int]]
) -> tuple[int, list[list[int]]]:
    """Solve ``matrix @ X = rhs`` over the integers, with no fractions.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): each step
    replaces a row by (pivot·row − factor·lead) / previous pivot, a
    division that is always exact, so every entry stays an integer.

    Args:
        matrix: square integer coefficient matrix; inputs untouched.
        rhs: one integer row per matrix row, any number of columns.

    Returns:
        (d, Y) with d > 0 and matrix @ Y = d·rhs, so X = Y / d.

    Raises:
        SingularMatrixError: if the matrix has no unique solution.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the rhs length")
    rows = [[*row, *extra] for row, extra in zip(matrix, rhs)]
    previous = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        lead = rows[col]
        pivot = lead[col]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(pivot * a - factor * b) // previous for a, b in zip(rows[r], lead)]
        previous = pivot
    sign = -1 if previous < 0 else 1
    return sign * previous, [[sign * value for value in row[n:]] for row in rows]
