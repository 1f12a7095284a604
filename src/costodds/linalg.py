"""Exact linear algebra over rationals: the zero-cost level kernel.

Both solvers work one cost level at a time, and inside a level only
zero-cost edges matter. ``resolve_level`` resolves such a level: by one
pass in dependency order when its zero-cost edges are acyclic, otherwise
by policy iteration whose evaluations are square systems with Fraction
entries. Floating point is never acceptable there, so
``solve_linear_system`` does plain Gaussian elimination with partial
(first-nonzero) pivoting on exact rationals. Systems stay small: one row
per state of the level.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import SingularMatrixError

__all__ = ["resolve_level", "solve_linear_system"]


def solve_linear_system(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Solve ``matrix @ x = rhs`` exactly.

    Args:
        matrix: square coefficient matrix; rows are copied, inputs untouched.
        rhs: right-hand side of matching length.

    Returns:
        The unique solution vector.

    Raises:
        SingularMatrixError: if the matrix has no unique solution.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the rhs length")
    rows = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]

    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            row = rows[r]
            lead = rows[col]
            row[col] = Fraction(0)
            for c in range(col + 1, n + 1):
                if lead[c]:
                    row[c] -= factor * lead[c]

    solution = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = rows[r][n]
        row = rows[r]
        for c in range(r + 1, n):
            if row[c]:
                acc -= row[c] * solution[c]
        solution[r] = acc / row[r]
    return solution


def resolve_level(
    states: list,
    options: Mapping,
    mode: str,
) -> tuple[dict, dict, bool]:
    """Optimize one cost level whose internal edges all cost zero.

    Args:
        states: level members (hashable keys).
        options: per member, one (constant, zero-edges) pair per enabled
            action in canonical order; zero-edges are (member, weight)
            pairs, and an action's value is its constant plus the
            weighted values of those members.
        mode: "max" or "min".

    Returns:
        (values, choices, solved): the optimal value per member, the
        index of the lowest-index optimal action, and whether an exact
        linear solve was needed.

    Acyclic levels resolve by one pass in dependency order. Cyclic ones
    run policy iteration from the all-first-action policy; evaluation is
    an exact linear solve, guaranteed nonsingular because a zero-cost
    recurrent class under some policy would be a forbidden end component.
    """
    order = _dependency_order(states, options)
    if order is not None:
        values: dict = {}
        choices: dict = {}
        for q in order:
            best = None
            best_index = 0
            for index, (const, zeros) in enumerate(options[q]):
                acc = const
                for succ, prob in zeros:
                    acc += prob * values[succ]
                if best is None or (acc > best if mode == "max" else acc < best):
                    best, best_index = acc, index
            values[q] = best
            choices[q] = best_index
        return values, choices, False

    choosing = [q for q in states if len(options[q]) > 1]
    policy = {q: 0 for q in states}
    while True:
        values = _evaluate_policy(states, options, policy)
        improved = False
        for q in choosing:
            best_index = policy[q]
            best = values[q]
            for index, (const, zeros) in enumerate(options[q]):
                acc = const
                for succ, prob in zeros:
                    acc += prob * values[succ]
                if (acc > best) if mode == "max" else (acc < best):
                    best, best_index = acc, index
            if best_index != policy[q]:
                policy[q] = best_index
                improved = True
        if not improved:
            break

    choices = dict.fromkeys(states, 0)
    for q in choosing:
        chosen = None
        for index, (const, zeros) in enumerate(options[q]):
            acc = const
            for succ, prob in zeros:
                acc += prob * values[succ]
            if acc == values[q]:
                chosen = index
                break
        if chosen is None:
            raise AssertionError("policy iteration left a non-optimal fixpoint")
        choices[q] = chosen
    return values, choices, True


def _dependency_order(states: list, options: Mapping) -> "list | None":
    """Members ordered with zero-edge targets first, or None on a cycle."""
    indegree: dict = {}
    dependents: dict = {}
    for q in states:
        for _, zeros in options[q]:
            for dep, _ in zeros:
                indegree[q] = indegree.get(q, 0) + 1
                dependents.setdefault(dep, []).append(q)
    order = [q for q in states if q not in indegree]
    for q in order:
        for follower in dependents.get(q, ()):
            indegree[follower] -= 1
            if indegree[follower] == 0:
                order.append(follower)
    return order if len(order) == len(states) else None


def _evaluate_policy(states: list, options: Mapping, policy: Mapping) -> dict:
    index = {q: i for i, q in enumerate(states)}
    n = len(states)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for q in states:
        row = index[q]
        matrix[row][row] += Fraction(1)
        const, zeros = options[q][policy[q]]
        rhs[row] = const
        for succ, prob in zeros:
            matrix[row][index[succ]] -= prob
    solution = solve_linear_system(matrix, rhs)
    return {q: solution[index[q]] for q in states}
