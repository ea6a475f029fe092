"""The term orders as toricdeg implemented them before `polycore.TermOrder`
became the one order class: five classes, each with its own nested-tuple
key, copied verbatim.  Two more give the orders the Groebner engine builds
for itself, `WeightRows` and `Lifted`, in the same style.  Tests compare
`TermOrder`'s one int key, and the engine's packed key, against them.
"""

from __future__ import annotations

from typing import Sequence

from toricdeg.polycore import DimensionMismatch, Exponent, dot


class DegRevLex:
    """Graded reverse lexicographic on the declared variable sequence."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def key(self, e: Exponent):
        return (sum(e), tuple(-x for x in reversed(e)))


class Lex:
    """Lexicographic with an explicit variable priority.

    `priority` lists variable indices from most to least significant.
    """

    def __init__(self, priority: Sequence[int]):
        self.priority = tuple(priority)
        self.nvars = len(self.priority)
        if sorted(self.priority) != list(range(self.nvars)):
            raise ValueError("priority must be a permutation of all variable indices")

    def key(self, e: Exponent):
        return tuple(e[i] for i in self.priority)


class WeightOrder:
    """Min-convention weight rows refined by reversed lex."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if not rows:
            raise ValueError("need at least one weight row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("weight rows of unequal length")
        self.rows = rows
        self.nvars = n
        self.well_ordered = all(next((x for x in col if x), -1) < 0
                                for col in zip(*rows))

    def key(self, e: Exponent):
        return (tuple(-dot(r, e) for r in self.rows), e[::-1])


class BlockOrder:
    """Two-block elimination order: degrevlex on `first`, then on `second`."""

    def __init__(self, first: Sequence[int], second: Sequence[int]):
        self.first = tuple(first)
        self.second = tuple(second)
        self.nvars = len(self.first) + len(self.second)
        if sorted(self.first + self.second) != list(range(self.nvars)):
            raise ValueError("blocks must partition the variable indices")
        self._rev1 = tuple(reversed(self.first))
        self._rev2 = tuple(reversed(self.second))

    def key(self, e: Exponent):
        return (
            sum(e[i] for i in self.first),
            tuple(-e[i] for i in self._rev1),
            sum(e[i] for i in self.second),
            tuple(-e[i] for i in self._rev2),
        )


class GradedRevLexLast:
    """w-graded order whose leading term minimizes one chosen exponent (the
    order of `groebner._saturate_variable_graded`)."""

    def __init__(self, w: Sequence[int], i: int):
        self.w = tuple(w)
        self.i = i
        self.nvars = len(self.w)
        self._rest_rev = tuple(j for j in range(self.nvars - 1, -1, -1) if j != i)

    def key(self, e: Exponent):
        return (sum(wi * ei for wi, ei in zip(self.w, e)), -e[self.i],
                tuple(-e[j] for j in self._rest_rev))


class WeightRows:
    """Min-convention weight rows refined by degrevlex (the order of
    `groebner._weight_order`)."""

    def __init__(self, rows: Sequence[Sequence[int]], nvars: int):
        self.rows = tuple(tuple(r) for r in rows)
        self.nvars = nvars
        self._tie = DegRevLex(nvars)

    def key(self, e: Exponent):
        return (tuple(-dot(r, e) for r in self.rows), self._tie.key(e))


class Lifted:
    """Total degree, then `order` on every entry but the last (the order of
    `groebner._lifted`, the last entry being the homogenizing variable)."""

    def __init__(self, order):
        self.order = order
        self.nvars = order.nvars + 1

    def key(self, e: Exponent):
        return (sum(e), self.order.key(e[:-1]))
