"""Dense multidimensional arrays of polynomials and multi-index bookkeeping.

Shapes stay tiny (nothing beyond 2x2x2x2 or 3x3 in practice); sparsity lives
in the polynomial entries.  Storage is row-major with the last index fastest.
The fixed enumeration convention for degree-k multi-indices is descending
lexicographic, so position 0 always differentiates by the first variable as
many times as possible.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from functools import reduce
from operator import add, mul

from .errors import DomainError
from .poly import MultiPoly, form_vars, lift, lower, merge_vars, readable_vars


_MAX_ENTRIES = 8 ** 4  # every entry is stored, so bound the count before building any


def _lowered(xs, variables) -> list:
    """The items of polynomials or scalars whose variables are among ``variables``."""
    return [x.with_vars(variables) if type(x) is MultiPoly else x for x in map(lower, xs)]


def check_shape(shape) -> tuple[int, ...]:
    s = tuple(map(operator.index, shape))
    if any(n < 1 for n in s):
        raise DomainError(f"shape dimensions must be positive: {s}")
    if any(n > 8 for n in s):
        raise DomainError(f"shape dimensions above 8 are out of scope: {s}")
    if math.prod(s) > _MAX_ENTRIES:
        raise DomainError(f"shapes above {_MAX_ENTRIES} entries are out of scope: {s}")
    return s


def multi_indices(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of length ``nvars`` summing to ``degree``,
    in descending lexicographic order."""
    if nvars < 1:
        raise DomainError("need at least one variable")
    if degree < 0:
        raise DomainError("degree must be >= 0")
    return tuple(tuple(c.count(i) for i in range(nvars))
                 for c in itertools.combinations_with_replacement(range(nvars), degree))


class Tensor:
    """Dense tensor of polynomial entries sharing one variable list.

    Each entry is held as its item (``poly.lower``): its canonical value when constant,
    else a :class:`MultiPoly` on ``vars``.  ``entries`` and ``t[idx]`` lift items to
    polynomials on each read and keep nothing.  Immutable by convention: every
    operation returns a new tensor, so tensors can be shared freely across threads.
    """

    __slots__ = ("shape", "vars", "_items")

    def __init__(self, shape, entries, variables=None):
        self.shape = check_shape(shape)
        size = math.prod(self.shape)
        entries = list(entries)
        if len(entries) != size:
            raise ValueError(f"expected {size} entries for shape {self.shape}, got {len(entries)}")
        if variables is None:
            variables = merge_vars(x.vars for x in entries if type(x) is MultiPoly)
        self.vars = readable_vars(variables)
        self._items = _lowered(entries, self.vars)

    @classmethod
    def _built(cls, shape, items, variables) -> "Tensor":
        t = object.__new__(cls)  # shape checked, items a list already on ``variables``
        t.shape, t.vars, t._items = shape, variables, items
        return t

    @property
    def entries(self) -> list:
        """The entries, as polynomials on ``vars``, lifted from the items on each read."""
        return [lift(x, self.vars) for x in self._items]

    @classmethod
    def zeros(cls, shape, variables=()) -> "Tensor":
        return cls.from_function(shape, lambda _: 0, variables)

    @classmethod
    def from_function(cls, shape, fn, variables=None) -> "Tensor":
        shape = check_shape(shape)
        entries = [fn(idx) for idx in itertools.product(*map(range, shape))]
        return cls(shape, entries, variables)

    # -- indexing -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def indices(self):
        return itertools.product(*map(range, self.shape))

    def flat_index(self, idx) -> int:
        idx = (idx,) if isinstance(idx, int) else tuple(idx)
        if len(idx) != len(self.shape):
            raise IndexError(f"index {idx} has wrong arity for shape {self.shape}")
        flat = 0
        for i, n in zip(idx, self.shape):
            if not 0 <= i < n:
                raise IndexError(f"index {idx} out of bounds for shape {self.shape}")
            flat = flat * n + i
        return flat

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not 0 <= (flat := operator.index(flat)) < len(self._items):
            raise IndexError(f"index {flat} out of bounds for shape {self.shape}")
        idx = []
        for n in reversed(self.shape):
            idx.append(flat % n)
            flat //= n
        return tuple(reversed(idx))

    def __getitem__(self, idx) -> MultiPoly:
        return lift(self._items[self.flat_index(idx)], self.vars)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self._items == other._items

    __hash__ = None

    # -- structural operations ------------------------------------------------

    def map_entries(self, fn) -> "Tensor":
        return Tensor(self.shape, [fn(p) for p in self.entries])

    def _combine(self, other, op):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise DomainError(f"shape mismatch: {self.shape} vs {other.shape}")
        vs = merge_vars((self.vars, other.vars))
        return Tensor._built(self.shape, _lowered(map(op, self._items, other._items), vs), vs)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def transpose(self, perm) -> "Tensor":
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"{perm} is not a permutation of axes")
        new_shape = tuple(self.shape[p] for p in perm)
        inverse = [perm.index(axis) for axis in range(self.ndim)]
        items = [self._items[self.flat_index(tuple(nidx[i] for i in inverse))]
                 for nidx in itertools.product(*map(range, new_shape))]
        return Tensor._built(new_shape, items, self.vars)

    def _act(self, axes, rows) -> "Tensor":
        """Map each slot in ``axes`` (ascending) through one r x n list of scalars or
        polynomials: new[..., i, ...] = sum_j rows[i][j] * old[..., j, ...]."""
        shape = check_shape(len(rows) if i in axes else n for i, n in enumerate(self.shape))
        vs = merge_vars([self.vars] + [c.vars for row in rows for c in row if type(c) is MultiPoly])
        rows = [list(map(lower, row)) for row in rows]  # True acts as 1, 2/1 as 2
        items = self._items
        for axis in axes:  # the axes after ``axis`` are not mapped yet
            inner = math.prod(self.shape[axis + 1:])
            step = self.shape[axis] * inner
            items = [reduce(add, map(mul, row, items[start + k:start + step:inner]))
                     for start in range(0, len(items), step)
                     for row in rows for k in range(inner)]
        return Tensor._built(shape, _lowered(items, vs), vs)

    def contract_axis(self, axis: int, var_names) -> "Tensor":
        """Replace one axis by a linear form in fresh variables.

        Entry at the reduced index is sum_j u_j * t[..., j, ...]: the slot action of
        the row (u_j), with the length-1 axis it leaves dropped.  The result is
        linear in the new variables, which follow ``vars``.
        """
        if not 0 <= axis < self.ndim:
            raise DomainError(f"axis {axis} out of range for shape {self.shape}")
        names = form_vars(var_names)
        if len(names) != self.shape[axis]:
            raise DomainError(
                f"need {self.shape[axis]} contraction variables, got {len(names)}")
        if clash := set(names) & set(self.vars):
            raise DomainError(f"contraction variables collide with {sorted(clash)}")
        t = self._act((axis,), [[MultiPoly.variable(u, names) for u in names]])
        return Tensor._built(self.shape[:axis] + self.shape[axis + 1:], t._items, t.vars)

    def apply_gl(self, axis: int, g) -> "Tensor":
        """Act on one slot: new[..., i, ...] = sum_j g[i][j] * old[..., j, ...]."""
        if not 0 <= axis < self.ndim:
            raise DomainError(f"axis {axis} out of range for shape {self.shape}")
        n = self.shape[axis]
        rows = [list(r) for r in g]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix must be {n}x{n} for axis {axis}")
        return self._act((axis,), rows)

    # -- serialisation -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "shape": list(self.shape),
            "vars": list(self.vars),
            "entries": [str(p) for p in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tensor":
        from .parser import parse_poly

        if not isinstance(data, dict):
            raise ValueError("tensor JSON must be an object")
        missing = {"shape", "vars", "entries"} - set(data)
        if missing:
            raise ValueError(f"tensor JSON lacks keys: {sorted(missing)}")
        for key, kind in (("shape", int), ("vars", str), ("entries", str)):
            if not isinstance(data[key], list) or any(type(x) is not kind for x in data[key]):
                raise ValueError(f"tensor JSON {key!r} must be a list of {kind.__name__}")
        variables = tuple(data["vars"])
        entries = [parse_poly(text, variables) for text in data["entries"]]
        return cls(data["shape"], entries, variables)

    @classmethod
    def from_json(cls, text: str) -> "Tensor":
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("tensor JSON nested too deeply") from None
        return cls.from_json_dict(data)

    def __repr__(self) -> str:
        inner = ", ".join(str(lift(x, self.vars)) for x in self._items[:4])
        more = ", ..." if len(self._items) > 4 else ""
        return f"Tensor(shape={self.shape}, [{inner}{more}])"
