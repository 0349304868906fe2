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

from .errors import DomainError
from .poly import COEFF_TYPES, MultiPoly


def check_shape(shape) -> tuple[int, ...]:
    s = tuple(int(n) for n in shape)
    if any(n < 1 for n in s):
        raise DomainError(f"shape dimensions must be positive: {s}")
    if any(n > 8 for n in s):
        raise DomainError(f"shape dimensions above 8 are out of scope: {s}")
    return s


def multi_indices(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of length ``nvars`` summing to ``degree``,
    in descending lexicographic order."""
    if nvars < 1:
        raise DomainError("need at least one variable")
    if degree < 0:
        raise DomainError("degree must be >= 0")

    def gen(n, k):
        if n == 1:
            yield (k,)
            return
        for first in range(k, -1, -1):
            for rest in gen(n - 1, k - first):
                yield (first,) + rest

    return tuple(gen(nvars, degree))


class MultiIndexSet:
    """The ordered set of degree-k multi-indices in n variables."""

    __slots__ = ("nvars", "degree", "indices", "_pos")

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.indices = multi_indices(nvars, degree)
        self._pos = {idx: i for i, idx in enumerate(self.indices)}

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.indices[i]

    def position(self, idx) -> int:
        return self._pos[tuple(idx)]

    def __repr__(self) -> str:
        return f"MultiIndexSet(nvars={self.nvars}, degree={self.degree})"


def fresh_names(avoid, count: int, base: str = "u") -> tuple[str, ...]:
    """Deterministic variable names not colliding with ``avoid``."""
    taken = set(avoid)
    prefix = base
    while any(f"{prefix}{i}" in taken for i in range(count)):
        prefix = "_" + prefix
    return tuple(f"{prefix}{i}" for i in range(count))


class Tensor:
    """Dense tensor with :class:`MultiPoly` entries sharing one variable list.

    Immutable by convention: every operation returns a new tensor, so values
    can be shared freely across threads.
    """

    __slots__ = ("shape", "vars", "entries")

    def __init__(self, shape, entries, variables=None):
        self.shape = check_shape(shape)
        size = 1
        for n in self.shape:
            size *= n
        items = list(entries)
        if len(items) != size:
            raise ValueError(f"expected {size} entries for shape {self.shape}, got {len(items)}")
        polys = []
        for x in items:
            if isinstance(x, COEFF_TYPES):
                x = MultiPoly.constant(x)
            elif not isinstance(x, MultiPoly):
                raise TypeError(f"entry is not a polynomial: {x!r}")
            polys.append(x)
        if variables is None:
            merged: tuple[str, ...] = ()
            for p in polys:
                merged = merged + tuple(v for v in p.vars if v not in merged)
            variables = merged
        self.vars = tuple(variables)
        self.entries = [p.with_vars(self.vars) for p in polys]

    @classmethod
    def zeros(cls, shape, variables=()) -> "Tensor":
        z = MultiPoly.zero(variables)
        return cls.from_function(shape, lambda _: z, variables)

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
        idx = []
        for n in reversed(self.shape):
            idx.append(flat % n)
            flat //= n
        return tuple(reversed(idx))

    def __getitem__(self, idx) -> MultiPoly:
        return self.entries[self.flat_index(idx)]

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    # -- structural operations ------------------------------------------------

    def map_entries(self, fn) -> "Tensor":
        return Tensor(self.shape, [fn(p) for p in self.entries])

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise DomainError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Tensor(self.shape, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise DomainError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Tensor(self.shape, [a - b for a, b in zip(self.entries, other.entries)])

    def transpose(self, perm) -> "Tensor":
        perm = tuple(perm)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"{perm} is not a permutation of axes")
        new_shape = tuple(self.shape[p] for p in perm)
        inverse = [perm.index(axis) for axis in range(self.ndim)]
        entries = [self[tuple(nidx[i] for i in inverse)]
                   for nidx in itertools.product(*map(range, new_shape))]
        return Tensor(new_shape, entries, self.vars)

    def contract_axis(self, axis: int, var_names) -> "Tensor":
        """Replace one axis by a linear form in fresh variables.

        Entry at the reduced index is sum_j u_j * t[..., j, ...]; the result
        is linear in the new variables.
        """
        if not 0 <= axis < self.ndim:
            raise DomainError(f"axis {axis} out of range for shape {self.shape}")
        names = tuple(var_names)
        if len(names) != self.shape[axis]:
            raise DomainError(
                f"need {self.shape[axis]} contraction variables, got {len(names)}")
        clash = set(names) & set(self.vars)
        if clash:
            raise DomainError(f"contraction variables collide with {sorted(clash)}")
        new_vars = self.vars + names
        u = [MultiPoly.variable(v, new_vars) for v in names]
        rest_shape = self.shape[:axis] + self.shape[axis + 1:]
        entries = []
        for idx in itertools.product(*map(range, rest_shape)):
            entry = MultiPoly.zero(new_vars)
            for j in range(self.shape[axis]):
                full = idx[:axis] + (j,) + idx[axis:]
                entry = entry + u[j] * self[full]
            entries.append(entry)
        return Tensor(rest_shape, entries, new_vars)

    def apply_gl(self, axis: int, g) -> "Tensor":
        """Act on one slot: new[..., i, ...] = sum_j g[i][j] * old[..., j, ...]."""
        if not 0 <= axis < self.ndim:
            raise DomainError(f"axis {axis} out of range for shape {self.shape}")
        n = self.shape[axis]
        rows = [list(r) for r in g]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DomainError(f"matrix must be {n}x{n} for axis {axis}")
        entries = []
        for idx in self.indices():
            i = idx[axis]
            acc = MultiPoly.zero(self.vars)
            for j in range(n):
                coeff = rows[i][j]
                if coeff:
                    acc = acc + self[idx[:axis] + (j,) + idx[axis + 1:]] * coeff
            entries.append(acc)
        return Tensor(self.shape, entries, self.vars)

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
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        inner = ", ".join(str(p) for p in self.entries[:4])
        more = ", ..." if len(self.entries) > 4 else ""
        return f"Tensor(shape={self.shape}, [{inner}{more}])"
