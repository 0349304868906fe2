"""Seeded, repeat-free input streams for the benchmark workloads.

Inputs are plain data (integers and strings), so the checker can rebuild
the stream without the library and the library only ever sees generated
values.  The n-th input of a kind is the n-th element of a keyed
pseudo-random permutation of that kind's whole input space, so no input
repeats and nothing has to be remembered to guarantee it: the measured
process keeps constant memory however many operations it runs.

A round holds one input of every kind of the workload, in a seeded order.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

R = 9  # coefficients are drawn from [-R, R], as in `hyperforms verify`
XY = ("x", "y")

# A kind is a list of fields: ("t", n) is n coefficients, ("f", d) is a
# binary form of degree d with a nonzero leading coefficient (so sympy's
# univariate discriminant and resultant apply unchanged), ("k", m) is a
# component index in range(m).  Component indices are drawn in shuffled
# blocks of all m values, so every run holds each index equally often and
# the cost mix does not drift with the draw.
NUMERIC = {
    "hd222": [("t", 8)],
    "hd223": [("t", 12)],
    "hd232": [("t", 12)],
    "hd322": [("t", 12)],
    "hd2222": [("t", 16)],
    "disc3": [("f", 3)],
    "disc4": [("f", 4)],
    "hh111": [("f", 3)],
    "hh1111": [("f", 4)],
    "hr22": [("f", 2), ("f", 2)],
    "hr222": [("f", 2), ("f", 2), ("f", 2)],
    "hr33": [("f", 3), ("f", 3)],
    "res44": [("f", 4), ("f", 4)],
    "det6": [("t", 36)],
    "gramm33": [("t", 9), ("t", 9)],
}

SKEW = {
    "pk333": [("t", 27), ("k", 6)],
    "pk2222": [("t", 16), ("k", 24)],
    "pk33": [("t", 9), ("k", 2)],
    "sg33": [("t", 9), ("t", 9), ("k", 2)],
}

CLI = {
    "disc": [("f", 3)],
    "resultant": [("f", 2), ("f", 3)],
    "hyperresultant": [("f", 2), ("f", 2)],
    "polarize": [("f", 3)],
    "hankel": [("f", 4)],
    "hyperdet": [("t", 8)],
    "project": [("t", 27), ("k", 6)],
    "gramm": [("t", 9), ("t", 9)],
}

KINDS = {"numeric": NUMERIC, "skew": SKEW, "cli": CLI}


class Permutation:
    """Keyed bijection of range(size): a four-round Feistel network on the
    smallest even bit width that covers size, with cycle walking."""

    def __init__(self, size: int, key: bytes):
        self.size = size
        self.half = ((size - 1).bit_length() + 1) // 2 or 1
        self.mask = (1 << self.half) - 1
        self.width = (self.half + 7) // 8
        self.keys = [hashlib.blake2b(key, digest_size=32, person=bytes([i])).digest()
                     for i in range(4)]

    def _encrypt(self, x: int) -> int:
        left, right = x >> self.half, x & self.mask
        for k in self.keys:
            h = hashlib.blake2b(right.to_bytes(self.width, "little"), key=k,
                                digest_size=self.width).digest()
            left, right = right, left ^ (int.from_bytes(h, "little") & self.mask)
        return (left << self.half) | right

    def __call__(self, n: int) -> int:
        if not 0 <= n < self.size:
            raise IndexError(f"{n} outside range({self.size})")
        x = self._encrypt(n)
        while x >= self.size:
            x = self._encrypt(x)
        return x


def _bases(spec) -> list[int]:
    bases = []
    for field, n in spec:
        if field == "t":
            bases += [2 * R + 1] * n
        elif field == "f":
            bases += [2 * R] + [2 * R + 1] * n
    return bases


def _decode(spec, x: int, k: int) -> tuple:
    def digit(base):
        nonlocal x
        x, d = divmod(x, base)
        return d

    out = []
    for field, n in spec:
        if field == "t":
            out.append([digit(2 * R + 1) - R for _ in range(n)])
        elif field == "f":
            lead = digit(2 * R) - R
            out.append([lead if lead < 0 else lead + 1]
                       + [digit(2 * R + 1) - R for _ in range(n)])
        else:
            out.append(k)
    return tuple(out)


class Stream:
    """The seeded input stream of one closed-loop workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.kinds = KINDS[workload]
        self.perms = {}
        for kind, spec in self.kinds.items():
            size = 1
            for b in _bases(spec):
                size *= b
            self.perms[kind] = Permutation(size, f"{workload}:{kind}:{seed}".encode())

    def draw(self, kind: str, n: int) -> tuple:
        m = next((size for field, size in self.kinds[kind] if field == "k"), 1)
        block = random.Random(f"{self.workload}:{kind}:{self.seed}:{n // m}").sample(range(m), m)
        return _decode(self.kinds[kind], self.perms[kind](n), block[n % m])

    def round(self, r: int) -> list[tuple[str, tuple]]:
        order = sorted(self.kinds)
        random.Random(f"{self.workload}:{self.seed}:{r}").shuffle(order)
        return [(kind, self.draw(kind, r)) for kind in order]


def pass_rounds(workload: str) -> int:
    """Rounds in one pass: the fewest that hold every kind with every
    component index once, so that all passes cost the same mix."""
    return math.lcm(*(n for spec in KINDS[workload].values() for field, n in spec if field == "k"))


def verify_seeds(seed: int):
    """Distinct `verify --seed` values, one per pass."""
    perm = Permutation(2 ** 31 - 1, f"verify:{seed}".encode())
    n = 0
    while True:
        yield perm(n) + 1
        n += 1


def digest(workload: str, seed: int, rounds: int = 4) -> str:
    """sha256 of the first inputs a seed yields, to pin the generator."""
    if workload == "verify":
        gen = verify_seeds(seed)
        data = [next(gen) for _ in range(rounds)]
    else:
        stream = Stream(workload, seed)
        data = [stream.round(r) for r in range(rounds)]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# -- CLI invocations ------------------------------------------------------------


def form_text(cs) -> str:
    """Binary form in x, y as a user would type it."""
    d = len(cs) - 1
    text = ""
    for i, c in enumerate(cs):
        if not c:
            continue
        mono = "*".join(p for p in (f"x^{d - i}" if d - i else "",
                                    f"y^{i}" if i else "") if p)
        body = f"{abs(c)}*{mono}" if mono else str(abs(c))
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


def tensor_json(shape, values) -> str:
    return json.dumps({"shape": list(shape), "vars": [],
                       "entries": [str(v) for v in values]})


def vectors_text(values) -> str:
    return ";".join(",".join(str(v) for v in values[i:i + 3]) for i in range(0, 9, 3))


def cli_invocation(kind: str, data: tuple) -> tuple[list[str], str | None]:
    """argv (after `python -m hyperforms`) and stdin text for one CLI call.
    Values are attached with '=' because a form or vector may start with '-'."""
    if kind == "hyperdet":
        return ["hyperdet", "--tensor=-"], tensor_json((2, 2, 2), data[0])
    if kind == "project":
        return ["project", "--tensor=-", f"--k={data[1]}", "--json"], tensor_json((3, 3, 3), data[0])
    if kind == "gramm":
        return ["gramm", "--form=-", f"--vectors={vectors_text(data[1])}"], tensor_json((3, 3), data[0])
    flags = ["--f", "--g"] if kind == "resultant" else ["--f"] * len(data)
    argv = [kind] + [f"{flag}={form_text(cs)}" for flag, cs in zip(flags, data)] + ["--vars=x,y"]
    return argv + (["--K=1,1,1", "--json"] if kind == "polarize" else []), None
