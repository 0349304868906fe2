"""Oracle for ``scalars.render``: the two writers it replaced, one for
``MultiPoly`` and one for ``Cyclotomic``, each with its own statement of the
text convention, so a property can compare them with ``str`` on any value.
"""

from hyperforms.scalars import Cyclotomic


def cyclotomic_text(z: Cyclotomic) -> str:
    """``z`` as a sum over powers of ``zeta<m>``, constant first."""
    parts = []
    for e, c in enumerate(z.coeffs):
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            mono = f"zeta{z.order}" if e == 1 else f"zeta{z.order}^{e}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def poly_text(p) -> str:
    """``p`` term by term in descending graded-lex order, a cyclotomic
    coefficient in parentheses."""
    if not p.terms:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            v if x == 1 else f"{v}^{x}"
            for v, x in zip(p.vars, e) if x)
        if isinstance(c, Cyclotomic):
            body = f"({cyclotomic_text(c)})" + (f"*{mono}" if mono else "")
            sign = "+"
        else:
            sign = "-" if c < 0 else "+"
            a = -c if c < 0 else c
            if not mono:
                body = str(a)
            elif a == 1:
                body = mono
            else:
                body = f"{a}*{mono}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text
