"""Command-line interface.

Exit codes: 0 success, 1 failed verification, 2 usage or syntax errors,
3 mathematical domain errors, 4 unsupported tensor formats.  Output is
deterministic for identical arguments and seed; ``--json`` switches every
subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classical import apolar_quartic, hankel_quartic, sylvester_resultant, wronskian3
from .errors import DomainError, HyperformsError, UnsupportedFormatError
from .gramm import gramm_form, project_k, skew_gramm
from .hyperdet import binary_form_disc, hyperdet
from .parser import parse_poly
from .polarisation import hyperhessian, hyperresultant, jacobi_form, polarize
from .tensor import Tensor
from .verify import SUITES, run_all, run_suite


def _split_names(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise DomainError("expected a comma-separated list of names")
    return names


def _split_key(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"key must be comma-separated integers, got {text!r}")


def _all_vars(args) -> tuple[str, ...]:
    geo = _split_names(args.vars)
    extra = _split_names(args.coeffs) if getattr(args, "coeffs", None) else ()
    return extra + geo, geo


def _parse_forms(args, texts) -> list:
    variables, geo = _all_vars(args)
    return [parse_poly(t, variables) for t in texts], geo


def _read_tensor(path: str) -> Tensor:
    if path == "-":
        data = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            data = fh.read()
    return Tensor.from_json(data)


def _parse_vectors(text: str) -> list[list[Fraction]]:
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            vectors.append([Fraction(c.strip()) for c in chunk.split(",")])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in vector {chunk!r}") from None
    if not vectors:
        raise DomainError("expected vectors like '1,0;0,1'")
    return vectors


def _emit_poly(p, args) -> int:
    if args.json:
        print(json.dumps({"schema": 1, "vars": list(p.vars), "poly": str(p)}))
    else:
        print(p)
    return 0


def _emit_tensor(t: Tensor, args) -> int:
    if args.json:
        print(t.to_json())
    else:
        print(f"shape {'x'.join(str(n) for n in t.shape)}, vars {','.join(t.vars)}")
        for idx in t.indices():
            print(f"  [{','.join(str(i) for i in idx)}] = {t[idx]}")
    return 0


# -- subcommand handlers -------------------------------------------------------


def _cmd_polarize(args) -> int:
    (f,), geo = _parse_forms(args, [args.f])
    return _emit_tensor(polarize(f, _split_key(args.key), geo), args)


def _cmd_hyperdet(args) -> int:
    return _emit_poly(hyperdet(_read_tensor(args.tensor)), args)


def _cmd_disc(args) -> int:
    (f,), geo = _parse_forms(args, [args.f])
    if len(geo) != 2:
        raise DomainError("disc needs exactly two form variables")
    return _emit_poly(binary_form_disc(f, geo, degree=args.degree), args)


def _cmd_resultant(args) -> int:
    (f, g), geo = _parse_forms(args, [args.f, args.g])
    if len(geo) != 2:
        raise DomainError("resultant needs exactly two form variables")
    return _emit_poly(sylvester_resultant(f, g, geo), args)


def _cmd_hyperhessian(args) -> int:
    (f,), geo = _parse_forms(args, [args.f])
    return _emit_poly(hyperhessian(f, _split_key(args.key), geo), args)


def _cmd_hyperresultant(args) -> int:
    forms, geo = _parse_forms(args, args.f)
    return _emit_poly(hyperresultant(forms, geo), args)


def _cmd_jacobi(args) -> int:
    forms, geo = _parse_forms(args, args.f)
    return _emit_tensor(jacobi_form(forms, _split_key(args.key), geo), args)


def _cmd_wronskian(args) -> int:
    forms, geo = _parse_forms(args, args.f)
    if len(forms) != 3:
        raise DomainError("wronskian needs exactly three forms (repeat --f)")
    if len(geo) != 2:
        raise DomainError("wronskian needs exactly two form variables")
    return _emit_poly(wronskian3(*forms, geo), args)


def _cmd_hankel(args) -> int:
    (f,), geo = _parse_forms(args, [args.f])
    return _emit_poly(hankel_quartic(f, geo), args)


def _cmd_apolar(args) -> int:
    (f,), geo = _parse_forms(args, [args.f])
    return _emit_poly(apolar_quartic(f, geo), args)


def _cmd_gramm(args) -> int:
    form = _read_tensor(args.form)
    vectors = _parse_vectors(args.vectors)
    if args.skew is None:
        value = gramm_form(form, vectors)
    else:
        value = skew_gramm(form, vectors, args.skew)
    if args.json:
        print(json.dumps({
            "schema": 1,
            "base": str(value.base),
            "exponent": str(value.exponent),
        }))
    else:
        print(f"base = {value.base}")
        print(f"exponent = {value.exponent}")
    return 0


def _cmd_project(args) -> int:
    return _emit_tensor(project_k(_read_tensor(args.tensor), args.k), args)


def _cmd_verify(args) -> int:
    if args.suite == "all":
        reports = run_all(args.seed, args.trials, args.range)
    else:
        reports = [run_suite(args.suite, args.seed, args.trials, args.range)]
    if args.json:
        if len(reports) == 1:
            print(json.dumps(reports[0].to_json_dict()))
        else:
            print(json.dumps({
                "schema": 1,
                "suite": "all",
                "seed": args.seed,
                "pass": all(r.passed for r in reports),
                "reports": [r.to_json_dict() for r in reports],
            }))
    else:
        for r in reports:
            print(r.format_text())
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperforms",
        description="Exact polarisation forms, hyperdeterminants and classical "
                    "invariants of binary forms.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=handler)
        return p

    def form_args(p, nforms="one", with_key=False):
        if nforms == "many":
            p.add_argument("--f", action="append", required=True,
                           help="polynomial text (repeatable)")
        else:
            p.add_argument("--f", required=True, help="polynomial text")
        p.add_argument("--vars", required=True, help="form variables, e.g. x,y")
        p.add_argument("--coeffs", help="extra coefficient variable names")
        if with_key:
            p.add_argument("--K", dest="key", required=True,
                           help="polarisation key, e.g. 1,1,1")

    p = add("polarize", _cmd_polarize, "polarisation tensor of a form")
    form_args(p, with_key=True)

    p = add("hyperdet", _cmd_hyperdet, "hyperdeterminant of a JSON tensor")
    p.add_argument("--tensor", required=True, help="tensor JSON path or - for stdin")

    p = add("disc", _cmd_disc, "discriminant of a binary form")
    form_args(p)
    p.add_argument("--degree", type=int, help="formal degree override")

    p = add("resultant", _cmd_resultant, "Sylvester resultant of two binary forms")
    form_args(p)
    p.add_argument("--g", required=True, help="second polynomial")

    p = add("hyperhessian", _cmd_hyperhessian, "hyperdeterminant of a polarisation")
    form_args(p, with_key=True)

    p = add("hyperresultant", _cmd_hyperresultant,
            "hyperdeterminant of the full first-order Jacobi form")
    form_args(p, nforms="many")

    p = add("jacobi", _cmd_jacobi, "stacked polarisation tensor of a system")
    form_args(p, nforms="many", with_key=True)

    p = add("wronskian", _cmd_wronskian, "Wronskian of three equal-degree forms")
    form_args(p, nforms="many")

    p = add("hankel", _cmd_hankel, "Hankel invariant of a binary quartic")
    form_args(p)

    p = add("apolar", _cmd_apolar, "apolar invariant of a binary quartic")
    form_args(p)

    p = add("gramm", _cmd_gramm, "Gramm form of a vector tuple under a form")
    p.add_argument("--form", required=True, help="d-linear form as tensor JSON path")
    p.add_argument("--vectors", required=True, help="semicolon-separated vectors, e.g. 1,0;0,1")
    p.add_argument("--skew", type=int, help="skew component index k")

    p = add("project", _cmd_project, "skew component of a hypercubic tensor")
    p.add_argument("--tensor", required=True, help="tensor JSON path or - for stdin")
    p.add_argument("--k", type=int, required=True, help="component index, 0 <= k < d!")

    p = add("verify", _cmd_verify, "run a seeded verification suite")
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(SUITES)}, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--range", type=int, default=9, help="coefficient range [-R, R]")

    return top


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (HyperformsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnsupportedFormatError):
            return 4
        return 3 if isinstance(exc, DomainError) else 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
