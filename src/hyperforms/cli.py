"""Command-line interface: one table of subcommands over argparse.

Each ``_COMMANDS`` row gives a subcommand's arguments, a ``call`` that makes
one library call and an ``emit`` that prints its result.  Calls name library
functions as module globals, so a tracer that rebinds a global reaches them.

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
        raise argparse.ArgumentTypeError("expected a comma-separated list of names")
    return names


def _split_key(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"key must be comma-separated integers, got {text!r}") from None


def _forms(args, *texts) -> list:
    return [parse_poly(t, args.coeffs + args.vars) for t in texts]


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
        raise ValueError("expected vectors like '1,0;0,1'")
    return vectors


def _wronskian(args):
    forms = _forms(args, *args.f)
    if len(forms) != 3:
        raise DomainError("wronskian needs exactly three forms (repeat --f)")
    return wronskian3(*forms, args.vars)


def _gramm(args):
    form, vectors = _read_tensor(args.form), _parse_vectors(args.vectors)
    if args.skew is None:
        return gramm_form(form, vectors)
    return skew_gramm(form, vectors, args.skew)


def _verify(args) -> int:
    if args.suite == "all":
        reports = run_all(args.seed, args.trials, args.range)
    else:
        reports = [run_suite(args.suite, args.seed, args.trials, args.range)]
    passed = all(r.passed for r in reports)
    if not args.json:
        print("\n".join(r.format_text() for r in reports))
    elif args.suite != "all":
        print(json.dumps(reports[0].to_json_dict()))
    else:
        print(json.dumps({"schema": 1, "suite": "all", "seed": args.seed, "pass": passed,
                          "reports": [r.to_json_dict() for r in reports]}))
    return 0 if passed else 1


def _emit_poly(p, args) -> None:
    if args.json:
        print(json.dumps({"schema": 1, "vars": list(p.vars), "poly": str(p)}))
    else:
        print(p)


def _emit_tensor(t: Tensor, args) -> None:
    if args.json:
        print(t.to_json())
    else:
        print(f"shape {'x'.join(str(n) for n in t.shape)}, vars {','.join(t.vars)}")
        for idx in t.indices():
            print(f"  [{','.join(str(i) for i in idx)}] = {t[idx]}")


def _emit_gramm(value, args) -> None:
    if args.json:
        print(json.dumps({"schema": 1, "base": str(value.base), "exponent": str(value.exponent)}))
    else:
        print(f"base = {value.base}\nexponent = {value.exponent}")


# -- the command table -----------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


_F = _arg("--f", required=True, help="polynomial text")
_FS = _arg("--f", action="append", required=True, help="polynomial text (repeatable)")
_VARS = (_arg("--vars", type=_split_names, required=True, help="form variables, e.g. x,y"),
         _arg("--coeffs", type=_split_names, default=(),
              help="extra coefficient variable names"))
_KEY = _arg("--K", dest="key", type=_split_key, required=True,
            help="polarisation key, e.g. 1,1,1")
_TENSOR = _arg("--tensor", required=True, help="tensor JSON path or - for stdin")

# (name, help, arguments, call, emit); emit None means call returns the exit code
_COMMANDS = (
    ("polarize", "polarisation tensor of a form", (_F, *_VARS, _KEY),
     lambda a: polarize(*_forms(a, a.f), a.key, a.vars), _emit_tensor),
    ("hyperdet", "hyperdeterminant of a JSON tensor", (_TENSOR,),
     lambda a: hyperdet(_read_tensor(a.tensor)), _emit_poly),
    ("disc", "discriminant of a binary form",
     (_F, *_VARS, _arg("--degree", type=int,
                       help="degree of f; must match it, only f = 0 needs it")),
     lambda a: binary_form_disc(*_forms(a, a.f), a.vars, degree=a.degree), _emit_poly),
    ("resultant", "Sylvester resultant of two binary forms",
     (_F, *_VARS, _arg("--g", required=True, help="second polynomial")),
     lambda a: sylvester_resultant(*_forms(a, a.f, a.g), a.vars), _emit_poly),
    ("hyperhessian", "hyperdeterminant of a polarisation", (_F, *_VARS, _KEY),
     lambda a: hyperhessian(*_forms(a, a.f), a.key, a.vars), _emit_poly),
    ("hyperresultant", "hyperdeterminant of the full first-order Jacobi form",
     (_FS, *_VARS), lambda a: hyperresultant(_forms(a, *a.f), a.vars), _emit_poly),
    ("jacobi", "stacked polarisation tensor of a system", (_FS, *_VARS, _KEY),
     lambda a: jacobi_form(_forms(a, *a.f), a.key, a.vars), _emit_tensor),
    ("wronskian", "Wronskian of three equal-degree forms", (_FS, *_VARS),
     _wronskian, _emit_poly),
    ("hankel", "Hankel invariant of a binary quartic", (_F, *_VARS),
     lambda a: hankel_quartic(*_forms(a, a.f), a.vars), _emit_poly),
    ("apolar", "apolar invariant of a binary quartic", (_F, *_VARS),
     lambda a: apolar_quartic(*_forms(a, a.f), a.vars), _emit_poly),
    ("gramm", "Gramm form of a vector tuple under a form",
     (_arg("--form", required=True, help="d-linear form as tensor JSON path"),
      _arg("--vectors", required=True, help="semicolon-separated vectors, e.g. 1,0;0,1"),
      _arg("--skew", type=int, help="skew component index k")),
     _gramm, _emit_gramm),
    ("project", "skew component of a hypercubic tensor",
     (_TENSOR, _arg("--k", type=int, required=True, help="component index, 0 <= k < d!")),
     lambda a: project_k(_read_tensor(a.tensor), a.k), _emit_tensor),
    ("verify", "run a seeded verification suite",
     (_arg("--suite", required=True, choices=(*SUITES, "all"), metavar="SUITE",
           help=f"one of: {', '.join(SUITES)}, or all"),
      _arg("--seed", type=int, default=0),
      _arg("--trials", type=int, default=None),
      _arg("--range", type=int, default=9, help="coefficient range [-R, R]")),
     _verify, None),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperforms",
        description="Exact polarisation forms, hyperdeterminants and classical "
                    "invariants of binary forms.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, call, emit in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(call=call, emit=emit)
    return top


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result = args.call(args)
        if args.emit is None:
            return result
        limit = sys.get_int_max_str_digits()
        try:  # print a valid answer whatever its number of digits
            sys.set_int_max_str_digits(0)
            args.emit(result, args)
        finally:
            sys.set_int_max_str_digits(limit)
        return 0
    except (HyperformsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UnsupportedFormatError):
            return 4
        return 3 if isinstance(exc, DomainError) else 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
