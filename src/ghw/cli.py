"""Command line interface: ingest a matrix or matroid, print invariants.

Commands: weights, betti, diagram, whitney, mds, verify.  Input is either
plain text (first line ``field p``, then whitespace-separated matrix rows)
or JSON ({"field": p, "matrix": [[..]]}, {"n": .., "bases": [[..]]},
{"n": .., "circuits": [[..]]}, {"uniform": [r, n]}).  All user-facing
element indices are 1-based; internally everything is 0-based bitmasks.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from . import betti as betti_mod
from .betti import (
    BettiTable,
    betti_fine_alexander,
    betti_fine_hochster,
    betti_fine_matroid,
    render_diagram,
)
from .finfield import FieldMatrix, PrimeField
from .matroid import DEFAULT_MAX_GROUND, CapExceeded, Matroid, one_based, sweep_cost
from .simplicial import independence_complex
from .weights import (
    mds_profile,
    support_size,
    wei_duality_check,
    weight_report,
    weights_bruteforce,
    weights_from_betti,
    whitney_polynomial,
    whitney_terms,
    whitney_text,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_CAP = 3

COMPLEXES = ("matroid", "dual", "alexander", "dual-alexander")


class InputError(ValueError):
    pass


@dataclass
class InputSpec:
    source: str  # matrix | bases | circuits | uniform
    field: int | None
    n: int
    payload: object


def _integer(value, what: str) -> int:
    # bool is a subclass of int, but JSON true/false are not numbers.
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _integers(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of integers, got {json.dumps(value)}")
    return [_integer(v, f"{what} entry") for v in value]


def _one_based_sets(raw, n: int, what: str) -> list[list[int]]:
    if not isinstance(raw, list):
        raise InputError(f"'{what}s' must be a list of {what}s, got {json.dumps(raw)}")
    out = []
    for group in raw:
        group = _integers(group, f"a {what}")
        for e in group:
            if not 1 <= e <= n:
                raise InputError(f"{what} element {e} out of range 1..{n}")
        if len(set(group)) != len(group):
            raise InputError(f"{what} {group} repeats an element")
        out.append([e - 1 for e in group])
    return out


def parse_input_text(text: str) -> InputSpec:
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return _parse_json(stripped)
    return _parse_matrix_text(text)


def _parse_json(text: str) -> InputSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}: invalid JSON input ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise InputError("JSON input must be an object")
    sources = [k for k in ("matrix", "bases", "circuits", "uniform") if k in obj]
    if len(sources) != 1:
        raise InputError(
            "JSON input needs exactly one of 'matrix', 'bases', 'circuits', 'uniform'"
        )
    source = sources[0]
    if source == "matrix":
        if "field" not in obj:
            raise InputError("matrix input needs a 'field' entry")
        rows = obj["matrix"]
        if not isinstance(rows, list) or not rows:
            raise InputError("'matrix' must be a non-empty list of rows")
        rows = [_integers(row, "a matrix row") for row in rows]
        spec = InputSpec("matrix", _integer(obj["field"], "'field'"), len(rows[0]), rows)
    elif source == "uniform":
        pair = _integers(obj["uniform"], "'uniform'")
        if len(pair) != 2:
            raise InputError("'uniform' must be [r, n]")
        spec = InputSpec("uniform", None, pair[1], tuple(pair))
    else:
        if "n" not in obj:
            raise InputError(f"'{source}' input needs a ground set size 'n'")
        n = _integer(obj["n"], "'n'")
        if n < 0:
            raise InputError(f"'n' must be >= 0, got {n}")
        return InputSpec(source, None, n, _one_based_sets(obj[source], n, source[:-1]))
    if "n" in obj and obj["n"] != spec.n:
        raise InputError(f"'n' is {json.dumps(obj['n'])}, but the {source} has {spec.n} elements")
    return spec


def _parse_matrix_text(text: str) -> InputSpec:
    field = None
    rows: list[list[int]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if field is None:
            parts = body.split()
            if len(parts) != 2 or parts[0] != "field":
                raise InputError(f"line {lineno}: expected 'field p' before the matrix rows")
            try:
                field = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: field modulus {parts[1]!r} is not an integer")
            continue
        try:
            row = [int(v) for v in body.split()]
        except ValueError:
            raise InputError(f"line {lineno}: matrix rows must be whitespace-separated integers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"line {lineno}: expected {width} entries, got {len(row)}")
        rows.append(row)
    if field is None:
        raise InputError("line 1: empty input, expected 'field p' and matrix rows")
    if not rows:
        raise InputError("input has a field line but no matrix rows")
    return InputSpec("matrix", field, len(rows[0]), rows)


def load_input(path: str) -> InputSpec:
    if path == "-":
        return parse_input_text(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_input_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc


def build_matroid(spec: InputSpec, max_n: int) -> Matroid:
    if spec.source == "matrix":
        matrix = FieldMatrix(PrimeField(spec.field), spec.payload)
        return Matroid.from_matrix(matrix, max_n=max_n)
    if spec.source == "bases":
        return Matroid.from_bases(spec.n, spec.payload, max_n=max_n)
    if spec.source == "circuits":
        return Matroid.from_circuits(spec.n, spec.payload, max_n=max_n)
    r, n = spec.payload
    return Matroid.uniform(r, n, max_n=max_n)


def _resolve(args) -> tuple[Matroid, bool]:
    """The matroid the command acts on, and whether the requested complex
    is an Alexander dual."""
    if args.max_n is not None and args.max_n < 0:
        raise InputError(f"--max-n must be >= 0, got {args.max_n}")
    try:
        PrimeField(args.field)
    except ValueError as exc:
        raise InputError(f"--field: {exc}") from exc
    max_n = args.max_n if args.max_n is not None else DEFAULT_MAX_GROUND
    if args.max_n is not None and args.max_n > DEFAULT_MAX_GROUND:
        print(
            f"warning: cap raised to {args.max_n}; a ground set that large costs"
            f" {sweep_cost(args.max_n)}",
            file=sys.stderr,
        )
    M = build_matroid(load_input(args.input), max_n)
    if args.complex in ("dual", "dual-alexander"):
        M = M.dual()
    return M, args.complex in ("alexander", "dual-alexander")


def _table_for(M: Matroid, alexander: bool) -> BettiTable:
    return betti_fine_alexander(M) if alexander else betti_fine_matroid(M)


def _require_own_table(args) -> None:
    if args.complex in ("alexander", "dual-alexander"):
        raise InputError(
            f"'{args.command}' needs the matroid's own data; --complex {args.complex}"
            f" only makes sense for 'betti' and 'diagram'"
        )


def cmd_weights(args) -> int:
    _require_own_table(args)
    M, _ = _resolve(args)
    table = betti_fine_matroid(M)
    if args.json:
        report = weight_report(M, table)
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        k = M.n - M.rank(M.full)
        print("d: " + " ".join(str(d) for d in weights_from_betti(table, k)))
    return EXIT_OK


def cmd_betti(args) -> int:
    M, alexander = _resolve(args)
    table = _table_for(M, alexander)
    if args.json:
        obj = table.to_json_dict() if args.fine else table.coarse_json_dict()
        print(json.dumps(obj, indent=2))
        return EXIT_OK
    print("global: " + " ".join(str(v) for v in table.global_betti()))
    print("i d beta")
    for (i, d), v in sorted(table.graded().items()):
        print(f"{i} {d} {v}")
    if args.fine:
        print("i sigma beta")
        for (i, mask), v in sorted(table.fine.items()):
            print(f"{i} {one_based(mask)} {v}")
    return EXIT_OK


def cmd_diagram(args) -> int:
    M, alexander = _resolve(args)
    table = _table_for(M, alexander)
    print(render_diagram(table))
    return EXIT_OK


def cmd_whitney(args) -> int:
    _require_own_table(args)
    M, _ = _resolve(args)
    coeffs = whitney_polynomial(M)
    if args.json:
        print(json.dumps({"whitney": whitney_terms(coeffs)}, indent=2))
    else:
        print("W(x,y) = " + whitney_text(coeffs))
    return EXIT_OK


def cmd_mds(args) -> int:
    _require_own_table(args)
    M, _ = _resolve(args)
    profile = mds_profile(M, betti_fine_matroid(M))
    if args.json:
        obj = asdict(profile)
        obj["isthmuses"] = [e + 1 for e in profile.isthmuses]
        print(json.dumps(obj, indent=2))
        return EXIT_OK
    print("weights: " + " ".join(str(d) for d in profile.weights))
    level = "none" if profile.mds_level is None else str(profile.mds_level)
    print(f"mds level: {level}")
    print(f"is mds: {'yes' if profile.is_mds else 'no'}")
    print(f"linear resolution: {'yes' if profile.linear_resolution else 'no'}")
    if profile.isthmus_free:
        print("isthmuses: none")
    else:
        print("isthmuses: " + " ".join(str(e + 1) for e in profile.isthmuses))
    if profile.alexander_dual_is_matroid is not None:
        verdict = "yes" if profile.alexander_dual_is_matroid else "no"
        print(f"alexander dual is a matroid: {verdict}")
    return EXIT_OK


def verify_matroid(M: Matroid, hochster_cap: int) -> list[tuple[str, bool | None]]:
    """Oracle equivalences for one matroid; None marks a non-applicable check."""
    fast = betti_fine_matroid(M)
    cx = independence_complex(M)
    results: list[tuple[str, bool | None]] = []
    hoch = betti_fine_hochster(cx, field=(2, 3, 5), max_n=hochster_cap)
    results.append(("fast path vs Hochster over GF(2)", fast == hoch[2]))
    results.append(
        ("homology field independence GF(2)/GF(3)/GF(5)", hoch[2] == hoch[3] == hoch[5])
    )
    k = M.n - M.rank(M.full)
    brute = weights_bruteforce(M)
    results.append(("weights from Betti vs brute force", weights_from_betti(fast, k) == brute))
    results.append(("Wei duality partition", wei_duality_check(M)))
    results.append(("d_k equals support size", k == 0 or brute[-1] == support_size(M)))
    return results


def cmd_verify(args) -> int:
    _require_own_table(args)
    M, _ = _resolve(args)
    hochster_cap = args.max_n if args.max_n is not None else betti_mod.DEFAULT_HOCHSTER_MAX_N
    failed = False
    for name, status in verify_matroid(M, hochster_cap):
        if status is None:
            print(f"{name}: not applicable")
        elif status:
            print(f"{name}: ok")
        else:
            print(f"{name}: FAIL")
            failed = True
    return EXIT_VERIFY if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghw",
        description="Generalized Hamming weights and Stanley-Reisner Betti data"
        " of linear codes and matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "weights": cmd_weights,
        "betti": cmd_betti,
        "diagram": cmd_diagram,
        "whitney": cmd_whitney,
        "mds": cmd_mds,
        "verify": cmd_verify,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument(
            "--complex",
            choices=COMPLEXES,
            default="matroid",
            help="which complex to work with (default: matroid)",
        )
        p.add_argument("--field", type=int, default=2, help="homology field modulus (default 2)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--max-n", type=int, default=None, dest="max_n", help="override the ground set cap")
        p.add_argument("--fine", action="store_true", help="include the finely graded table (betti)")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InputError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
