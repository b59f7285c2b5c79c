"""Command-line front end.

Reports are JSON with sorted keys, printed to stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 domain error (an operation's
precondition failed) or a stdout closed by its reader (nothing on
stderr), 2 malformed input.  Human-readable output is just
the JSON itself, so two runs on the same input are byte-identical.  Each
``cmd_*`` imports the modules it runs, so a call loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError, InputError, ResourceLimitError


def _max_bits(x) -> int:
    """Bit length of the largest integer in a result or its fields."""
    if isinstance(x, Fraction):
        x = (x.numerator, x.denominator)
    elif isinstance(x, dict):
        x = tuple(x.values())
    elif hasattr(type(x), "__dataclass_fields__"):  # dataclasses.is_dataclass, for an instance
        x = tuple(vars(x).values())
    if isinstance(x, (list, tuple)):
        return max(map(_max_bits, x), default=0)
    return x.bit_length() if isinstance(x, int) else 0


def _print(args, result) -> None:
    """Print a report as JSON, anything else with ``str``.  An integer past
    Python's ``sys.get_int_max_str_digits()`` raises ``ResourceLimitError``."""
    try:
        text = json.dumps(result, indent=2, sort_keys=True) if isinstance(result, dict) else str(result)
    except ValueError:
        command = f"{args.command} {getattr(args, 'action', '')}".rstrip()
        raise ResourceLimitError(
            f"{command}: the result holds a {_max_bits(result)}-bit integer, past the limit of "
            f"{sys.get_int_max_str_digits()} decimal digits on integer-to-string conversion"
        ) from None
    print(text)


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what}: expected a rational like 3/4, got {text!r}") from None


def _parse_cone_arg(fan, text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "0", "-"):
        return ()
    try:
        indices = sorted({int(tok) for tok in text.split(",")})
    except ValueError:
        raise InputError(f"--cone: expected comma-separated ray indices, got {text!r}") from None
    for i in indices:
        if not 1 <= i <= fan.n_rays:
            raise InputError(f"--cone: ray index {i} out of range 1..{fan.n_rays}")
    return tuple(i - 1 for i in indices)


def cmd_analyze(args) -> int:
    from .cones import affine_fiber_rank
    from .fans import load_fan
    from .moment import face_lattice
    from .quotient import quotient_report
    fan = load_fan(args.fan)
    report = quotient_report(fan)
    report["name"] = fan.name or "fan"
    report["fiber_ranks"] = [
        {"cone": [i + 1 for i in cone], "rank": affine_fiber_rank(fan, cone)}
        for cone in fan.cones()
    ]
    if fan.complete:
        lattice = face_lattice(fan)
        report["face_lattice"] = {"f_vector": list(lattice.f_vector), "cusps": len(lattice.cusps)}
    else:
        report["face_lattice"] = None
    _print(args, report)
    return 0


def cmd_delzant(args) -> int:
    from .fans import load_fan
    from .moment import delzant_report, delzant_svg
    fan = load_fan(args.fan)
    report = delzant_report(fan)
    report["name"] = fan.name or "fan"
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(delzant_svg(fan))
        report["svg"] = args.svg
    _print(args, report)
    return 0


def cmd_hilbert(args) -> int:
    from .cones import dual_cone, fan_cone, hilbert_basis
    from .fans import load_fan
    fan = load_fan(args.fan)
    indices = _parse_cone_arg(fan, args.cone)
    sigma = fan_cone(fan, indices)
    dual = dual_cone(sigma)
    basis = hilbert_basis(dual)
    _print(
        args,
        {
            "cone": [i + 1 for i in indices],
            "dual_generators": [list(v) for v in dual.generators],
            "hilbert_basis": [list(v) for v in basis.generators],
            "rank": basis.rank_r,
        }
    )
    return 0


def _level(value: int, what: str) -> int:
    if value < 1:
        raise InputError(f"{what}: level must be positive, got {value}")
    return value


def _parse_profinite(args):
    from .solenoid import ProfiniteInt
    text = args.a.strip()
    if "/" in text:
        res_text, level_text = text.split("/", 1)
        try:
            residue, level = int(res_text), int(level_text)
        except ValueError:
            raise InputError(f"--a: expected RESIDUE/LEVEL, got {text!r}") from None
        if args.level is not None and args.level != level:
            raise InputError(f"--a level {level} conflicts with --level {args.level}")
    else:
        try:
            residue = int(text)
        except ValueError:
            raise InputError(f"--a: expected an integer residue, got {text!r}") from None
        if args.level is None:
            raise InputError("--level is required when --a carries no /LEVEL part")
        level = args.level
    return ProfiniteInt(_level(level, "--a" if "/" in text else "--level"), residue)


def cmd_solenoid(args) -> int:
    from .solenoid import PolarComplex, SolenoidPoint, cover_map, refine, sol_exp
    if args.action == "exp":
        a = _parse_profinite(args)
        turns = _parse_fraction(args.turns, "--turns")
        _print(args, sol_exp(a, turns))
    elif args.action == "cover":
        n, m = _level(args.n, "--n"), _level(args.m, "--m")
        z = PolarComplex(_parse_fraction(args.rho, "--rho"), _parse_fraction(args.turns, "--turns"))
        _print(args, cover_map(n, m, z))
    else:  # refine
        z = SolenoidPoint(
            _level(args.level, "--level"),
            PolarComplex(_parse_fraction(args.rho, "--rho"), _parse_fraction(args.turns, "--turns")),
        )
        _print(args, refine(z, _level(args.to, "--to"), args.branch))
    return 0


def cmd_kring(args) -> int:
    from .kring import in_level_image, parse_expression, reduce
    if args.action == "reduce":
        _print(args, reduce(parse_expression(args.expr[0])))
    elif args.action == "mul":
        u = reduce(parse_expression(args.expr[0]))
        v = reduce(parse_expression(args.expr[1]))
        _print(args, u * v)
    else:  # level
        n = _level(args.n, "n")
        element = reduce(parse_expression(args.expr[0]))
        print("true" if in_level_image(element, n) else "false")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toriq",
        description="Exact invariants of toric fans and their profinite completions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="charge matrix, quotient group, discriminant, symmetry")
    p.add_argument("fan", help="fan description (JSON file)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("delzant", help="face lattice of the moment polytope")
    p.add_argument("fan")
    p.add_argument("--svg", metavar="OUT", help="write a schematic SVG (rank-2 fans)")
    p.set_defaults(func=cmd_delzant)

    p = sub.add_parser("hilbert", help="Hilbert basis of the dual of a fan cone")
    p.add_argument("fan")
    p.add_argument("--cone", required=True, metavar="I,J,...",
                   help="1-based ray indices; 0 or empty for the zero cone")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("solenoid", help="exact solenoid arithmetic")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("exp", help="phi(a) * nu(turns) at a's level")
    pe.add_argument("--a", required=True, help="profinite integer RESIDUE/LEVEL (or residue with --level)")
    pe.add_argument("--turns", required=True, help="base angle in turns, e.g. 3/4")
    pe.add_argument("--level", type=int, help="truncation level when --a is a bare residue")
    pc = psub.add_parser("cover", help="bonding map z -> z^(m/n)")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--rho", required=True)
    pc.add_argument("--turns", required=True)
    pr = psub.add_parser("refine", help="root lift to a deeper level")
    pr.add_argument("--level", type=int, required=True)
    pr.add_argument("--to", type=int, required=True)
    pr.add_argument("--branch", type=int, default=0)
    pr.add_argument("--rho", required=True)
    pr.add_argument("--turns", required=True)
    p.set_defaults(func=cmd_solenoid)

    p = sub.add_parser("kring", help="normal forms in the K-ring of the solenoidal sphere")
    ksub = p.add_subparsers(dest="action", required=True)
    kr = ksub.add_parser("reduce", help="normal form of an expression")
    kr.add_argument("expr", nargs=1)
    km = ksub.add_parser("mul", help="product of two expressions, in normal form")
    km.add_argument("expr", nargs=2)
    kl = ksub.add_parser("level", help="is the element in the level-n image?")
    kl.add_argument("n", type=int)
    kl.add_argument("expr", nargs=1)
    p.set_defaults(func=cmd_kring)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when started with no stdout at all
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe, with no signal handler
        # stdout to devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
