"""Command-line front end.

Subcommands: verify (main-theorem certificates), tables (mod-2 s/r tables),
funnel (partition and generator systems), unit (group-ring gamma vector of
a word), identities (congruence identity reports, computed in the parity
ring Z[alpha]/2 with no exact arithmetic; about 0.2 s at n = 12).  verify
proves its verdict at every level 4..12: it checks that each coset class
minus 1 is annihilated by (1 + alpha)^(m/2) = 1 + alpha^(m/2) mod 2, so
every product of two such differences is 0 mod 2, which makes the
linearized GF(2) system exact.  unit decides a word mod 2
before any exact arithmetic, and refuses an admitted word whose value may
be too large to compute as a usage error.  All JSON output is
deterministic; timing fields are zeroed unless --timing is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Sequence, TextIO

from .circular_units import eval_word, parse_word
from .congruence import (
    _word_parities,
    galois_transport_check,
    q_power_identities,
    verify_main_theorem,
)
from .cyclotomic import Level
from .errors import (
    DisagreementError,
    IndexOutOfRange,
    InternalInconsistency,
    LevelTooSmall,
    NotIntegral,
)
from .funnel import generator_system, build_partition
from .group_ring import _require_one_mod2, u_chi1
from .real_basis import r_table_tokens, s_table_tokens
from .version import TOOL_VERSION

DEFAULT_WALK = (4, 5, 6, 7)

# Largest coefficient bit-length, as bounded by _check_word_size, that unit
# evaluates exactly.  The gammas are printed in decimal, and Python refuses
# to print an int of more than 4300 digits (about 14,000 bits) by default.
MAX_WORD_BITS = 1 << 13


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        # argparse drops an OSError here, so --help and --version would exit
        # 0 having printed nothing; main reports it instead
        if message:
            (file or sys.stderr).write(message)


@contextlib.contextmanager
def _open_json(path: str | None) -> Iterator[TextIO]:
    """The --json target, opened before any work so that a failed run leaves
    an empty file rather than a stale document; stdout without --json.  A
    target that cannot be opened, written or closed is a usage error."""
    if path is None:
        yield sys.stdout
        return
    try:
        out = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    with out:
        yield out


def _dump(document, out: TextIO) -> None:
    """Write one JSON document; a --json target is closed here, so errors name it."""
    try:
        print(json.dumps(document, indent=2), file=out)
        if out is not sys.stdout:
            out.close()
    except OSError as exc:
        name = "stdout" if out is sys.stdout else out.name
        raise _UsageError(f"cannot write {name}: {exc.strerror or exc}") from None


def _level_arg(n: int) -> Level:
    try:
        return Level(n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _levels(n: int | None) -> list[Level]:
    """The level given by --n, or the default walk 4..7."""
    return [Level(k) for k in DEFAULT_WALK] if n is None else [_level_arg(n)]


# ---------------------------------------------------------------------- #
# subcommands


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    certificates = []
    all_trivial = True
    for level in _levels(args.n):
        cert = verify_main_theorem(level)
        certificates.append(cert.to_json_dict(include_timing=args.timing))
        all_trivial = all_trivial and cert.trivial_only
        print(
            f"n={level.n}: verdict={certificates[-1]['verdict']} "
            f"rank={cert.system.rank} nullity={cert.system.nullity} "
            f"method={cert.method}",
            file=sys.stderr,
        )
    document = certificates[0] if len(certificates) == 1 else certificates
    _dump(document, out)
    return 0 if all_trivial else 2


def _cmd_tables(args: argparse.Namespace, out: TextIO) -> int:
    level = _level_arg(args.n)
    s_tokens = s_table_tokens(level)
    r_tokens = r_table_tokens(level)
    print(f"s_j mod 2 at 2^{level.n} = {level.order}, j = 0..{len(s_tokens) - 1}:")
    print(" ".join(s_tokens))
    print(f"r_j mod 2 at 2^{level.n} = {level.order}, j = 0..{len(r_tokens) - 1}:")
    print(" ".join(r_tokens))
    if args.json is not None:
        _dump({"n": level.n, "s_table": s_tokens, "r_table": r_tokens}, out)
    return 0


def _labeled_word_dict(lw) -> dict:
    return {
        "label": lw.label,
        "k": lw.k,
        "j": lw.j,
        "exponent": lw.exponent,
        "word": lw.word.to_json_dict(),
        "word_text": lw.word.render(),
    }


def _cmd_funnel(args: argparse.Namespace, out: TextIO) -> int:
    level = _level_arg(args.n)
    partition = build_partition(level)
    system = generator_system(level)
    document = {
        "n": level.n,
        "partition": {
            "A": [list(s) for s in partition.A_sets],
            "B": [list(s) for s in partition.B_sets],
        },
        "f_generators": [_labeled_word_dict(lw) for lw in system.f_gens],
        "sqrt_over_f_generators": [
            _labeled_word_dict(lw) for lw in system.sqrt_gens
        ],
    }
    _dump(document, out)
    return 0


def _check_word_size(word, bits: int) -> None:
    """Refuse a word whose exact value may have coefficients over
    MAX_WORD_BITS bits, given bits = n * sum |e_j|.

    For odd k, |1 + 2cos(2 pi k / 2^n)| lies between 4 / (3 * 2^n) and 3,
    so every complex embedding of d_j or 1/d_j is below 2^n in absolute
    value.  A coefficient of an element of Z[alpha] is the mean of its
    embeddings times roots of unity, so the value of alpha^a * prod d_j^e_j
    has coefficients below 2^(n * sum |e_j|).
    """
    if bits > MAX_WORD_BITS:
        raise _UsageError(
            f"word {word.render()!r} is too large to evaluate: its coefficients "
            f"may need {bits} bits, over the budget of {MAX_WORD_BITS}"
        )


def _cmd_unit(args: argparse.Namespace, out: TextIO) -> int:
    level = _level_arg(args.n)
    try:
        word = parse_word(level, args.word)
    except (ValueError, IndexOutOfRange) as exc:
        raise _UsageError(f"bad word {args.word!r}: {exc}") from None
    bits = level.n * sum(abs(e) for _, e in word.d_exps)
    if bits.bit_length() > MAX_WORD_BITS:
        # keeps every exponent printed below, in the refusal or the size
        # message, short of Python's limit on int-to-decimal conversion
        raise _UsageError(f"bad word {args.word!r}: its exponents are too large")
    try:
        _require_one_mod2(_word_parities(word))
    except NotIntegral as exc:
        _dump(
            {
                "n": level.n,
                "word": word.render(),
                "integral": False,
                "error": "NotIntegral",
                "detail": str(exc),
            },
            out,
        )
        return 2
    _check_word_size(word, bits)
    try:
        image = u_chi1(eval_word(word))
    except NotIntegral as exc:
        raise InternalInconsistency(f"u_chi1 refuses a word 1 mod 2: {exc}") from None
    _dump(
        {
            "n": level.n,
            "word": word.render(),
            "gammas": [str(c) for c in image.coeffs],
        },
        out,
    )
    return 0


def _print_check_lines(n: int, checks: Sequence[dict]) -> None:
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        where = f" k={c['k']}" if "k" in c else ""
        print(f"[n={n}] {status} {c['name']}{where}: {c['lhs']} == {c['rhs']}")


def _cmd_identities(args: argparse.Namespace, out: TextIO) -> int:
    reports = []
    ok = True
    for level in _levels(args.n):
        n = level.n
        power_report = q_power_identities(level)
        _print_check_lines(n, power_report["checks"])
        ok = ok and power_report["all_passed"]
        transport_report = None
        if n >= 5:
            transport_report = galois_transport_check(level)
            for t in transport_report["transports"]:
                status = "PASS" if t["passed"] else "FAIL"
                print(f"[n={n}] {status} transport {t['label']}: {t['value']}")
            ok = ok and transport_report["all_passed"]
        reports.append({"n": n, "q_power": power_report, "transport": transport_report})
    if args.json is not None:
        _dump(reports if len(reports) > 1 else reports[0], out)
    return 0 if ok else 2


# ---------------------------------------------------------------------- #
# entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="circunits", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="verify the main theorem, emit certificates")
    p.add_argument("--n", type=int, default=None, help="single level (default: 4..7)")
    p.add_argument("--json", metavar="PATH", default=None, help="write JSON here")
    p.add_argument(
        "--timing", action="store_true", help="report real elapsed_ms values"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tables", help="print the mod-2 s- and r-tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("funnel", help="print the partition and generator systems")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_funnel)

    p = sub.add_parser("unit", help="group-ring gamma vector of a word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True, help="e.g. 'd1^4' or 'a^3 * d1^-2'")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_unit)

    p = sub.add_parser("identities", help="run the congruence identity reports")
    p.add_argument("--n", type=int, default=None, help="single level (default: 4..7)")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=_cmd_identities)

    return parser


def _discard_stdout() -> None:
    """Point the stdout descriptor at os.devnull.  A buffered stdout keeps the
    text it failed to write, and flushing it again at exit would fail with
    status 120 and an "Exception ignored" report."""
    with contextlib.suppress(AttributeError, OSError):  # no descriptor
        fd = sys.stdout.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help or --version, printed to stdout
            sys.stdout.flush()
            raise
        with _open_json(args.json) as out:
            code = args.func(args, out)
        sys.stdout.flush()
        return code
    except (_UsageError, LevelTooSmall, OSError) as exc:
        if isinstance(exc, OSError):  # a text line, the help or the flush
            exc = f"cannot write stdout: {exc.strerror or exc}"
            _discard_stdout()
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DisagreementError, InternalInconsistency) as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
