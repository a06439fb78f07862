"""Command-line entry point.

Subcommands: construct, contains, verify-design, bounds, analyze, search,
audit.  Exit status 0 on success, 1 on a negative verdict, 2 on usage or
input errors (an instance beyond the search size limits included), 3 on an
internal failure such as a witness that fails its replay.  Rational values
are always printed as numerator and denominator plus floor, never as
decimals.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

# Each subcommand imports the library modules it runs, so a process loads
# no more of the package than its subcommand needs.

USAGE_ERROR = 2
NEGATIVE = 1
INTERNAL_ERROR = 3


class CliError(Exception):
    """Usage or input problem; maps to exit status 2."""


def _bound_json(name: str, bv) -> dict:
    return {
        "formula": name,
        "exact_numerator": bv.exact.numerator,
        "exact_denominator": bv.exact.denominator,
        "floor": bv.floor_int,
        "attained_by": bv.attained_by,
        "notes": list(bv.notes),
    }


def _read_file(path: str, parse):
    """parse(text of path); a file that cannot be opened or decoded, or a
    format error from the parser, becomes a CliError naming the file."""
    from .matrix import MatrixFormatError  # the error of both text formats

    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}") from None
    except MatrixFormatError as e:
        raise CliError(f"{path}: {e}") from None


def _ints(flag: str, text: str, form: str | None = None, sep: str = ",") -> list[int]:
    """The integers of text split at sep; with form, such as 'q,t,l', as
    many as form has fields.  Other text is a CliError that names flag and
    quotes the bad field (and the text it is in), or the whole text when
    the count is wrong."""
    fields = text.split(sep)
    if form is not None and len(fields) != len(form.split(sep)):
        raise CliError(f"{flag} must be {form!r}, got {text!r}")
    out = []
    for field in fields:
        try:
            out.append(int(field))
        except ValueError:
            where = "" if field == text else f" in {text!r}"
            raise CliError(f"{flag}: non-integer field {field!r}{where}") from None
    return out


def _parse_sums(text: str, m: int) -> frozenset[int]:
    """Comma-separated sums and lo..hi ranges; both ends of a range are
    checked, and a reversed range refused, before it is expanded."""
    out: set[int] = set()
    for part in text.split(","):
        ends = _ints("--sums", part, sep="..")
        if len(ends) > 2:
            raise CliError(f"--sums must list sums and lo..hi ranges, got {part!r}")
        lo, hi = ends[0], ends[-1]
        if not (0 <= lo <= m and 0 <= hi <= m):
            raise CliError(f"sums outside 0..{m}: {text!r}")
        if lo > hi:
            raise CliError(f"sums range {part!r} is reversed")
        out.update(range(lo, hi + 1))
    return frozenset(out)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}") from None


def cmd_construct(args) -> int:
    from .constructions import (exceeder_construction, genl_equality_construction,
                                q10_construction, small_m_pigeonhole_witness,
                                split_1100_construction)
    from .designs import read_design
    from .matrix import layer_range

    kind = args.kind
    avoided = None
    if kind == "kms":
        A = layer_range(args.m, (args.s,))
    elif kind == "layers":
        A = layer_range(args.m, _parse_sums(args.sums, args.m))
    elif kind == "genl-equality":
        d = _read_file(args.design, read_design) if args.design else None
        A = genl_equality_construction(args.t, args.l, args.lam, args.m, d)
        avoided = f"{args.lam + 2},{args.t},{args.l}"
    elif kind == "exceeder":
        A = exceeder_construction(args.t, args.l, args.lam)
        avoided = f"{args.lam + 2},{args.t},{args.l}"
    elif kind == "q10":
        A = q10_construction(args.q, args.m)
        avoided = f"{args.q},1,1"
    elif kind == "small-m-witness":
        A = small_m_pigeonhole_witness(args.q)
        avoided = f"{args.q},1,1"
    else:  # split-1100
        A = split_1100_construction(args.m, args.a, args.b)
        avoided = f"{args.a + args.b + 3},2,2"
    if args.out:  # written first, so a failed write prints nothing
        _write_file(args.out, A.to_text())
    if args.meta:
        record = {
            "m": A.m,
            "ncols": A.ncols,
            # a construction returns only once its column count equals its bound
            "claimed_bound": {"numerator": A.ncols, "denominator": 1, "floor": A.ncols} if avoided else None,
            "avoided_configuration": avoided,
            "verified": True,  # constructions are fail-closed; reaching here means checks passed
        }
        print(json.dumps(record))
    elif args.out:
        print(f"wrote {A.m} x {A.ncols} matrix to {args.out}")
    if not args.out:
        sys.stdout.write(A.to_text())
    return 0


def _config(args):
    """The pattern of --config or --config-file, and the flag's value."""
    from .matrix import Block, General, read_matrix

    if args.config is not None:
        return Block(*_ints("--config", args.config, "q,t,l")), args.config
    return General(_read_file(args.config_file, read_matrix)), args.config_file


def cmd_contains(args) -> int:
    from .matrix import contains_config, read_matrix

    A = _read_file(args.matrix, read_matrix)
    config, desc = _config(args)
    found = contains_config(config, A)
    if not args.quiet:
        if args.json:
            print(json.dumps({"contains": found, "config": desc, "m": A.m, "ncols": A.ncols}))
        else:
            print(f"contains: {'true' if found else 'false'}")
        return 0
    return 0 if found else NEGATIVE


def cmd_verify_design(args) -> int:
    from .designs import read_design, verify_design

    d = _read_file(args.design, read_design)
    check = verify_design(d.blocks, d.m, d.k, d.t, d.lam)
    verdict = {
        "valid": check.ok,
        "params": {"m": d.m, "k": d.k, "t": d.t, "lambda": d.lam, "blocks": d.nblocks},
        "witness": None
        if check.ok
        else {"tset": check.witness[0], "count": check.witness[1], "expected": d.lam},
    }
    print(json.dumps(verdict))
    return 0 if check.ok else NEGATIVE


# formula -> (function in xfc.bounds, the flags it takes in argument order)
BOUNDS = {
    "designconfig": ("designconfig_bound", ("t", "k", "lambda", "m")),
    "genl": ("genl_bound", ("t", "l", "lambda", "m")),
    "design-tplus1": ("design_tplus1_bound", ("t", "l", "lambda", "m")),
    "q10-lower": ("q10_lower", ("q", "m")),
    "q10-upper": ("q10_upper", ("q", "m")),
    "bound-1100": ("bound_1100", ("lambda", "m")),
    "design-1100": ("design_1100_bound", ("lambda", "m")),
    "turan": ("turan_threshold", ("m", "t", "k")),
    "exceeder-gap": ("exceeder_gap", ("t", "l", "lambda")),
    "pigeonhole": ("pigeonhole_terms", ("t", "l", "lambda", "m")),
}


def cmd_bounds(args) -> int:
    from . import bounds

    name = args.formula
    func_name, flags = BOUNDS[name]
    func = getattr(bounds, func_name)
    values = [getattr(args, "lam" if f == "lambda" else f) for f in flags]
    if name == "pigeonhole":
        check = func(*values, _ints("--profile", args.profile, "a_t,a_t1,a_higher"))
        print(json.dumps({"formula": name, "lhs": check.lhs, "rhs": check.rhs,
                          "holds": check.holds}))
        return 0
    print(json.dumps(_bound_json(name, func(*values))))
    return 0


def _report_json(report, include_witness: bool) -> dict:
    checks = []
    for c in report.checks:
        item = {"name": c.name, "passed": c.passed, "detail": c.detail}
        if include_witness and c.witness is not None:
            item["witness"] = c.witness
        checks.append(item)
    out = {
        "m": report.m,
        "t": report.t,
        "l": report.ell,
        "lambda": report.lam,
        "profile": {"a_t": report.profile[0], "a_t1": report.profile[1], "a_higher": report.profile[2]},
        "missing_tsets": report.n_missing,
        "typical_tsets": report.n_typical,
        "all_passed": report.all_passed,
        "checks": checks,
        "per_row_counts": report.per_row_counts,
        "empirical_ratios": report.ratios,
    }
    if report.row_set is not None:
        out["row_set"] = report.row_set
    return out


def cmd_analyze(args) -> int:
    from .analysis import lemma_audit
    from .matrix import read_matrix

    A = _read_file(args.matrix, read_matrix)
    rows = _ints("--rows", args.rows) if args.rows is not None else None
    report = lemma_audit(A, args.t, args.l, args.lam, rows_r=rows)
    print(json.dumps(_report_json(report, args.witness)))
    return 0 if report.all_passed else NEGATIVE


def cmd_search(args) -> int:
    from .search import SearchProblem, exact_max

    config, _ = _config(args)
    sums = _parse_sums(args.sums, args.m) if args.sums else None
    problem = SearchProblem(args.m, config, sums=sums, policy=args.policy,
                            node_budget=args.budget_nodes)
    result = exact_max(problem)
    out = {
        "optimum": result.optimum,
        "nodes": result.nodes,
        "proof_of_optimality": result.proof_of_optimality,
        "witness_ncols": result.witness.ncols,
    }
    if args.witness_out:
        _write_file(args.witness_out, result.witness.to_text())
    print(json.dumps(out))
    return 0


def cmd_audit(args) -> int:
    from .analysis import lemma_audit
    from .constructions import genl_equality_construction
    from .matrix import BinMatrix

    t, ell, lam = args.t, args.l, args.lam
    ok, lines = True, []
    for m in _ints("--m", args.m):
        A = genl_equality_construction(t, ell, lam, m)
        restricted = A.restrict_sums(range(t, m - ell + 1))
        report = lemma_audit(restricted, t, ell, lam)
        lines.append({"m": m, "kind": "equality-construction", "all_passed": report.all_passed})
        ok = ok and report.all_passed
        # corruption canary: lam+2 copies of the sum-(t+1) column on rows 1..t+1,
        # the first block of sts(m), must trip a check
        corrupted = restricted.concat(BinMatrix(m, ((1 << t + 1) - 1,) * (lam + 2)))
        failed = [c.name for c in lemma_audit(corrupted, t, ell, lam).checks if not c.passed]
        lines.append({"m": m, "kind": "corrupted", "failed_checks": failed})
        ok = ok and bool(failed)
    print(json.dumps({"ok": ok, "results": lines}))
    return 0 if ok else NEGATIVE


# Each subcommand's entry: its handler, its help, its positionals as (name,
# kind), its flags as (name, kind, default, help), and the flags of which
# exactly one must be given.  A kind is int, str, bool (a switch, True when
# given), a tuple of choices, or a dict of choices to the flags (without
# dashes) that each choice requires; a REQUIRED default makes the flag
# required, and every positional is required.  A flag's attribute is its
# name without the dashes and with "_" for "-", except that --lambda is
# read as lam.
# Every process reads argv against these tuples in one pass, which starts
# several ms sooner than importing and building an argparse parser.
REQUIRED = object()
ALIASES = {"-o": "--out"}
M, T, L, LAM = (("--m", int, None, "row count m"), ("--t", int, None, "parameter t"),
                ("--l", int, None, "parameter l"), ("--lambda", int, None, "parameter lambda"))
Q, K = ("--q", int, None, "parameter q"), ("--k", int, None, "parameter k")
# construct kind, or bound formula, -> the flags it requires
KINDS = {"kms": ("m", "s"), "layers": ("m", "sums"), "genl-equality": ("t", "l", "lambda", "m"),
         "exceeder": ("t", "l", "lambda"), "q10": ("q", "m"), "small-m-witness": ("q",),
         "split-1100": ("m", "a", "b")}
FORMULAS = {name: flags for name, (_, flags) in BOUNDS.items()}
FORMULAS["pigeonhole"] += ("profile",)
PATTERN = (("--config", str, None, "block pattern as q,t,l"),
           ("--config-file", str, None, "general pattern matrix file"))
ONE_PATTERN = ("--config", "--config-file")

COMMANDS = {
    "construct": (cmd_construct, "emit a named construction in matrix text format",
                  (("kind", KINDS),),
                  (M, ("--s", int, None, "column sum for kms"), ("--sums", str, None, "sums for layers"),
                   T, L, LAM, Q, ("--a", int, None, "parameter a"), ("--b", int, None, "parameter b"),
                   ("--design", str, None, "design file for genl-equality"),
                   ("--out", str, None, "write the matrix to a file"),
                   ("--meta", bool, False, "print a JSON record of the claims")), ()),
    "contains": (cmd_contains, "decide configuration containment", (),
                 (*PATTERN, ("--matrix", str, REQUIRED, "matrix file"),
                  ("--quiet", bool, False, "no output; exit 1 when not contained"),
                  ("--json", bool, False, "print a JSON record")), ONE_PATTERN),
    "verify-design": (cmd_verify_design, "verify a design file; JSON verdict on stdout",
                      (("design", str),), (), ()),
    "bounds": (cmd_bounds, "evaluate a named bound exactly", (("formula", FORMULAS),),
               (T, L, K, LAM, M, Q,
                ("--profile", str, None, "a_t,a_t1,a_higher counts for the pigeonhole check")), ()),
    "analyze": (cmd_analyze, "tabulate t-set quantities and audit the inequalities", (),
                (("--matrix", str, REQUIRED, "matrix file"), ("--t", int, REQUIRED, "parameter t"),
                 ("--l", int, REQUIRED, "parameter l"), ("--lambda", int, REQUIRED, "parameter lambda"),
                 ("--rows", str, None, "comma-separated row set R"),
                 ("--witness", bool, False, "include violating objects")), ()),
    "search": (cmd_search, "exact extremal value by branch and bound", (),
               (("--m", int, REQUIRED, "row count m"), *PATTERN,
                ("--sums", str, None, "e.g. 3..6 or 0,1,2"),
                ("--policy", ("simple", "free", "paper"), "simple", "column repeat policy"),
                ("--budget-nodes", int, None, "stop after this many nodes, without a proof"),
                ("--witness-out", str, None, "write the witness matrix to a file")), ONE_PATTERN),
    "audit": (cmd_audit, "audit the equality constructions plus a corruption canary", (),
              (("--m", str, "7,9,13", "comma-separated row counts"), ("--t", int, 2, "parameter t"),
               ("--l", int, 1, "parameter l"), ("--lambda", int, 1, "parameter lambda")), ()),
}


def _dest(flag: str) -> str:
    return "lam" if flag == "--lambda" else flag[2:].replace("-", "_")


def _spelled(arg: tuple) -> str:
    """A flag or positional as the usage line shows it."""
    name, kind = arg[:2]
    choices = f"{{{','.join(kind)}}}" if isinstance(kind, (tuple, dict)) else None
    if name[0] != "-":
        return choices or name
    return name if kind is bool else f"{name} {choices or _dest(name).upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: xfc [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positionals, flags, one_of = COMMANDS[command]
    words = ["usage: xfc", command, "[-h]", *map(_spelled, positionals)]
    for flag in flags:
        if flag[0] not in one_of:
            words.append(_spelled(flag) if flag[2] is REQUIRED else f"[{_spelled(flag)}]")
        elif flag[0] == one_of[0]:
            words.append(f"({' | '.join(_spelled(f) for f in flags if f[0] in one_of)})")
    return " ".join(words)


def _help(command: str | None):
    """Print the usage and what each command or flag is for; exit 0."""
    if command is None:
        lines = [_usage(None), "", (__doc__ or "").strip(), "", "commands:"]
        lines += [f"  {name:<16}{entry[1]}" for name, entry in COMMANDS.items()]
    else:
        _, about, _, flags, _ = COMMANDS[command]
        lines = [_usage(command), "", about, ""]
        for flag in flags:
            name, kind, default, text = flag
            alias = "".join(f"{short}, " for short, long in ALIASES.items() if long == name)
            if kind is not bool and default not in (None, REQUIRED):
                text += f" (default {default})"
            lines.append(f"  {alias + _spelled(flag):<32}{text}")
    print("\n".join(lines))
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    print(_usage(command), f"error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _value(command: str | None, arg: tuple, word: str):
    """word read as the int, str or choice that arg takes."""
    name, kind = arg[:2]
    if kind is int:
        try:
            return int(word)
        except ValueError:
            _fail(command, f"{name}: invalid int value {word!r}")
    if kind is not str and word not in kind:
        _fail(command, f"{name}: invalid choice {word!r} (choose from {', '.join(kind)})")
    return word


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv's subcommand, positionals and flags, in one pass.  A flag that
    takes a value takes the text after "=" or else the next word, even one
    that starts with "-"; the last of repeated flags wins.  -h prints help
    and exits 0; anything that does not fit the table prints the usage and
    an error and exits 2."""
    if not argv:
        _fail(None, "missing command")
    if argv[0] in ("-h", "--help"):
        _help(None)
    command = _value(None, ("command", tuple(COMMANDS)), argv[0])
    func, _, positionals, flags, one_of = COMMANDS[command]
    spec = {flag[0]: flag for flag in flags}
    values = {_dest(name): None if default is REQUIRED else default for name, _, default, _ in flags}
    given, words, rest = set(), [], iter(argv[1:])
    for word in rest:
        if word in ("-h", "--help"):
            _help(command)
        if word[:1] != "-":
            words.append(word)
            continue
        name, eq, value = word.partition("=")
        flag = spec.get(ALIASES.get(name, name)) or _fail(command, f"unknown flag {word!r}")
        if flag[1] is bool:
            if eq:
                _fail(command, f"{name} takes no value, got {word!r}")
            value = True
        else:
            if not eq:
                value = next(rest, None)
                if value is None:
                    _fail(command, f"flag {name!r} needs a value")
            value = _value(command, flag, value)
        values[_dest(flag[0])] = value
        given.add(flag[0])
    if len(words) > len(positionals):
        _fail(command, f"unrecognized argument {words[len(positionals)]!r}")
    values.update((arg[0], _value(command, arg, word)) for arg, word in zip(positionals, words))
    missing = [arg[0] for arg in positionals[len(words):]]
    missing += [f"--{flag}" for arg, word in zip(positionals, words) if isinstance(arg[1], dict)
                for flag in arg[1][word] if f"--{flag}" not in given]
    missing += [name for name, _, default, _ in flags if default is REQUIRED and name not in given]
    if missing:
        _fail(command, f"missing required argument(s): {', '.join(missing)}")
    if one_of and len(given.intersection(one_of)) != 1:
        _fail(command, f"exactly one of {', '.join(one_of)} is required")
    return SimpleNamespace(func=func, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (CliError, ValueError, TypeError) as e:  # ConstructionError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
