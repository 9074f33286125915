"""Command-line driver.

Subcommands: verify (exhaustive criterion sweep), oracle (brute-force
weak-independence check), decompose (Hoeffding decomposition of a
statistic file), identity (exact combinatorial identity grids),
simulate (seeded urn runs with optional exact cross-check), law-check
(law consistency sweep).  Exit codes: 0 the checked property holds
(decompose checks the exact reconstruction, and reports each layer's
complete degeneracy without judging it), 1 it fails with a witness in the
report, 2 usage or input error, 3 internal error (a bug, never a verdict;
the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import traceback
from fractions import Fraction
from typing import Iterable, Optional

from . import characterization, decomp, laws, urnsim
from .exactnum import compositions, format_rational, parse_rational, split_entries

__all__ = ["main"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


def _parse_int(text: str) -> int:
    # once stripped, -?[0-9]+ in ASCII digits, as parse_rational reads an
    # integer: int() alone would also take '+1', '1_0' and other scripts'
    # digits
    stripped = text.strip()
    if not re.fullmatch(r"-?[0-9]+", stripped):
        raise argparse.ArgumentTypeError(
            f"expected an integer such as -3 or 12, got {text!r}")
    return int(stripped)


def _load_law(spec: str) -> laws.ExchangeableLaw:
    # a spec is either the inline grammar or a path to a JSON law file
    if ":" not in spec and os.path.exists(spec):
        return laws.load_law_file(spec)
    return laws.parse_law(spec)


def _unwritable(out: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write {out}: {exc.strerror or exc}")


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the chunks in turn to stdout, or to the file out through a
    temporary file in the same directory renamed over it, so a failed run
    never leaves a truncated report.  A path that cannot be opened is an
    input error."""
    if not out:
        sys.stdout.writelines(chunks)
        return
    if os.path.exists(out) and not os.path.isfile(out):
        # a pipe or device (say /dev/stdout) cannot be renamed over
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise _unwritable(out, exc) from exc
        with fh:
            fh.writelines(chunks)
        return
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(out)), prefix=".hoeffding-", suffix=".tmp"
        )
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(obj: dict, out: Optional[str]) -> None:
    _write([json.dumps(obj, indent=2) + "\n"], out)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    report = characterization.verify_hd(_load_law(args.law), args.n_max)
    # the report as _emit(report.to_jsonable(...)) writes it, streamed
    _write(characterization._report_chunks(report, args.include_zeros), args.out)
    return 0 if report.all_zero else 1


def _witness_jsonable(n: int, witness: decomp.OracleWitness) -> dict:
    return {
        "n": n,
        "kernel_index": witness.kernel_index,
        "u": witness.u,
        "z": list(witness.z),
        "value": format_rational(witness.value),
        "kernel": decomp.table_to_jsonable(witness.kernel),
    }


def _cmd_oracle(args: argparse.Namespace) -> int:
    law = _load_law(args.law)
    if args.n_max < 2:
        raise ValueError("--n-max must be >= 2")
    results = []
    first_witness = None
    for n in range(2, args.n_max + 1):
        res = decomp.weak_independence_oracle(law, n)
        entry = {
            "n": n,
            "weakly_independent": res.weakly_independent,
            "basis_size": res.basis_size,
            "witness": None,
        }
        if res.witness is not None:
            entry["witness"] = _witness_jsonable(n, res.witness)
            if first_witness is None:
                first_witness = entry["witness"]
        results.append(entry)
    verdict = first_witness is None
    _emit(
        {
            "schema_version": 1,
            "law": laws.format_law(law),
            "n_max": args.n_max,
            "weakly_independent": verdict,
            "results": results,
            "witness": first_witness,
        },
        args.out,
    )
    return 0 if verdict else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    law = _load_law(args.law)
    statistic = decomp.load_statistic_file(args.statistic, law.K)
    n = statistic.order
    # an order-0 statistic is a constant, F_0 = T; the law is still checked
    consistency = laws.check_consistency(law, max(n, 1))
    if not consistency.passed:
        raise ValueError(f"law failed consistency: {consistency.failure}")
    # each part is its kernel's U-statistic, so the exact sum checks the
    # kernels too
    layers = decomp.decompose(law, statistic)
    recon = layers[0][0]
    for part, _ in layers[1:]:
        recon = recon + part
    if recon != statistic:
        raise AssertionError("reconstruction is not exact")
    components = []
    for k, (part, kernel) in enumerate(layers):
        if k >= 1:
            check = decomp.is_completely_degenerate(law, kernel)
            degenerate: Optional[bool] = check.degenerate
            witness = None
            if check.witness is not None:
                h, residual = check.witness
                witness = {"h": list(h), "residual": format_rational(residual)}
        else:
            degenerate = None
            witness = None
        components.append(
            {
                "k": k,
                "values": decomp.table_to_jsonable(part)["values"],
                "kernel": decomp.table_to_jsonable(kernel),
                "completely_degenerate": degenerate,
                "degeneracy_witness": witness,
            }
        )
    _emit(
        {
            "schema_version": 1,
            "law": laws.format_law(law),
            "n": n,
            "reconstruction": "exact",
            "components": components,
        },
        args.out,
    )
    return 0


def _identity_bounds() -> dict[str, Optional[int]]:
    # every bound that some identity's grid reads, in table order, with a
    # default given for it: an int makes an integer flag, None a rational
    return dict(item for *_, defaults in characterization._IDENTITIES.values()
                for item in defaults.items())


def _cmd_identity(args: argparse.Namespace) -> int:
    result = characterization.check_identity(
        args.name, **{bound: getattr(args, bound) for bound in _identity_bounds()})
    _emit(result.to_jsonable(), args.out)
    return 0 if result.holds else 1


def _parse_int_vector(text: str) -> tuple[int, ...]:
    entries = split_entries(text)
    try:
        return tuple(_parse_int(x) for x in entries)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_rational_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x) for x in split_entries(text))


# the flags each urn family reads; the others are input errors, not ignored
_URN_FLAGS = {
    "polya": ("initial",),
    "constant": ("p",),
    "hls": ("initial", "pi", "nu", "alpha"),
}


def _build_urn(args: argparse.Namespace) -> tuple[urnsim.UrnState, urnsim.UrnFunction]:
    for flag in dict.fromkeys(f for flags in _URN_FLAGS.values() for f in flags):
        if getattr(args, flag) is not None and flag not in _URN_FLAGS[args.urn]:
            raise ValueError(f"--urn {args.urn} does not take --{flag}")
    if args.urn == "polya":
        if args.initial is None:
            raise ValueError("--urn polya needs --initial counts")
        return urnsim.UrnState(_parse_int_vector(args.initial)), urnsim.IdentityUrn()
    if args.urn == "constant":
        if args.p is None:
            raise ValueError("--urn constant needs --p probabilities")
        p = _parse_rational_vector(args.p)
        return urnsim.UrnState((1,) * len(p)), urnsim.ConstantUrn(p)
    if args.alpha is None:
        raise ValueError("--urn hls needs --alpha ratios")
    alpha = _parse_rational_vector(args.alpha)
    fn = urnsim.HLSUrn(alpha)
    colors = len(alpha) + 2
    if args.initial is not None:
        if args.pi is not None or args.nu is not None:
            raise ValueError("--initial excludes --pi and --nu")
        state = urnsim.UrnState(_parse_int_vector(args.initial))
    else:
        if args.pi is None or args.nu is None:
            raise ValueError("--urn hls needs --pi and --nu (or --initial)")
        pi, nu = args.pi, args.nu
        if pi < 1 or nu < 1:
            raise ValueError("urn construction needs integer pi, nu >= 1")
        state = urnsim.UrnState((pi, nu) + (0,) * (colors - 2))
    if len(state.counts) != colors:
        raise ValueError(
            f"--initial has {len(state.counts)} colors, alpha implies {colors}"
        )
    return state, fn


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (args.steps is None) == (args.samples is None):
        raise ValueError("pass exactly one of --steps or --samples")
    if args.steps is not None and (args.n is not None or args.compare_exact):
        raise ValueError("--n and --compare-exact need --samples, not --steps")
    if args.samples is not None and args.samples < 0:
        raise ValueError("--samples must be >= 0")
    state, fn = _build_urn(args)

    if args.steps is not None:
        seq = urnsim.simulate(state, fn, args.steps, args.seed)
        _write(["".join(f"{j}\n" for j in seq)], args.out)
        return 0

    if args.n is None:
        raise ValueError("--samples needs --n (prefix length)")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.samples == 0 and args.compare_exact:
        raise ValueError("--compare-exact needs --samples >= 1: no draw, no comparison")
    # the exact law's own checks come before any draw
    law = fn.law(state.counts) if args.compare_exact else None
    report: dict = {
        "schema_version": 1,
        "urn": args.urn,
        "initial": list(state.counts),
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "estimates": [],
    }
    if args.samples == 0:
        _emit(report, args.out)
        return 0
    cells = urnsim.empirical_cylinder(state, fn, args.n, args.samples, args.seed)
    all_within = True
    for comp in compositions(args.n, len(state.counts)):
        cell = cells[comp]
        entry = {
            "composition": list(comp),
            "count": cell.count,
            "estimate": format_rational(cell.estimate),
            "stderr": cell.stderr,
        }
        if law is not None:
            exact = laws.class_prob(law, comp)
            ok = urnsim.within_four_sigma(cell.count, args.samples, exact)
            entry["exact"] = format_rational(exact)
            entry["within_four_sigma"] = ok
            all_within = all_within and ok
        report["estimates"].append(entry)
    if law is not None:
        report["law"] = laws.format_law(law)
        report["all_within_four_sigma"] = all_within
    _emit(report, args.out)
    if law is not None and not all_within:
        return 1
    return 0


def _cmd_law_check(args: argparse.Namespace) -> int:
    report = laws.check_consistency(_load_law(args.law), args.n_max)
    _emit(report.to_jsonable(), args.out)
    return 0 if report.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoeffding",
        allow_abbrev=False,
        description="Exact verification of Hoeffding decomposability "
        "for exchangeable laws over finite alphabets.",
    )
    # every parser takes its flags spelled in full, never a prefix
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", allow_abbrev=False,
        help="exhaustive criterion sweep (exit 0 iff all values are 0)",
    )
    verify.add_argument("--law", required=True, help="law spec string or JSON file")
    verify.add_argument("--n-max", type=_parse_int, required=True)
    verify.add_argument("--out", help="write the JSON report here (default stdout)")
    verify.add_argument(
        "--jobs",
        type=_parse_int,
        default=1,
        help="accepted for compatibility and ignored: the sweep runs in one "
        "process (must be >= 1; default 1)",
    )
    verify.add_argument(
        "--include-zeros",
        type=_parse_bool,
        default=True,
        help="include zero-valued entries in the report; "
        "false keeps only nonzero entries (default true)",
    )
    verify.set_defaults(func=_cmd_verify, parser=verify)

    oracle = sub.add_parser(
        "oracle", allow_abbrev=False,
        help="brute-force weak-independence check for n in [2, n-max]",
    )
    oracle.add_argument("--law", required=True)
    oracle.add_argument("--n-max", type=_parse_int, required=True)
    oracle.add_argument("--out")
    oracle.set_defaults(func=_cmd_oracle, parser=oracle)

    dec = sub.add_parser(
        "decompose", allow_abbrev=False, help="Hoeffding decomposition of a statistic JSON file"
    )
    dec.add_argument("--law", required=True)
    dec.add_argument("--statistic", required=True, help="statistic JSON file")
    dec.add_argument("--out")
    dec.set_defaults(func=_cmd_decompose, parser=dec)

    ident = sub.add_parser(
        "identity", allow_abbrev=False, help="exact combinatorial identity grids")
    ident.add_argument("name", choices=list(characterization._IDENTITIES))
    for bound, default in _identity_bounds().items():
        ident.add_argument(
            "--" + bound.replace("_", "-"), type=None if default is None else _parse_int,
            help=f"single {bound} (default: rational grid)" if default is None else None)
    ident.add_argument("--out")
    ident.set_defaults(func=_cmd_identity, parser=ident)

    sim = sub.add_parser("simulate", allow_abbrev=False, help="seeded urn simulation")
    sim.add_argument("--urn", required=True, choices=list(_URN_FLAGS))
    sim.add_argument("--initial", help="polya, hls: comma-separated initial counts")
    sim.add_argument("--p", help="constant urn probabilities (comma-separated)")
    sim.add_argument("--pi", type=_parse_int, help="hls: first-color weight (urn count)")
    sim.add_argument("--nu", type=_parse_int, help="hls: remaining weight (urn count)")
    sim.add_argument("--alpha", help="hls ratios (comma-separated rationals)")
    sim.add_argument("--steps", type=_parse_int, help="stream one trajectory of this length")
    sim.add_argument("--n", type=_parse_int, help="prefix length for --samples mode")
    sim.add_argument("--samples", type=_parse_int, help="number of independent prefixes")
    sim.add_argument("--seed", type=_parse_int, default=0)
    sim.add_argument(
        "--compare-exact",
        action="store_true",
        help="cross-check estimates against the matching exact law (exit 1 on a miss)",
    )
    sim.add_argument("--out")
    sim.set_defaults(func=_cmd_simulate, parser=sim)

    check = sub.add_parser(
        "law-check", allow_abbrev=False, help="positivity/consistency sweep of a law")
    check.add_argument("--law", required=True)
    check.add_argument("--n-max", type=_parse_int, required=True)
    check.add_argument("--out")
    check.set_defaults(func=_cmd_law_check, parser=check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # an unknown word goes to the parser that read it (the top one has only -h)
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        owner = args.parser if argv[0] == args.command else parser
        owner.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early, its choice and not a crash: point
        # stdout at devnull so that the flush at exit stays quiet, and exit
        # as a shell reports a writer ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
