"""Command-line interface.

Subcommands expose the spanning checker, the expansion solvers over
each ring, complex construction, and the verification campaigns.
Outputs are JSON (exact rationals as "p/q" strings) so results can be
consumed by scripts or replayed by hand.

Exit codes: 0 on success, 1 when a verification campaign records a
non-skipped failure, 2 on input or solver errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .complexes import (
    graph_complex,
    parse_graph,
    parse_presentation,
    presentation_complex,
)
from .errors import ExpansionLabError, FormatError
from .exactla import format_matrix, format_rational, parse_matrix, parse_vector
from .expansion import (
    reduce_mod_q,
    xi_q_at,
    xi_q_global,
    xi_z_at,
    xi_z_global,
    xi_zq_at,
    xi_zq_global,
)
from .harness import (
    campaign_cw,
    campaign_equality,
    campaign_lemma_oracle,
    campaign_modq,
    campaign_presentations,
)
from .spanning import is_integrally_spanned


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _vec(values) -> list:
    return [format_rational(x) for x in values]


def _emit(data, out: str | None):
    text = json.dumps(data, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_span_check(args) -> int:
    generators = parse_matrix(_read(args.matrix))
    verdict = is_integrally_spanned(generators)
    data = {
        "spanned": verdict.spanned,
        "witness_subset": None,
        "witness_vector": None,
        "subsets_checked": verdict.subsets_checked,
    }
    if verdict.witness is not None:
        subset, vector = verdict.witness
        data["witness_subset"] = list(subset.indices)
        data["witness_vector"] = list(vector)
    _emit(data, args.out)
    return 0


def _cmd_xi(args) -> int:
    if args.modulus is not None and args.ring != "zq":
        raise FormatError("--modulus applies only to --ring zq")
    a = parse_matrix(_read(args.matrix))
    v = parse_vector(_read(args.target))
    if args.ring == "q":
        result = xi_q_at(a, v)
    elif args.ring == "z":
        result = xi_z_at(a, v)
    else:
        if args.modulus is None:
            raise ExpansionLabError("--ring zq requires --modulus")
        result = xi_zq_at(reduce_mod_q(a, args.modulus), v)
    data = {
        "value": format_rational(result.value),
        "target": _vec(result.target),
        "witness": _vec(result.witness),
        "ring": result.ring,
        "solver": result.solver,
        "exact": True,
    }
    _emit(data, args.out)
    return 0


def _emit_global(result, ring: str, out) -> int:
    """The JSON of a ``GlobalExpansion`` over ``ring``, for ``xi-global``
    and ``xi-zq``."""
    data = {
        "value": format_rational(result.value),
        "attaining_target": _vec(result.attaining_target),
        "ring": ring,
        "exact": result.exact,
    }
    _emit(data, out)
    return 0


def _cmd_xi_global(args) -> int:
    a = parse_matrix(_read(args.matrix))
    if args.ring == "q":
        return _emit_global(xi_q_global(a), "Q", args.out)
    return _emit_global(xi_z_global(a), "Z", args.out)


def _cmd_xi_zq(args) -> int:
    a = parse_matrix(_read(args.matrix))
    result = xi_zq_global(reduce_mod_q(a, args.modulus))
    return _emit_global(result, f"Zq({args.modulus})", args.out)


def _cmd_build_complex(args) -> int:
    if args.graph:
        c = graph_complex(parse_graph(_read(args.graph)))
    else:
        c = presentation_complex(parse_presentation(_read(args.presentation)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "d0.mat").write_text(format_matrix(c.d0), encoding="utf-8")
    (out_dir / "d1.mat").write_text(format_matrix(c.d1), encoding="utf-8")
    labels = {
        "vertices": list(c.vertex_labels),
        "edges": list(c.edge_labels),
        "faces": list(c.face_labels),
    }
    (out_dir / "labels.json").write_text(
        json.dumps(labels, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_dir / 'd0.mat'}, {out_dir / 'd1.mat'}, {out_dir / 'labels.json'}")
    return 0


def _parse_primes(text: str) -> tuple:
    try:
        primes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise FormatError(
            f"--primes must be comma-separated integers, got {text!r}"
        ) from None
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise FormatError(f"--primes repeats the prime {p}, got {text!r}")
    return primes


def _parse_n_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        n_range = range(int(lo), int(hi))
    except ValueError:
        raise FormatError(
            f"--n-range must be a:b with integers a and b, got {text!r}"
        ) from None
    if not n_range:
        raise FormatError(f"--n-range must have a < b, got {text!r}")
    return n_range


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise FormatError(f"--count must be at least 0, got {args.count}")
    if args.campaign == "equality":
        report = campaign_equality(args.seed, args.count)
    elif args.campaign == "cw":
        report = campaign_cw()
    elif args.campaign == "modq":
        report = campaign_modq(args.seed, args.count, primes=_parse_primes(args.primes))
    elif args.campaign == "presentations":
        report = campaign_presentations(_parse_n_range(args.n_range))
    else:
        report = campaign_lemma_oracle(args.seed, args.count)
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    totals = report.totals
    print(
        f"{report.campaign}: {totals['pass']} pass, {totals['fail']} fail, "
        f"{totals['skipped']} skipped",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expansion-lab",
        description="Exact expansion constants of integer matrices over "
        "Q, Z, and Z/qZ, with spanning certificates and verification "
        "campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "span-check",
        help="decide whether the rows of a matrix integrally span",
    )
    p.add_argument("matrix", help="matrix file ('rows cols' header, then rows)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_span_check)

    p = sub.add_parser("xi", help="expansion constant at one target vector")
    p.add_argument("matrix", help="matrix file")
    p.add_argument("--ring", choices=("q", "z", "zq"), default="q")
    p.add_argument("--modulus", type=int, default=None, help="prime q for --ring zq")
    p.add_argument("--target", required=True, help="vector file (one line)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("xi-global", help="global expansion constant over Q or Z")
    p.add_argument("matrix")
    p.add_argument("--ring", choices=("q", "z"), default="q")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_xi_global)

    p = sub.add_parser("xi-zq", help="global expansion constant over F_q")
    p.add_argument("matrix")
    p.add_argument("--modulus", type=int, required=True, help="prime modulus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_xi_zq)

    p = sub.add_parser(
        "build-complex",
        help="write d0/d1 matrices for a graph or group presentation",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="graph file ('V E' header, then edges)")
    source.add_argument(
        "--presentation", help="presentation file ('gens: ...; rel: ...')"
    )
    p.add_argument("--out-dir", default=".", help="directory for d0.mat/d1.mat")
    p.set_defaults(func=_cmd_build_complex)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument(
        "campaign",
        choices=("equality", "cw", "modq", "presentations", "lemma-oracle"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25, help="random instances to run")
    p.add_argument("--primes", default="2,3,5", help="comma-separated primes (modq)")
    p.add_argument(
        "--n-range",
        default="3:8",
        help="half-open n range a:b for presentation families",
    )
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_verify)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call of the process and
    kept: a caller that runs many commands in one process pays for it
    once.  Parsing keeps no state between calls, an error included."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExpansionLabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
