"""Command-line front end.

Subcommands:

* ``analyze``          norm-versus-bound records for chosen subsystem subsets,
                       plus the exact qubit-class test and the sufficiency sum
* ``threshold``        noise weight where a criterion's verdict flips
* ``threshold-table``  the flip points of the noisy GHZ and W families
* ``decompose``        explicit separable decomposition when one is certified
* ``zoo``              write a bundled example state to a state file

States come either from a JSON state file or from the zoo via ``zoo:FAMILY``
plus parameter flags.  Exit status: 0 on success, 2 on invalid input, 3 when
a requested criterion or construction does not apply to the state, 4 on a
numeric integrity failure.
"""
from __future__ import annotations

import argparse
import sys
import time

from .criteria import (
    Verdict,
    assemble_decomposition,
    noise_threshold_table,
    qubit_exact_test,
    separable_decomposition,
    subset_scan,
    sufficiency_test,
    threshold_search,
)
from .errors import CriterionUnavailableError, InvalidStateError, NumericIntegrityError
from .states import DensityMatrix, ZooSpec, zoo_families
from .stateio import (
    SCHEMA_VERSION,
    dump_json,
    format_number,
    load_state,
    records_to_csv,
    state_text,
    write_text_atomic,
)

import numpy as np


class _Parser(argparse.ArgumentParser):
    """Reports usage errors in one stderr line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blochsep",
        description="Correlation-tensor separability analysis for multipartite states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_zoo_params(p):
        p.add_argument("-N", "--parties", type=int, help="number of subsystems")
        p.add_argument("-d", "--levels", type=int, help="levels per subsystem")
        p.add_argument("-p", "--noise", type=float, help="noise weight in [0, 1]")
        p.add_argument("-n", "--removed", type=int, help="subsystems traced out")
        p.add_argument("--dims", help="comma-separated dimensions, e.g. 2,2")

    def add_output(p):
        p.add_argument("-o", "--output", help="write here instead of stdout")

    pa = sub.add_parser("analyze", help="run separability tests on a state")
    pa.add_argument("state", help="state file path or zoo:FAMILY").required = False
    pa.add_argument(
        "--subsets",
        default="full",
        help="full | all | pairs | k=<M> (default: full)",
    )
    pa.add_argument(
        "--criteria",
        default="all",
        choices=["t1", "c1", "c2", "p2", "all"],
        help="t1: necessary norm test on the full tensor; c1: the same per "
        "subset; c2: exact qubit-class test; p2: sufficiency sum (default: all)",
    )
    pa.add_argument("--format", default="json", choices=["json", "csv"])
    pa.add_argument(
        "--timing", action="store_true", help="include wall-clock timing in the report"
    )
    add_zoo_params(pa)
    add_output(pa)

    pt = sub.add_parser(
        "threshold",
        help="noise weight where a criterion's verdict flips, in closed form",
    )
    pt.add_argument("family", help="zoo family with a free noise parameter")
    pt.add_argument(
        "--criterion", default="t1", choices=["t1", "c1", "c2", "p2"]
    )
    add_zoo_params(pt)
    add_output(pt)

    ptt = sub.add_parser(
        "threshold-table",
        help="closed-form t1 thresholds of the noisy GHZ and W families",
    )
    ptt.add_argument("--max-parties", type=int, default=6)
    ptt.add_argument("--format", default="json", choices=["json", "csv"])
    add_output(ptt)

    pd = sub.add_parser(
        "decompose", help="emit an explicit separable decomposition when certified"
    )
    pd.add_argument("state", help="state file path or zoo:FAMILY").required = False
    add_zoo_params(pd)
    add_output(pd)

    pz = sub.add_parser("zoo", help="write a bundled example state")
    pz.add_argument("family", choices=list(zoo_families()))
    add_zoo_params(pz)
    add_output(pz)

    return parser


def _zoo_spec(family: str, args) -> ZooSpec:
    dims = None
    if args.dims:
        try:
            dims = tuple(int(x) for x in args.dims.split(","))
        except ValueError:
            raise InvalidStateError(f"cannot parse --dims {args.dims!r}")
    return ZooSpec(
        family=family,
        parties=args.parties,
        levels=args.levels,
        noise=args.noise,
        removed=args.removed,
        dims=dims,
    )


def _resolve_state(args) -> tuple:
    """Return (DensityMatrix, input descriptor dict)."""
    src = args.state
    if src.startswith("zoo:"):
        spec = _zoo_spec(src[len("zoo:") :], args)
        return spec.build(), {"source": src, "family": spec.family, **spec.parameters}
    rho, metadata = load_state(src)
    descriptor = {"source": src}
    if metadata.get("name"):
        descriptor["name"] = metadata["name"]
    return rho, descriptor


def _parse_subsets(text: str):
    if text in ("full", "all", "pairs"):
        return text
    if text.startswith("k="):
        try:
            return int(text[2:])
        except ValueError:
            pass
    raise InvalidStateError(f"cannot parse subset selector {text!r}")


def _verdict_dict(v: Verdict) -> dict:
    doc = {
        "decision": v.decision.value,
        "criterion": v.criterion,
        "norm": None if v.norm_value is None else float(v.norm_value),
        "bound": None if v.bound_value is None else float(v.bound_value),
        "borderline": bool(v.borderline),
    }
    if v.reason:
        doc["reason"] = v.reason
    return doc


def _emit(args, text: str) -> None:
    if not getattr(args, "output", None):
        sys.stdout.write(text)
        return
    try:
        write_text_atomic(args.output, text)
    except OSError as exc:
        raise OSError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def cmd_analyze(args) -> int:
    rho, descriptor = _resolve_state(args)
    start = time.perf_counter()
    selector = _parse_subsets(args.subsets)
    if selector != "full" and args.criteria not in ("c1", "all"):
        raise ValueError(f"--criteria {args.criteria} does not read --subsets "
                         f"(got {args.subsets!r}); only c1 and all do")
    if args.format == "csv" and args.criteria in ("c2", "p2"):
        raise ValueError(f"--format csv writes only norm records, which --criteria "
                         f"{args.criteria} does not make; only t1, c1 and all do")
    records = subset_scan(rho, selector) if args.criteria in ("t1", "c1", "all") else []
    exact = qubit_exact_test(rho) if args.criteria in ("c2", "all") else None
    suff = sufficiency_test(rho) if args.criteria in ("p2", "all") else None
    elapsed = time.perf_counter() - start

    if args.format == "csv":
        rows = [
            (
                ",".join(str(k) for k in v.subset),
                format_number(v.norm_value),
                format_number(v.bound_value),
                v.decision.value,
                v.criterion,
                int(v.borderline),
            )
            for v in records
        ]
        _emit(args, records_to_csv(rows, ["subset", "norm", "bound", "decision", "criterion", "borderline"]))
        return 0

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "analysis",
        "input": descriptor,
        "dims": [int(d) for d in rho.dims],
        "criteria": args.criteria,
        "subsets": args.subsets,
        "records": [
            {
                "subset": [int(k) for k in v.subset],
                "norm": float(v.norm_value),
                "bound": float(v.bound_value),
                "decision": v.decision.value,
                "criterion": v.criterion,
                "borderline": bool(v.borderline),
            }
            for v in records
        ],
    }
    if exact is not None:
        doc["exact_qubit"] = _verdict_dict(exact)
    if suff is not None:
        entry = {
            "lhs": None if suff.norm_value is None else float(suff.norm_value),
            "available": suff.norm_value is not None,
            "decision": suff.decision.value,
        }
        if suff.reason:
            entry["reason"] = suff.reason
        doc["sufficiency"] = entry
    if args.timing:
        doc["timing"] = {"elapsed_seconds": elapsed}
    _emit(args, dump_json(doc))
    return 0


def cmd_threshold(args) -> int:
    spec = _zoo_spec(args.family, args)
    p_star = threshold_search(spec, args.criterion)
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "threshold",
        "family": {"name": spec.family, **spec.parameters},
        "criterion": args.criterion,
        "threshold": p_star,
    }
    _emit(args, dump_json(doc))
    return 0


def cmd_threshold_table(args) -> int:
    rows = noise_threshold_table(args.max_parties)
    if args.format == "csv":
        csv_rows = [
            (fam, n, "" if p is None else format_number(p)) for fam, n, p in rows
        ]
        _emit(args, records_to_csv(csv_rows, ["family", "parties", "threshold"]))
        return 0
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "threshold-table",
        "records": [
            {"family": fam, "parties": n, "threshold": p} for fam, n, p in rows
        ],
    }
    _emit(args, dump_json(doc))
    return 0


def cmd_decompose(args) -> int:
    rho, descriptor = _resolve_state(args)
    dec = separable_decomposition(rho)
    residual = float(
        np.linalg.norm(assemble_decomposition(dec).matrix - rho.matrix)
    )
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "separable-decomposition",
        "input": descriptor,
        "dims": [int(d) for d in rho.dims],
        "identity_weight": float(dec.identity_weight),
        "term_count": dec.terms.rank,
        "reconstruction_residual": residual,
        "terms": [
            {"weight": w, "factors": list(vecs)}
            for w, vecs in zip(dec.terms.weights.tolist(),
                               zip(*(f.T.tolist() for f in dec.terms.factors)))
        ],
    }
    _emit(args, dump_json(doc))
    return 0


def cmd_zoo(args) -> int:
    spec = _zoo_spec(args.family, args)
    _emit(args, state_text(spec.build(), name=spec.family, source="zoo"))
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "threshold": cmd_threshold,
    "threshold-table": cmd_threshold_table,
    "decompose": cmd_decompose,
    "zoo": cmd_zoo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse would report a missing state before an unknown flag, so
        # the state is not required while parsing and is checked here
        if getattr(args, "state", "") is None:
            parser.error("the following arguments are required: state")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (InvalidStateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CriterionUnavailableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except NumericIntegrityError as exc:
        print(f"numeric integrity failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())
