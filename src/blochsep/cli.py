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
import dataclasses
import functools
from json.encoder import encode_basestring_ascii
import sys
import time

from .criteria import (
    _CRITERIA,
    _mixture_matrix,
    noise_threshold_table,
    separable_decomposition,
    threshold_search,
)
from .errors import CriterionUnavailableError, InvalidStateError, NumericIntegrityError
from .states import DensityMatrix, ZooSpec, zoo_families
from .stateio import (
    SCHEMA_VERSION,
    _batches,
    _check_finite,
    _json,
    _list,
    _pieces,
    _state_pieces,
    _template,
    dump_json,
    format_number,
    load_state,
    records_to_csv,
    write_text_atomic,
)

import numpy as np


class _Parser(argparse.ArgumentParser):
    """Reports usage errors in one stderr line; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _family(text: str) -> str:
    """A zoo family named as ``FAMILY`` or as ``zoo:FAMILY``, the form a state
    argument takes; argparse converts before it checks ``choices``."""
    return text.removeprefix("zoo:")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    Parsing leaves no state on it: each ``parse_args`` returns a new
    namespace, and no action has a mutable default.
    """
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
        choices=[*_CRITERIA, "all"],
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
    pt.add_argument("family", type=_family,
                    help="zoo family with a free noise parameter, as FAMILY or zoo:FAMILY")
    pt.add_argument(
        "--criterion", default="t1", choices=list(_CRITERIA)
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
    pz.add_argument("family", type=_family, choices=list(zoo_families()))
    add_zoo_params(pz)
    add_output(pz)

    return parser


# the ZooSpec parameters, each set by the flag of the same name
_ZOO_PARAMETERS = tuple(f.name for f in dataclasses.fields(ZooSpec)[1:])


def _zoo_spec(family: str, args) -> ZooSpec:
    values = {name: getattr(args, name) for name in _ZOO_PARAMETERS}
    if args.dims is not None:
        try:
            values["dims"] = tuple(int(x) for x in args.dims.split(","))
        except ValueError:
            raise InvalidStateError(f"cannot parse --dims {args.dims!r}")
    return ZooSpec(family, **values)


def _resolve_state(args) -> tuple:
    """Return (DensityMatrix, input descriptor dict)."""
    src = args.state
    if src.startswith("zoo:"):
        spec = _zoo_spec(_family(src), args)
        return spec.build(), {"source": src, "family": spec.family, **spec.parameters}
    for name in _ZOO_PARAMETERS:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} applies only to zoo: states, not to the "
                             f"state file {src}")
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


def _emit(args, text) -> None:
    """Write ``text``, a ``str`` or a list of pieces whose join it is, to
    ``-o`` or else to stdout, pieces in joined batches."""
    if args.output is None:
        for batch in _batches(text):
            sys.stdout.write(batch)
        return
    try:
        write_text_atomic(args.output, text)
    except OSError as exc:
        raise OSError(f"cannot write {args.output!r}: {exc.strerror or exc}") from exc


def cmd_analyze(args) -> int:
    start = time.perf_counter()
    rho, descriptor = _resolve_state(args)
    state_seconds = time.perf_counter() - start
    start = time.perf_counter()
    selector = _parse_subsets(args.subsets)
    keys = [key for key, (_, in_all) in _CRITERIA.items()
            if key == args.criteria or in_all and args.criteria == "all"]
    if selector != "full" and "c1" not in keys:
        raise ValueError(f"--criteria {args.criteria} does not read --subsets "
                         f"(got {args.subsets!r}); only c1 and all do")
    if args.format == "csv" and "t1" not in keys and "c1" not in keys:
        raise ValueError(f"--format csv writes only norm records, which --criteria "
                         f"{args.criteria} does not make; only t1, c1 and all do")
    if args.format == "csv" and args.timing:
        raise ValueError("--format csv writes only norm records, not --timing; "
                         "only json does")
    verdicts = {key: _CRITERIA[key][0](rho, selector) for key in keys}
    elapsed = time.perf_counter() - start
    # the norm verdicts, which make the records, are those that read a subset
    norms = [v for vs in verdicts.values() for v in vs if v.subset is not None]

    if args.format == "csv":
        rows = [
            (",".join(map(str, v.subset)), format_number(v.norm_value),
             format_number(v.bound_value), v.decision.value, v.criterion, int(v.borderline))
            for v in norms
        ]
        _emit(args, records_to_csv(rows, _FIELDS))
        return 0

    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "analysis",
        "input": descriptor,
        "dims": rho.dims,
        "criteria": args.criteria,
        "subsets": args.subsets,
        "records": [],
    }
    if "c2" in verdicts:
        (v,) = verdicts["c2"]
        doc["exact_qubit"] = {"decision": v.decision.value, "criterion": v.criterion,
                              "norm": v.norm_value, "bound": v.bound_value,
                              "borderline": v.borderline}
        if v.reason:
            doc["exact_qubit"]["reason"] = v.reason
    if "p2" in verdicts:
        (v,) = verdicts["p2"]
        doc["sufficiency"] = {"lhs": v.norm_value, "available": v.norm_value is not None,
                              "decision": v.decision.value}
        if v.reason:
            doc["sufficiency"]["reason"] = v.reason
    if args.timing:
        doc["timing"] = {"elapsed_seconds": elapsed, "state_seconds": state_seconds}
    _emit(args, dump_json(doc, {"records": _record_texts(norms)}))
    return 0


# a norm record's keys, and its text as an item of a report's "records", one
# %s per value
_FIELDS = ("subset", "norm", "bound", "decision", "criterion", "borderline")
_RECORD = _template(_FIELDS, "\n    ")
_BOOLS = ("false", "true")


@functools.lru_cache(maxsize=4096)
def _subset_text(subset: tuple) -> str:
    """A record's subset as ``dump_json`` writes it in the record."""
    return _json(subset, "\n      ")


def _record_texts(verdicts: list) -> list:
    """The records of the norm ``verdicts`` as ``dump_json`` writes them in
    a report, each one ``_RECORD`` filled: ``%s`` writes a float as its
    ``repr``, as json does.  A norm or bound that is not finite raises
    json's ``ValueError``."""
    _check_finite(sum(v.norm_value + v.bound_value for v in verdicts),
                  [x for v in verdicts for x in (v.norm_value, v.bound_value)])
    quoted = encode_basestring_ascii
    return [_RECORD % (_subset_text(v.subset), v.norm_value, v.bound_value,
                       quoted(v.decision), quoted(v.criterion), _BOOLS[v.borderline])
            for v in verdicts]


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
    # the mixture was built here from a validated state, so it is not validated again
    residual = float(np.linalg.norm(_mixture_matrix(dec) - rho.matrix))
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "separable-decomposition",
        "input": descriptor,
        "dims": rho.dims,
        "identity_weight": dec.identity_weight,
        "term_count": dec.terms.rank,
        "reconstruction_residual": residual,
        "terms": [],
    }
    # one row per term: its weight, then its factors' coherence vectors.  Most
    # entries are 0.0 or a factor's +-inball radius, so each distinct float,
    # told apart by its bits so that -0.0 stays itself, is rendered once; %s
    # writes a float as its repr, as json does.  A table too small to repay
    # the sort is rendered float by float
    table = np.column_stack([dec.terms.weights, *(f.T for f in dec.terms.factors)])
    if table.size < _RENDER_BY_BITS:
        rows = table.tolist()
    else:
        distinct, where = np.unique(table.view(np.uint64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)
        rows = texts[where.reshape(table.shape)].tolist()
    template = _term_template(rho.dims)
    pieces = _pieces(doc, {"terms": [template % tuple(row) for row in rows]})
    # checked after the rest of the report, as json, which reaches the terms last
    _check_finite(float(table.sum()), table)
    _emit(args, pieces)
    return 0


# the entries of a term table from which ``cmd_decompose`` renders each
# distinct float once: below it, a sort costs more than the repeated reprs
_RENDER_BY_BITS = 128


@functools.lru_cache(maxsize=64)
def _term_template(dims: tuple) -> str:
    """A decompose term on ``dims`` as ``dump_json`` writes it in the
    report, one ``%s`` per value: the weight, then the entries of each
    factor's coherence vector."""
    factors = [_list(["%s"] * (d * d - 1), "\n        ") for d in dims]
    return _template(("weight", "factors"), "\n    ") % ("%s", _list(factors, "\n      "))


def cmd_zoo(args) -> int:
    spec = _zoo_spec(args.family, args)
    _emit(args, _state_pieces(spec.build(), name=spec.family, source="zoo"))
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
