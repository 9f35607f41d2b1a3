"""Command line interface with stable JSON input and output.

One job per invocation; the same job always produces byte-identical output
(keys sorted, deterministic basis orders).
Exit codes: 0 success, 1 internal inconsistency (including a failed check on
a complex the library built), 2 validation error, 3 size budget exceeded.
"""

from __future__ import annotations

import json
import sys

from .branched import checked_det, h1_sigma, qa_certify, rank_inequality_check
from .diagram import ArcMarking, parse_pd, strict_int
from .errors import (
    BadCircleMap,
    FiltrationViolation,
    IncompatibleMarking,
    InternalInconsistency,
    InvalidRange,
    NotAComplex,
    NotBicomplex,
    SizeBudgetExceeded,
    ValidationError,
)
from .khovanov import (
    cube_budget,
    grading_tables,
    hd_even_subcomplex,
    kh_ranks,
    khr_ranks,
    twisted_total_ranks,
    weight_ss,
    weight_totals,
)
from .surgery import (
    FramedLinkPresentation,
    PlumbingGraph,
    large_surgery_family,
    plumbing_lspace_check,
    surgered_h1,
)

# checks on the complexes the library builds itself: from a valid diagram
# they can only fail through a bug, so they exit 1 like InternalInconsistency
INTERNAL_CHECKS = (NotAComplex, NotBicomplex, FiltrationViolation, BadCircleMap)

# the largest qa node budget a job may ask for; a larger one exits 3
MAX_QA_BUDGET = 100_000

# the most free loops, each a Z summand of the result, an h1 job may ask for
MAX_H1_FREE_LOOPS = 10_000

# the most crossings of an h1 job: its Goeritz matrix, of at least n/2 rows
# and columns, is built and brought to Smith normal form
MAX_H1_CROSSINGS = 500

# the most components of a surgery job: its filled linking matrix is brought
# to Smith normal form and checked against Bareiss
MAX_SURGERY_COMPONENTS = 128

COMMANDS = ("kh", "khr", "twisted", "hd", "ss", "det", "h1", "qa",
            "rankcheck", "surgery", "plumbing", "lspace", "selftest")


class JobError(ValidationError):
    pass


def _require(payload: dict, key: str):
    if key not in payload:
        raise JobError(f"payload is missing required key {key!r}")
    return payload[key]


def _object(payload: dict, key: str) -> dict:
    spec = _require(payload, key)
    if not isinstance(spec, dict):
        raise JobError(f"{key!r} must be a JSON object")
    return spec


def _diagram_from(payload: dict):
    pd = _require(payload, "pd")
    if not isinstance(pd, list) or any(not isinstance(c, list) or len(c) != 4
                                       for c in pd):
        raise JobError("'pd' must be a list of 4-element lists")
    return parse_pd(pd, free_loops=payload.get("free_loops", 0),
                    orientation=payload.get("orientation"))


def _marking_from(payload: dict, d) -> ArcMarking:
    marking = payload.get("marking")
    if marking is None:
        return ArcMarking.zero(d)
    arcs = marking.get("arcs") if isinstance(marking, dict) else None
    if not isinstance(arcs, list):
        raise JobError("'marking' must be {\"arcs\": [0/1, ...]}")
    return ArcMarking(tuple(strict_int(x, "marking bit", IncompatibleMarking)
                            for x in arcs))


def _ints(x, what: str) -> list:
    """x as a list of integers; JobError for anything else, so floats,
    booleans and strings are refused rather than coerced."""
    if not isinstance(x, list):
        raise JobError(f"{what} must be a list of integers")
    return [strict_int(e, f"{what} entry", JobError) for e in x]


def _int_rows(x, what: str) -> list:
    if not isinstance(x, list):
        raise JobError(f"{what} must be a list of integer lists")
    return [_ints(row, f"{what} row") for row in x]


def _presentation_from(payload: dict) -> FramedLinkPresentation:
    linking = _int_rows(_require(payload, "linking"), "'linking'")
    if len(linking) > MAX_SURGERY_COMPONENTS:
        raise SizeBudgetExceeded(f"{len(linking)} components exceed the surgery "
                                 f"limit of {MAX_SURGERY_COMPONENTS}")
    frames = payload.get("frames")
    if frames is not None:
        return FramedLinkPresentation.from_linking_and_frames(
            linking, _ints(frames, "'frames'"))
    return FramedLinkPresentation.from_lists(linking)


def _framing_from(payload: dict) -> list:
    """The multi-framing: integers, or the string "inf" for infinity."""
    v = _require(payload, "v")
    if not isinstance(v, list):
        raise JobError("'v' must be a list of framings")
    return [x if isinstance(x, str) else strict_int(x, "'v' entry", JobError)
            for x in v]


def _group_json(g) -> dict:
    return {"invariant_factors": list(g.invariant_factors),
            "free_rank": g.free_rank,
            "order": g.order(),
            "pretty": str(g)}


def _rank_payload(theory: str, d, ranks: dict) -> dict:
    tabs = grading_tables(d, ranks)
    return {
        "theory": theory,
        "ranks": {"i": {str(k): v for k, v in tabs["i"].items()},
                  "h": {str(k): v for k, v in tabs["h"].items()}},
        "total": sum(ranks.values()),
    }


def run_job(command: str, payload: dict, max_crossings: int | None = None) -> dict:
    # every command refuses a negative budget, also one that builds no cube
    cube_budget(max_crossings)
    if command == "kh":
        d = _diagram_from(payload)
        return _rank_payload("kh", d, kh_ranks(d, max_crossings=max_crossings))
    if command == "khr":
        d = _diagram_from(payload)
        return _rank_payload("khr", d, khr_ranks(d, max_crossings=max_crossings))
    if command == "twisted":
        d = _diagram_from(payload)
        m = _marking_from(payload, d)
        ranks = twisted_total_ranks(d, m, max_crossings=max_crossings)
        return {"theory": "twisted",
                "ranks": {"total_degree": {str(k): v for k, v in sorted(ranks.items())}},
                "total": sum(ranks.values())}
    if command == "hd":
        d = _diagram_from(payload)
        m = _marking_from(payload, d)
        hd = hd_even_subcomplex(d, m, max_crossings=max_crossings)
        out = _rank_payload("hd", d, weight_totals(hd))
        out["bigraded"] = {f"({p},{v})": r for (p, v), r in sorted(hd.items())}
        return out
    if command == "ss":
        d = _diagram_from(payload)
        m = _marking_from(payload, d)
        pages = weight_ss(d, m, max_crossings=max_crossings)
        return {
            "theory": "ss",
            "pages": [{f"({p},{t})": v for (p, t), v in sorted(table.items())}
                      for table in pages.pages],
            "stabilization_index": pages.stabilization_index,
            "e_infinity": {f"({p},{t})": v
                           for (p, t), v in sorted(pages.e_infinity.items())},
            "total": sum(pages.e_infinity.values()),
        }
    if command == "det":
        det = checked_det(_diagram_from(payload), max_crossings=max_crossings)
        return {"det": det, "oracles": {"state_sum": det, "goeritz": det}}
    if command == "h1":
        d = _diagram_from(payload)
        if d.free_loops > MAX_H1_FREE_LOOPS:
            raise SizeBudgetExceeded(f"{d.free_loops} free loops exceed the h1 limit "
                                     f"of {MAX_H1_FREE_LOOPS}")
        if d.n > MAX_H1_CROSSINGS:
            raise SizeBudgetExceeded(f"{d.n} crossings exceed the h1 limit "
                                     f"of {MAX_H1_CROSSINGS}")
        return {"h1": _group_json(h1_sigma(d))}
    if command == "qa":
        d = _diagram_from(payload)
        budget = strict_int(payload.get("budget", 20000), "budget", JobError)
        if budget < 0:
            raise JobError(f"qa budget must be non-negative, got {budget}")
        if budget > MAX_QA_BUDGET:
            raise SizeBudgetExceeded(f"qa budget {budget} exceeds the limit of {MAX_QA_BUDGET}")
        reason: list = []
        cert = qa_certify(d, budget=budget, max_crossings=max_crossings, reason=reason)
        if cert is None:
            return {"verdict": "unknown", "reason": reason[0]}
        # the root's det, read off the Euler sum the search kept, against
        # the Goeritz determinant
        checked_det(cert.diagram, max_crossings=max_crossings)
        return {"verdict": "certified", "certificate": cert.to_json()}
    if command == "rankcheck":
        d = _diagram_from(payload)
        rep = rank_inequality_check(d, max_crossings=max_crossings)
        return {"det": rep.det, "khr_mirror_rank": rep.khr_mirror_rank,
                "holds": rep.holds, "equality": rep.equality}
    if command == "surgery":
        pres = _presentation_from(payload)
        v = _framing_from(payload)
        g = surgered_h1(pres, v)     # its order is checked against Bareiss
        return {"h1": _group_json(g), "euler": g.order() or 0}
    if command == "plumbing":
        return _plumbing_job(payload)
    if command == "lspace":
        if "plumbing" in payload and "large_surgery" in payload:
            raise JobError("lspace payload takes 'plumbing' or 'large_surgery', not both")
        if "plumbing" in payload:
            return _plumbing_job(payload)
        if "large_surgery" in payload:
            spec = _object(payload, "large_surgery")
            p, q, n = (strict_int(_require(spec, k), repr(k), JobError)
                       for k in ("p", "q", "n"))
            verdict = large_surgery_family(p, q, n)
            return _verdict_json(verdict)
        raise JobError("lspace payload needs 'plumbing' or 'large_surgery'")
    if command == "selftest":
        from .acceptance import run_all
        results = run_all()
        return {"passed": all(r.passed for r in results),
                "criteria": [{"number": r.number, "name": r.name,
                              "passed": r.passed, "detail": r.detail}
                             for r in results]}
    raise JobError(f"unknown command {command!r}")


def _plumbing_job(payload: dict) -> dict:
    spec = _object(payload, "plumbing")
    edges = _int_rows(spec.get("edges", []), "'edges'")
    if any(len(e) != 2 for e in edges):
        raise JobError("'edges' rows must be pairs of vertex indices")
    g = PlumbingGraph.from_lists(_ints(_require(spec, "mult"), "'mult'"), edges)
    verdict = plumbing_lspace_check(g)
    out = _verdict_json(verdict)
    out["h1"] = verdict.h1_order
    return out


def _verdict_json(verdict) -> dict:
    # a plumbing derivation shares each distinct step among its occurrences:
    # render each once and list the same dict at every occurrence.  Every
    # verdict with a derivation was re-verified where it was made (a failure
    # raises InternalInconsistency there), and one without has nothing to
    # check, so the field is true
    steps = verdict.derivation
    rendered = {s: {"kind": s.kind, "description": s.description, "orders": list(s.orders)}
                for s in set(steps)}
    return {
        "verdict": verdict.verdict,
        "h1_order": verdict.h1_order,
        "derivation": list(map(rendered.__getitem__, steps)),
        "reverified": True,
    }


def main(argv=None) -> int:
    import argparse             # only the command line needs it, not run_job
    ap = argparse.ArgumentParser(
        prog="cubekh",
        description="Khovanov-type homology and branched cover arithmetic over GF(2)")
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument("--input", default="-",
                    help="JSON payload file, or - for stdin (default)")
    ap.add_argument("--max-crossings", type=int, default=None)
    ap.add_argument("--json-indent", type=int, default=None)
    args = ap.parse_args(argv)
    indent = args.json_indent

    def emit(obj) -> None:
        print(json.dumps(obj, sort_keys=True, indent=indent))

    try:
        if indent is not None and indent < 0:
            indent = None           # the asked-for indent is invalid: print compactly
            raise InvalidRange(f"json_indent must be non-negative, got {args.json_indent}")
        try:
            if args.command == "selftest":
                raw = ""            # the acceptance suite reads no payload
            elif args.input == "-":
                raw = sys.stdin.read()
            else:
                with open(args.input, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            payload = json.loads(raw) if raw.strip() else {}
        except (ValueError, RecursionError) as e:
            # undecodable bytes, malformed JSON, an int past the digit
            # limit, nesting past the recursion limit
            raise JobError(f"input is not valid JSON: {e}") from e
        if not isinstance(payload, dict):
            raise JobError("input payload must be a JSON object")
        result = run_job(args.command, payload, max_crossings=args.max_crossings)
    except SizeBudgetExceeded as e:
        emit({"error": {"kind": "budget", "detail": str(e)}})
        return 3
    except InternalInconsistency as e:
        emit({"error": {"kind": "internal", "detail": str(e)}})
        return 1
    except INTERNAL_CHECKS as e:
        emit({"error": {"kind": "internal", "detail": f"{type(e).__name__}: {e}"}})
        return 1
    except (ValidationError, OSError) as e:
        emit({"error": {"kind": type(e).__name__, "detail": str(e)}})
        return 2
    except Exception as e:                     # any other exception is a bug
        emit({"error": {"kind": "internal", "detail": f"{type(e).__name__}: {e}"}})
        return 1
    emit(result)
    return 1 if args.command == "selftest" and not result["passed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
