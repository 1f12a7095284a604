"""Command-line front end.

One verb per capability: validate, solve, dist, quantile, scheduler,
gadget (model generators), brute (oracles), sample. Exit codes: 0 for
an answered query (or a "yes" decision), 1 for a "no" decision, 2 for
usage or validation problems and for any unexpected error. All numbers
print as exact rationals; ``--json`` switches to machine-readable
reports carrying the same values. Every gadget verb reports its model
the same way: as text, the certifying fields as ``key value`` lines,
then the model JSON; with ``--json``, one object with ``"model"`` first.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .chain_solver import cost_distribution, solve_chain
from .errors import CostOddsError, ModelFormatError, NotValidatedError, ThresholdRangeError
from .formula import normalize, parse, to_text
from .gadgets import (
    circuit_from_json,
    circuit_to_chain,
    circuit_to_dfa,
    count_parikh_paths,
    countdown_brute,
    countdown_from_json,
    countdown_to_process,
    lift_gate,
    posslp_instance,
    qsubsetsum_brute,
    qsubsetsum_to_process,
    qualitative_to_cost_utility,
    threshold_to_half,
    universal_qsubsetsum_to_process,
)
from .mc import estimate
from .mdp_solver import scheduler_from_json, scheduler_to_json, solve_max, solve_min
from .model import is_chain, model_from_json, model_to_json, validate
from .quantile import quantile_query
from .rational import format_rational, parse_rational

__all__ = ["main", "canonical_json"]


def canonical_json(data: object) -> str:
    """The one serialization used for all JSON output, so round-trips are stable."""
    return json.dumps(data, indent=2, sort_keys=False)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Exact answers may run past CPython's cap on int <-> str digits.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except CostOddsError as exc:
        if isinstance(exc, NotValidatedError):
            for finding in exc.report.violations:
                print(
                    f"error: {finding.code} at {finding.subject}: {finding.message}",
                    file=sys.stderr,
                )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit statuses 0 and 1 are answers, so nothing unexpected may end in them.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and then shared: parsing leaves no state in it,
    # and no argument has a mutable default.
    parser = argparse.ArgumentParser(
        prog="costodds",
        description="Exact budget-probability queries on cost processes.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sp = _command(commands, "validate", "Check a model file and report findings.")
    sp.add_argument("--model", required=True)
    sp.set_defaults(handler=_cmd_validate)

    sp = _command(commands, "solve", "Optimal probability that the final cost fits the formula.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--tau", help="decision threshold, as num/den")
    sp.add_argument("--quant", choices=("exists", "forall"))
    sp.set_defaults(handler=_cmd_solve)

    sp = _command(commands, "dist", "Truncated distribution of the accumulated cost of a chain.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--budget", required=True, type=int)
    sp.set_defaults(handler=_cmd_dist)

    sp = _command(commands, "quantile", "Smallest budget whose probability meets the threshold.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--quant", choices=("exists", "forall"), required=True)
    sp.set_defaults(handler=_cmd_quantile)

    sp = _command(commands, "scheduler", "Emit the optimizing scheduler as JSON.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--quant", choices=("exists", "forall"), required=True)
    sp.set_defaults(handler=_cmd_scheduler)

    gadget = commands.add_parser("gadget", help="Generate models with certified answers.")
    gadgets = gadget.add_subparsers(dest="gadget", required=True)

    sp = _command(gadgets, "half", "Move an arbitrary threshold to 1/2.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--tau", required=True)
    sp.set_defaults(handler=_cmd_gadget_half)

    sp = _command(gadgets, "circuit", "Chain whose exact-cost probability encodes a gate value.")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--gate", required=True)
    sp.set_defaults(handler=_cmd_gadget_circuit)

    sp = _command(gadgets, "posslp", "Chain and formula comparing two gate values at threshold 1/2.")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--g1", required=True)
    sp.add_argument("--g2", required=True)
    sp.set_defaults(handler=_cmd_gadget_posslp)

    sp = _command(gadgets, "qss", "Existential subset-sum game as a cost process.")
    sp.add_argument("--k", required=True, help="comma-separated weights")
    sp.add_argument("--T", required=True, type=int, dest="total")
    sp.set_defaults(handler=_cmd_gadget_qss)

    sp = _command(gadgets, "uqss", "Universal subset-sum game as a cost process.")
    sp.add_argument("--k", required=True, help="comma-separated weights")
    sp.add_argument("--T", required=True, type=int, dest="total")
    sp.set_defaults(handler=_cmd_gadget_uqss)

    sp = _command(gadgets, "countdown", "Countdown game as a qualitative cost process.")
    sp.add_argument("--game", required=True)
    sp.set_defaults(handler=_cmd_gadget_countdown)

    sp = _command(gadgets, "cu", "Mirror costs onto utilities for the two-counter query.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--T", required=True, type=int, dest="total")
    sp.set_defaults(handler=_cmd_gadget_cu)

    brute = commands.add_parser("brute", help="Exhaustive oracles for small instances.")
    brutes = brute.add_subparsers(dest="brute", required=True)

    sp = _command(brutes, "qss", "Game-tree evaluation of a subset-sum game.")
    sp.add_argument("--k", required=True)
    sp.add_argument("--T", required=True, type=int, dest="total")
    sp.set_defaults(handler=_cmd_brute_qss)

    sp = _command(brutes, "countdown", "Win-set computation for a countdown game.")
    sp.add_argument("--game", required=True)
    sp.set_defaults(handler=_cmd_brute_countdown)

    sp = _command(brutes, "parikh", "Count budget-conforming paths in a circuit's DFA.")
    sp.add_argument("--circuit", required=True)
    sp.add_argument("--gate", required=True)
    sp.set_defaults(handler=_cmd_brute_parikh)

    sp = _command(commands, "sample", "Monte Carlo estimate under a fixed scheduler.")
    sp.add_argument("--model", required=True)
    sp.add_argument("--formula", required=True)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--scheduler", help="scheduler JSON file (optional for chains)")
    sp.set_defaults(handler=_cmd_sample)

    return parser


def _command(subparsers, name: str, help_text: str):
    sp = subparsers.add_parser(name, help=help_text, description=help_text)
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    return sp


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ModelFormatError(f"{path}: JSON nested too deeply") from None


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(canonical_json(payload))
    else:
        for line in lines:
            print(line)


def _emit_model(args, model, shown: dict, hidden: dict) -> int:
    """Report a generated model and the fields that certify it.

    As text: one ``key value`` line per ``shown`` field, then the model
    JSON. With ``--json``: one object, ``"model"`` first, then ``shown``
    and ``hidden``.
    """
    document = model_to_json(model)
    lines = [f"{key} {value}" for key, value in shown.items()]
    _emit(args, {"model": document, **shown, **hidden}, [*lines, canonical_json(document)])
    return 0


def _verdict(args, verdict: bool) -> int:
    _emit(args, {"verdict": verdict}, ["true" if verdict else "false"])
    return 0 if verdict else 1


def _threshold(text: str) -> Fraction:
    value = parse_rational(text, "threshold")
    if not 0 <= value <= 1:
        raise ThresholdRangeError(f"threshold must be in [0, 1], got {value}")
    return value


def _weights(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}") from None


def _cmd_validate(args) -> int:
    report = validate(model_from_json(_load_json(args.model)))
    payload = {
        "ok": report.ok,
        "findings": [
            {"code": f.code, "subject": f.subject, "message": f.message}
            for f in report.violations
        ],
    }
    lines = (
        ["valid"]
        if report.ok
        else [f"{f.code} at {f.subject}: {f.message}" for f in report.violations]
    )
    _emit(args, payload, lines)
    return 0 if report.ok else 2


def _cmd_solve(args) -> int:
    process = model_from_json(_load_json(args.model))
    formula = parse(args.formula)
    if is_chain(process):
        value = solve_chain(process, formula)
    elif args.quant is None:
        print("error: --quant is required for models with choices", file=sys.stderr)
        return 2
    else:
        solver = solve_max if args.quant == "exists" else solve_min
        value = solver(process, formula).value
    payload: dict = {"value": format_rational(value)}
    lines = [f"value {format_rational(value)}"]
    if args.tau is None:
        _emit(args, payload, lines)
        return 0
    threshold = _threshold(args.tau)
    verdict = value >= threshold
    payload["verdict"] = verdict
    _emit(args, payload, [("true" if verdict else "false"), *lines])
    return 0 if verdict else 1


def _cmd_dist(args) -> int:
    process = model_from_json(_load_json(args.model))
    result = cost_distribution(process, args.budget)
    mass = [(k, format_rational(v)) for k, v in sorted(result.mass.items())]
    payload = {
        "budget": result.budget,
        "mass": {str(k): v for k, v in mass},
        "overflow": format_rational(result.overflow),
        "stats": dict(result.stats),
    }
    lines = [f"{k}: {v}" for k, v in mass]
    lines.append(f"overflow: {format_rational(result.overflow)}")
    _emit(args, payload, lines)
    return 0


def _cmd_quantile(args) -> int:
    process = model_from_json(_load_json(args.model))
    budget = quantile_query(process, _threshold(args.tau), args.quant)
    payload = {"budget": budget}
    _emit(args, payload, ["infinity" if budget is None else str(budget)])
    return 0


def _cmd_scheduler(args) -> int:
    process = model_from_json(_load_json(args.model))
    solver = solve_max if args.quant == "exists" else solve_min
    result = solver(process, parse(args.formula))
    entries = scheduler_to_json(result.scheduler)
    payload = {"value": format_rational(result.value), "scheduler": entries}
    lines = [f"value {format_rational(result.value)}"] + [
        f"{entry['state']} @ {entry['cost']} -> {entry['action']}" for entry in entries
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_gadget_half(args) -> int:
    process = model_from_json(_load_json(args.model))
    formula = parse(args.formula)
    threshold = _threshold(args.tau)
    accept = normalize(formula)
    if accept.is_empty or accept.is_universal:
        print("error: formula is constant; nothing to re-threshold", file=sys.stderr)
        return 2
    hit = accept.spans[0][0]
    miss = accept.complement().spans[0][0]
    result = threshold_to_half(process, formula, threshold, miss, hit)
    return _emit_model(args, result, {}, {"tau": "1/2", "formula": args.formula})


def _cmd_gadget_circuit(args) -> int:
    circuit = circuit_from_json(_load_json(args.circuit))
    gate = args.gate
    if circuit.gate(gate).level % 2 == 0:
        circuit, gate = lift_gate(circuit, gate)
        print(f"note: even-level gate lifted to {gate!r}", file=sys.stderr)
    certificate = circuit_to_chain(circuit, gate)
    shown = {"target": certificate.target_value, "scale": certificate.scale}
    return _emit_model(
        args, certificate.model, shown, {"bookkeeping": _plain(certificate.bookkeeping)}
    )


def _cmd_gadget_posslp(args) -> int:
    circuit = circuit_from_json(_load_json(args.circuit))
    model, formula, certificate = posslp_instance(circuit, args.g1, args.g2)
    hidden = {
        "target": certificate.target_value,
        "scale": certificate.scale,
        "bookkeeping": _plain(certificate.bookkeeping),
    }
    return _emit_model(args, model, {"formula": to_text(formula), "tau": "1/2"}, hidden)


def _cmd_gadget_qss(args) -> int:
    process, budget, threshold = qsubsetsum_to_process(_weights(args.k), args.total)
    shown = {"B": budget, "tau": format_rational(threshold)}
    return _emit_model(args, process, shown, {"formula": f"x<={budget}"})


def _cmd_gadget_uqss(args) -> int:
    process, budget, threshold = universal_qsubsetsum_to_process(
        _weights(args.k), args.total
    )
    shown = {"B": budget, "tau": format_rational(threshold)}
    return _emit_model(args, process, shown, {"formula": f"x<={budget - 1}"})


def _cmd_gadget_countdown(args) -> int:
    game = countdown_from_json(_load_json(args.game))
    process, total = countdown_to_process(game)
    return _emit_model(args, process, {"total": total}, {})


def _cmd_gadget_cu(args) -> int:
    process = model_from_json(_load_json(args.model))
    result = qualitative_to_cost_utility(process, args.total)
    return _emit_model(args, result, {}, {"cost_cap": args.total, "goal": args.total})


def _cmd_brute_qss(args) -> int:
    return _verdict(args, qsubsetsum_brute(_weights(args.k), args.total))


def _cmd_brute_countdown(args) -> int:
    return _verdict(args, countdown_brute(countdown_from_json(_load_json(args.game))))


def _cmd_brute_parikh(args) -> int:
    circuit = circuit_from_json(_load_json(args.circuit))
    dfa, budget, source, sink = circuit_to_dfa(circuit, args.gate)
    count = count_parikh_paths(dfa, source, sink, budget)
    _emit(args, {"count": count}, [str(count)])
    return 0


def _cmd_sample(args) -> int:
    process = model_from_json(_load_json(args.model))
    scheduler = (
        scheduler_from_json(_load_json(args.scheduler)) if args.scheduler else None
    )
    report = estimate(process, scheduler, parse(args.formula), args.n, args.seed)
    payload = {
        "n": report.n,
        "hits": report.hits,
        "estimate": format_rational(report.estimate),
        "ci_halfwidth": report.ci_halfwidth,
        "seed": report.seed,
        "guard_trips": report.guard_trips,
    }
    lines = [
        f"estimate {format_rational(report.estimate)}",
        f"hits {report.hits}/{report.n}",
        f"ci_halfwidth {report.ci_halfwidth}",
    ]
    _emit(args, payload, lines)
    return 0


def _plain(mapping) -> dict:
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in mapping.items()
    }


if __name__ == "__main__":
    sys.exit(main())
