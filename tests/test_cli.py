"""End-to-end command-line checks via main(argv)."""

import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import costodds as co
from costodds.cli import _build_parser, canonical_json, main
from costodds.gadgets import circuit_to_json, make_circuit
from helpers import (
    UNREACHABLE_WIDE_ROWS,
    choice_example,
    geometric_chain,
    level_four_tower,
    two_flip_chain,
    zero_ladder,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def choice_model(tmp_path):
    return write_json(tmp_path, "choice.json", co.model_to_json(choice_example()))


@pytest.fixture
def two_flip_model(tmp_path):
    return write_json(tmp_path, "two_flip.json", co.model_to_json(two_flip_chain()))


@pytest.fixture
def geometric_model(tmp_path):
    return write_json(tmp_path, "geometric.json", co.model_to_json(geometric_chain()))


def test_validate_accepts_good_models(capsys, choice_model):
    code, out, _ = run(capsys, "validate", "--model", choice_model)
    assert code == 0
    assert out == "valid\n"


def test_validate_reports_findings(capsys, tmp_path):
    doc = {
        "states": ["q0", "t"],
        "initial": "q0",
        "target": "t",
        "transitions": [{"from": "q0", "to": "t", "cost": "1", "prob": "1/2"}],
    }
    path = write_json(tmp_path, "broken.json", doc)
    code, out, _ = run(capsys, "validate", "--model", path)
    assert code == 2
    assert "bad-distribution" in out
    code, out, _ = run(capsys, "validate", "--json", "--model", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["findings"][0]["code"] == "bad-distribution"


def test_validate_handles_cost_utility_models(capsys, tmp_path):
    from costodds.gadgets import qualitative_to_cost_utility

    lifted = qualitative_to_cost_utility(choice_example(), 4)
    path = write_json(tmp_path, "cu.json", co.model_to_json(lifted))
    code, out, _ = run(capsys, "validate", "--model", path)
    assert code == 0
    assert out == "valid\n"
    assert main(["validate", "--kind", "cost-utility", "--model", path]) == 2
    capsys.readouterr()


def test_solve_chain_value_and_threshold(capsys, two_flip_model):
    code, out, _ = run(capsys, "solve", "--model", two_flip_model, "--formula", "x<=1")
    assert code == 0
    assert out == "value 1/2\n"
    code, out, _ = run(
        capsys, "solve", "--model", two_flip_model, "--formula", "x<=1", "--tau", "1/4"
    )
    assert (code, out.splitlines()[0]) == (0, "true")
    code, out, _ = run(
        capsys, "solve", "--model", two_flip_model, "--formula", "x<=1", "--tau", "3/4"
    )
    assert (code, out.splitlines()[0]) == (1, "false")


def test_solve_process_needs_quant(capsys, choice_model):
    code, _, err = run(capsys, "solve", "--model", choice_model, "--formula", "x<=5")
    assert code == 2
    assert "--quant" in err


def test_solve_process_json_payload(capsys, choice_model):
    code, out, _ = run(
        capsys,
        "solve",
        "--json",
        "--model",
        choice_model,
        "--formula",
        "x<=5",
        "--quant",
        "exists",
        "--tau",
        "3/4",
    )
    assert code == 0
    assert json.loads(out) == {"value": "3/4", "verdict": True}
    code, out, _ = run(
        capsys,
        "solve",
        "--model",
        choice_model,
        "--formula",
        "x<=5",
        "--quant",
        "forall",
    )
    assert (code, out) == (0, "value 1/4\n")


def test_solve_rejects_out_of_range_thresholds(capsys, two_flip_model):
    code, _, err = run(
        capsys, "solve", "--model", two_flip_model, "--formula", "x<=1", "--tau", "3/2"
    )
    assert code == 2
    assert "threshold" in err


def test_dist_json_is_exact(capsys, two_flip_model):
    code, out, _ = run(capsys, "dist", "--json", "--model", two_flip_model, "--budget", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["budget"] == 2
    assert payload["mass"] == {"1": "1/2"}
    assert payload["overflow"] == "1/2"
    assert set(payload["stats"]) == {"levels", "linear_solves", "max_numerator_bits"}


def test_dist_human_lines(capsys, two_flip_model):
    code, out, _ = run(capsys, "dist", "--model", two_flip_model, "--budget", "3")
    assert code == 0
    assert out.splitlines() == ["1: 1/2", "3: 1/2", "overflow: 0"]


def test_quantile_finite_and_infinite(capsys, geometric_model):
    code, out, _ = run(
        capsys, "quantile", "--model", geometric_model, "--tau", "3/4", "--quant", "exists"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run(
        capsys, "quantile", "--model", geometric_model, "--tau", "1", "--quant", "exists"
    )
    assert (code, out) == (0, "infinity\n")
    code, out, _ = run(
        capsys,
        "quantile",
        "--json",
        "--model",
        geometric_model,
        "--tau",
        "1",
        "--quant",
        "forall",
    )
    assert code == 0
    assert json.loads(out) == {"budget": None}


def test_answers_longer_than_the_digit_cap(capsys, geometric_model, digit_cap):
    code, out, err = run(capsys, "solve", "--model", geometric_model, "--formula", "x=15000")
    assert sys.get_int_max_str_digits() == digit_cap
    assert (code, err) == (0, "")
    sys.set_int_max_str_digits(0)  # to print the expected line; the fixture restores it
    assert out == f"value 1/{2**15001}\n"


def test_scheduler_emits_reusable_json(capsys, tmp_path, choice_model):
    code, out, _ = run(
        capsys,
        "scheduler",
        "--json",
        "--model",
        choice_model,
        "--formula",
        "x<=5",
        "--quant",
        "exists",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3/4"
    assert {"state": "q1", "cost": "1", "action": "a1"} in payload["scheduler"]
    path = write_json(tmp_path, "sched.json", payload["scheduler"])
    code, out, _ = run(
        capsys,
        "sample",
        "--json",
        "--model",
        choice_model,
        "--formula",
        "x<=5",
        "--n",
        "2000",
        "--seed",
        "11",
        "--scheduler",
        path,
    )
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 2000
    best = co.solve_max(choice_example(), co.parse("x<=5"))
    direct = co.estimate(choice_example(), best.scheduler, co.parse("x<=5"), 2000, 11)
    assert report["estimate"] == co.format_rational(direct.estimate)


def test_scheduler_human_lines(capsys, choice_model):
    code, out, _ = run(
        capsys, "scheduler", "--model", choice_model, "--formula", "x<=5", "--quant", "exists"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 3/4"
    assert "q1 @ 1 -> a1" in lines
    assert "q1 @ 3 -> a2" in lines


def test_subset_sum_gadget_drives_the_solver(capsys, tmp_path):
    code, out, _ = run(capsys, "gadget", "qss", "--json", "--k", "1,1", "--T", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["B"] == 5
    assert payload["tau"] == "19/288"
    assert payload["formula"] == "x<=5"
    model = write_json(tmp_path, "qss.json", payload["model"])
    code, out, _ = run(
        capsys,
        "solve",
        "--model",
        model,
        "--formula",
        payload["formula"],
        "--tau",
        payload["tau"],
        "--quant",
        "exists",
    )
    assert code == 1
    assert out.splitlines()[0] == "false"
    code, out, _ = run(capsys, "brute", "qss", "--k", "1,1", "--T", "2")
    assert (code, out) == (1, "false\n")


def test_universal_gadget_payload(capsys):
    code, out, _ = run(capsys, "gadget", "uqss", "--json", "--k", "1,1", "--T", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["B"] == 5
    assert payload["formula"] == "x<=4"


def test_brute_qss_verdicts_and_errors(capsys):
    code, out, _ = run(capsys, "brute", "qss", "--k", "1,0", "--T", "1")
    assert (code, out) == (0, "true\n")
    code, _, err = run(capsys, "brute", "qss", "--k", "1,x", "--T", "1")
    assert code == 2
    assert "comma-separated" in err
    code, _, err = run(capsys, "brute", "qss", "--k", "1,2,3", "--T", "1")
    assert code == 2
    assert "even number" in err


def test_countdown_commands(capsys, tmp_path):
    game = {
        "states": ["s"],
        "initial": "s",
        "final": 3,
        "moves": [{"from": "s", "k": 1, "to": "s"}],
    }
    path = write_json(tmp_path, "game.json", game)
    code, out, _ = run(capsys, "brute", "countdown", "--game", path)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "gadget", "countdown", "--json", "--game", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 3
    model = write_json(tmp_path, "countdown-model.json", payload["model"])
    code, out, _ = run(
        capsys, "solve", "--model", model, "--formula", "x=3", "--quant", "exists"
    )
    assert (code, out) == (0, "value 1\n")
    game["moves"][0]["k"] = 2
    path = write_json(tmp_path, "game2.json", game)
    code, out, _ = run(capsys, "brute", "countdown", "--game", path)
    assert (code, out) == (1, "false\n")


def test_circuit_gadget_lifts_even_gates(capsys, tmp_path):
    circuit = make_circuit(
        [
            ("l1", "one", ()),
            ("l2", "one", ()),
            ("s1", "plus", ("l1", "l2")),
            ("s2", "plus", ("l1", "l2")),
            ("p", "times", ("s1", "s2")),
        ]
    )
    path = write_json(tmp_path, "circuit.json", circuit_to_json(circuit))
    code, out, err = run(capsys, "gadget", "circuit", "--json", "--circuit", path, "--gate", "p")
    assert code == 0
    assert "note: even-level gate lifted" in err
    payload = json.loads(out)
    chain = co.model_from_json(payload["model"])
    hit = co.solve_chain(chain, co.parse(f"x={payload['target']}"))
    assert hit * payload["scale"] == 4


def test_brute_parikh_counts(capsys, tmp_path):
    circuit = make_circuit(
        [("l1", "one", ()), ("l2", "one", ()), ("g", "plus", ("l1", "l2"))]
    )
    path = write_json(tmp_path, "circuit.json", circuit_to_json(circuit))
    code, out, _ = run(capsys, "brute", "parikh", "--circuit", path, "--gate", "g")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "brute", "parikh", "--json", "--circuit", path, "--gate", "g")
    assert json.loads(out) == {"count": 2}


def test_posslp_gadget_round_trips(capsys, tmp_path):
    circuit = make_circuit(
        [
            ("one", "one", ()),
            ("zero", "zero", ()),
            ("g1", "plus", ("one", "one")),
            ("g2", "plus", ("one", "zero")),
        ]
    )
    path = write_json(tmp_path, "circuit.json", circuit_to_json(circuit))
    code, out, _ = run(
        capsys, "gadget", "posslp", "--json", "--circuit", path, "--g1", "g1", "--g2", "g2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "1/2"
    chain = co.model_from_json(payload["model"])
    value = co.solve_chain(chain, co.parse(payload["formula"]))
    assert value >= co.parse_rational("1/2", "tau")


def test_half_gadget_round_trips(capsys, tmp_path, two_flip_model):
    code, out, _ = run(
        capsys,
        "gadget",
        "half",
        "--json",
        "--model",
        two_flip_model,
        "--formula",
        "x<=1",
        "--tau",
        "1/4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "1/2"
    folded = co.model_from_json(payload["model"])
    assert co.solve_chain(folded, co.parse(payload["formula"])) == co.parse_rational(
        "2/3", "value"
    )


def test_half_gadget_rejects_constant_formulas(capsys, two_flip_model):
    code, _, err = run(
        capsys,
        "gadget",
        "half",
        "--model",
        two_flip_model,
        "--formula",
        "x>=0",
        "--tau",
        "1/4",
    )
    assert code == 2
    assert "constant" in err


def test_cu_gadget_payload(capsys, choice_model):
    code, out, _ = run(
        capsys, "gadget", "cu", "--json", "--model", choice_model, "--T", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["cost_cap"], payload["goal"]) == (4, 4)
    rows = payload["model"]["transitions"]
    assert all(row["cost"] == row["utility"] for row in rows)
    lifted = co.model_from_json(payload["model"])
    assert co.decide_cost_utility(lifted, 4, 4) == co.decide_qualitative(choice_example(), 4)[0]


def test_sample_refuses_a_scheduler_naming_a_disabled_action(capsys, tmp_path, choice_model):
    rows = [{"state": "q1", "cost": "1", "action": "zzz"}, {"state": "q1", "cost": "3", "action": "a1"}]
    path = write_json(tmp_path, "sched.json", rows)
    code, _, err = run(
        capsys, "sample", "--model", choice_model, "--formula", "x<=5",
        "--n", "20", "--seed", "1", "--scheduler", path,
    )
    assert code == 2
    assert "zzz" in err


def test_circuit_gadgets_refuse_gates_above_level_three(capsys, tmp_path):
    path = write_json(tmp_path, "tower.json", circuit_to_json(level_four_tower()))
    for argv in (
        ("brute", "parikh", "--circuit", path, "--gate", "w"),
        ("gadget", "circuit", "--circuit", path, "--gate", "w"),
        ("gadget", "posslp", "--circuit", path, "--g1", "w2", "--g2", "w"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "level" in err


def test_circuit_gadget_refuses_deep_lifts_with_the_level_message(capsys, tmp_path):
    path = write_json(tmp_path, "ladder.json", circuit_to_json(zero_ladder(1499)))
    code, out, err = run(capsys, "gadget", "circuit", "--circuit", path, "--gate", "a1498")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "note: even-level gate lifted to 'lift1498'",
        "error: gate 'lift1498' sits on level 1499; path counts are exact only up to level 3",
    ]


def gadget_arguments(tmp_path, verb: str) -> list[str]:
    circuit = make_circuit(
        [
            ("one", "one", ()),
            ("zero", "zero", ()),
            ("g1", "plus", ("one", "one")),
            ("g2", "plus", ("one", "zero")),
        ]
    )
    game = {"states": ["s"], "initial": "s", "final": 3, "moves": [{"from": "s", "k": 1, "to": "s"}]}
    if verb == "half":
        chain = write_json(tmp_path, "chain.json", co.model_to_json(two_flip_chain()))
        return ["--model", chain, "--formula", "x<=1", "--tau", "1/4"]
    if verb in ("circuit", "posslp"):
        path = write_json(tmp_path, "circuit.json", circuit_to_json(circuit))
        gates = ["--gate", "g1"] if verb == "circuit" else ["--g1", "g1", "--g2", "g2"]
        return ["--circuit", path, *gates]
    if verb in ("qss", "uqss"):
        return ["--k", "1,1", "--T", "2"]
    if verb == "countdown":
        return ["--game", write_json(tmp_path, "game.json", game)]
    process = write_json(tmp_path, "choice.json", co.model_to_json(choice_example()))
    return ["--model", process, "--T", "4"]


@pytest.mark.parametrize(
    "verb, shown",
    [
        ("half", ()),
        ("circuit", ("target", "scale")),
        ("posslp", ("formula", "tau")),
        ("qss", ("B", "tau")),
        ("uqss", ("B", "tau")),
        ("countdown", ("total",)),
        ("cu", ()),
    ],
)
def test_gadget_text_reports_show_certificates_then_the_model(capsys, tmp_path, verb, shown):
    argv = gadget_arguments(tmp_path, verb)
    code, out, _ = run(capsys, "gadget", verb, "--json", *argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload)[: len(shown) + 1] == ["model", *shown]
    code, out, _ = run(capsys, "gadget", verb, *argv)
    assert code == 0
    lines = [f"{key} {payload[key]}" for key in shown] + [canonical_json(payload["model"])]
    assert out == "\n".join(lines) + "\n"


def test_sample_output_is_reproducible(capsys, two_flip_model):
    args = (
        "sample",
        "--json",
        "--model",
        two_flip_model,
        "--formula",
        "x<=1",
        "--n",
        "500",
        "--seed",
        "13",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["n"] == 500
    assert payload["guard_trips"] == 0


def test_json_output_is_canonical(capsys, choice_model):
    code, out, _ = run(
        capsys,
        "solve",
        "--json",
        "--model",
        choice_model,
        "--formula",
        "x<=5",
        "--quant",
        "exists",
    )
    assert code == 0
    assert out == canonical_json(json.loads(out)) + "\n"


def test_usage_errors_exit_with_two(capsys, two_flip_model):
    assert main(["wat"]) == 2
    assert main(["solve"]) == 2
    assert main([]) == 2
    deep = "!" * 5000 + "x<=1"
    assert main(["solve", "--model", two_flip_model, "--formula", deep]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("failure", [RuntimeError("solver broke"), RecursionError()])
def test_unexpected_errors_exit_with_two(capsys, monkeypatch, choice_model, failure):
    def broken(process, formula):
        raise failure

    monkeypatch.setattr("costodds.cli.solve_max", broken)
    code, out, err = run(
        capsys, "solve", "--model", choice_model, "--formula", "x<=5", "--quant", "exists"
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {type(failure).__name__}: {failure}"]


def test_sample_refuses_seeds_outside_64_bits(capsys, two_flip_model):
    code, out, err = run(
        capsys, "sample", "--model", two_flip_model, "--formula", "x<=1", "--n", "4", "--seed", "-1"
    )
    assert (code, out) == (2, "")
    assert err == "error: seed must lie in [0, 2^64), got -1\n"


@pytest.mark.parametrize("command", [["validate"], ["gadget", "cu", "--T", "1"]])
def test_deeply_nested_json_is_a_format_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, *command, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"
    assert "RecursionError" not in err


def test_parser_is_built_once(capsys, two_flip_model):
    assert _build_parser() is _build_parser()
    # A shared parser keeps no state between calls.
    first = run(capsys, "dist", "--model", two_flip_model, "--budget", "3", "--json")
    assert run(capsys, "dist", "--model", two_flip_model, "--budget", "3") != first
    assert run(capsys, "dist", "--model", two_flip_model, "--budget", "3", "--json") == first


def test_missing_files_exit_with_two(capsys):
    code, _, err = run(capsys, "solve", "--model", "no-such.json", "--formula", "x<=1")
    assert code == 2
    assert "error" in err


def test_invalid_models_report_findings_on_stderr(capsys, tmp_path):
    doc = {
        "states": ["q0", "t"],
        "initial": "q0",
        "target": "t",
        "transitions": [{"from": "q0", "to": "t", "cost": "1", "prob": "1/2"}],
    }
    path = write_json(tmp_path, "broken.json", doc)
    code, _, err = run(capsys, "solve", "--model", path, "--formula", "x<=1")
    assert code == 2
    assert "bad-distribution" in err


# Every verb with its flags, and per flag the values that fit it: the
# fixture files below by name, or text. Budgets, formula constants,
# sample counts and subset-sum totals stay small, so no draw runs into a
# resource limit.
CLI_VERBS = {
    ("validate",): ("--model",),
    ("solve",): ("--model", "--formula", "--tau", "--quant"),
    ("dist",): ("--model", "--budget"),
    ("quantile",): ("--model", "--tau", "--quant"),
    ("scheduler",): ("--model", "--formula", "--quant"),
    ("gadget", "half"): ("--model", "--formula", "--tau"),
    ("gadget", "circuit"): ("--circuit", "--gate"),
    ("gadget", "posslp"): ("--circuit", "--g1", "--g2"),
    ("gadget", "qss"): ("--k", "--T"),
    ("gadget", "uqss"): ("--k", "--T"),
    ("gadget", "countdown"): ("--game",),
    ("gadget", "cu"): ("--model", "--T"),
    ("brute", "qss"): ("--k", "--T"),
    ("brute", "countdown"): ("--game",),
    ("brute", "parikh"): ("--circuit", "--gate"),
    ("sample",): ("--model", "--formula", "--n", "--seed", "--scheduler"),
}
GATES = ["g1", "g2", "one", "zero"]
CLI_VALUES = {
    "--model": ["{chain}", "{geometric}", "{choice}", "{wide}"],
    "--circuit": ["{circuit}"],
    "--game": ["{game}"],
    "--scheduler": ["{scheduler}"],
    "--formula": ["x<=0", "x<=3", "x>=2 & x<=5", "!(x=2)", "x=1 | x>=4", "x>=0"],
    "--tau": ["1/2", "0", "1", "3/4"],
    "--quant": ["exists", "forall"],
    "--budget": ["0", "3", "12"],
    "--gate": GATES,
    "--g1": GATES,
    "--g2": GATES,
    "--k": ["1,1", "1,2,3,4", "2,2"],
    "--T": ["0", "2", "4"],
    "--n": ["1", "20"],
    "--seed": ["0", "7"],
}
# Values that fit no flag, or only some: broken, missing and mistyped
# files, and text out of range or off the grammar.
CLI_MISFITS = [
    "{broken}", "{junk}", "{deep}", "{missing}", "{folder}", "{chain}", "{circuit}", "{game}",
    "", "x", "-1", "2", "1/0", "0.5", "abc", "x<", "((x<=1)", "2<=x<=1", "nope", "a,b", "1,2,3",
]


def mostly(draw, odds: int) -> bool:
    """True but one time in ``odds``; True is also what Hypothesis tries first."""
    return draw(st.sampled_from([True] * (odds - 1) + [False]))


@st.composite
def argument_vectors(draw):
    """A verb and most of its flags, each with a value that mostly fits;
    now and then a flag of another verb, ``--json`` or ``--help``."""
    verb = draw(st.sampled_from(sorted(CLI_VERBS)))
    flags = [flag for flag in CLI_VERBS[verb] if mostly(draw, 20)]
    if not mostly(draw, 6):
        flags.append(draw(st.sampled_from([*CLI_VALUES, "--json", "--json", "--help"])))
    argv = list(verb)
    for flag in flags:
        argv.append(flag)
        if flag in CLI_VALUES and mostly(draw, 30):
            fits = mostly(draw, 6)
            argv.append(draw(st.sampled_from(CLI_VALUES[flag] if fits else CLI_MISFITS)))
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("cli-fuzz")
    broken = co.model_to_json(two_flip_chain())
    broken["transitions"][0]["prob"] = "1/3"
    circuit = make_circuit(
        [("one", "one", ()), ("zero", "zero", ()), ("g1", "plus", ("one", "one")),
         ("g2", "times", ("g1", "g1"))]
    )
    scheduler = co.scheduler_to_json(co.solve_max(choice_example(), co.parse("x<=3")).scheduler)
    documents = {
        "chain": co.model_to_json(two_flip_chain()),
        "geometric": co.model_to_json(geometric_chain()),
        "choice": co.model_to_json(choice_example()),
        "wide": co.model_to_json(co.build_chain(UNREACHABLE_WIDE_ROWS, "q0", "t")),
        "broken": broken,
        "circuit": circuit_to_json(circuit),
        "game": {"states": ["s"], "initial": "s", "final": 3,
                 "moves": [{"from": "s", "k": 1, "to": "s"}]},
        "scheduler": scheduler,
    }
    paths = {name: write_json(folder, f"{name}.json", doc) for name, doc in documents.items()}
    for name, text in (("junk", "not json"), ("deep", "[" * 100_000)):
        (folder / f"{name}.json").write_text(text, encoding="utf-8")
        paths[name] = str(folder / f"{name}.json")
    paths["missing"] = str(folder / "missing.json")
    paths["folder"] = str(folder)
    return paths


# main's last handler names the exception type in its message.
FINAL_HANDLER = re.compile(r"^error: \w+(Error|Exception): ", re.M)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(argv=argument_vectors())
def test_cli_exits_with_an_answer_or_a_handled_error(cli_files, argv):
    argv = [arg.format(**cli_files) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert not FINAL_HANDLER.search(err.getvalue()), (argv, err.getvalue())
