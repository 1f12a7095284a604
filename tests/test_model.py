"""Model construction, validation findings, and JSON interchange."""

import hashlib
import math
import sys
import time
from fractions import Fraction
from random import Random

import pytest

import costodds as co
from costodds import ModelFormatError
from costodds.model import _rows

from helpers import (
    HALF,
    ONE,
    any_process,
    choice_example,
    findings_oracle,
    geometric_chain,
    local_process,
    mixed_denominator_process,
    peeling_cycle,
    random_process,
    two_flip_chain,
    validity_oracle,
    with_utilities,
)


def test_build_chain_adds_target_loop():
    chain = two_flip_chain()
    assert chain.states == ("q0", "t")
    assert chain.enabled["t"] == ("a",)
    assert chain.transitions[("t", "a")] == (co.Transition("t", 0, ONE),)
    assert co.is_chain(chain)
    assert co.validate(chain).ok


def test_duplicate_rows_merge_probabilities():
    chain = co.build_chain(
        [("q0", "t", 2, HALF), ("q0", "t", 2, HALF)], "q0", "t"
    )
    assert chain.transitions[("q0", "a")] == (co.Transition("t", 2, ONE),)
    assert co.validate(chain).ok


def test_choice_example_shape():
    process = choice_example()
    assert not co.is_chain(process)
    assert process.enabled["q1"] == ("a1", "a2")
    assert co.validate(process).ok


def test_reachable_and_control_graph():
    process = choice_example()
    assert process.reachable == frozenset({"q0", "q1", "t"})
    # The control graph leaves out the target's self-loop.
    assert co.is_acyclic(process)


def test_is_acyclic():
    assert co.is_acyclic(two_flip_chain())
    assert not co.is_acyclic(geometric_chain())


def test_int_table_matches_the_transitions():
    rng = Random(41)
    processes = [choice_example(), geometric_chain()]
    processes += [random_process(rng) for _ in range(30)]
    processes += [mixed_denominator_process(rng) for _ in range(30)]
    for process in processes:
        table = process.int_table
        assert process.int_table is table
        entries = [
            e for q in process.states for a in process.enabled[q] for e in process.transitions[(q, a)]
        ]
        for q in process.states:
            assert len(table.rows[q]) == len(process.enabled[q])
            for action, (den, rows) in zip(process.enabled[q], table.rows[q]):
                transitions = process.transitions[(q, action)]
                assert den == math.lcm(*(e.prob.denominator for e in transitions))
                expected = [(e.successor, e.cost, e.prob) for e in transitions]
                assert [(s, c, Fraction(w, den)) for s, c, w in rows] == expected
        p_min = min(e.prob for e in entries)
        k_max = max(e.cost for e in entries)
        assert table.p_min == p_min
        assert table.max_cost == k_max
        bounds = co.budget_upper_bound(process, HALF)
        assert (bounds.p_min, bounds.k_max) == (p_min, k_max)
        # The zero-cost components partition the states, and every zero-cost
        # edge that stays off the target leads to the same or an earlier one.
        members = [q for component, _ in table.components for q in component]
        assert sorted(members) == sorted(process.states)
        for index, (component, cyclic) in enumerate(table.components):
            assert all(table.component_of[q] == index for q in component)
            loops = any(
                e.successor == q and e.cost == 0 and q != process.target
                for q in component
                for a in process.enabled[q]
                for e in process.transitions[(q, a)]
            )
            assert cyclic == (len(component) > 1 or loops)
        for q, a in process.transitions:
            for e in process.transitions[(q, a)]:
                if e.cost == 0 and e.successor != process.target:
                    assert table.component_of[e.successor] <= table.component_of[q]


def test_bad_distribution_finding():
    chain = co.build_chain([("q0", "t", 1, HALF)], "q0", "t")
    report = co.validate(chain)
    assert not report.ok
    assert [f.code for f in report.violations] == ["bad-distribution"]
    assert report.violations[0].subject == ("q0", "a")


def test_bad_distribution_over_mixed_denominators():
    # The check sums (q0, a)'s integer weights over its own D_a = 6; the
    # message still names the exact sum 1/2 + 1/3 = 5/6.
    process = co.build_process(
        [
            ("q0", "a", "t", 1, HALF),
            ("q0", "a", "q1", 0, Fraction(1, 3)),
            ("q0", "b", "t", 2, ONE),
            ("q1", "a", "t", 0, Fraction(2, 7)),
            ("q1", "a", "t", 1, Fraction(5, 7)),
        ],
        "q0",
        "t",
    )
    assert [den for den, _ in process.int_table.rows["q0"]] == [6, 1]
    assert process.int_table.rows["q1"][0][0] == 7
    (finding,) = co.validate(process).violations
    assert finding == co.Finding(
        "bad-distribution", ("q0", "a"), "probabilities sum to 5/6, not 1"
    )


def test_bad_target_loop_finding():
    chain = co.build_chain(
        [("q0", "t", 1, ONE), ("t", "t", 1, ONE)], "q0", "t"
    )
    codes = {f.code for f in co.validate(chain).violations}
    assert "bad-target-loop" in codes


def test_unreachable_target_finding():
    chain = co.build_chain(
        [("q0", "q1", 1, HALF), ("q0", "t", 1, HALF), ("q1", "q1", 1, ONE)],
        "q0",
        "t",
    )
    report = co.validate(chain)
    codes = {f.code for f in report.violations}
    assert "unreachable-target" in codes
    stranded = next(f for f in report.violations if f.code == "unreachable-target")
    assert stranded.subject == ("q1",)


def stranded(*states):
    return co.Finding(
        "unreachable-target", states, "these reachable states have no path to the target"
    )


def bad_mec(*states):
    return co.Finding(
        "bad-mec", states, "end component other than the target singleton is reachable"
    )


@pytest.mark.parametrize(
    "process, violations",
    [
        # The stranded states form a cycle, met at s1 before s0.
        (
            co.build_chain(
                [
                    ("q0", "t", 1, HALF),
                    ("q0", "s1", 1, HALF),
                    ("s1", "s0", 0, ONE),
                    ("s0", "s1", 1, ONE),
                ],
                "q0",
                "t",
            ),
            (stranded("s0", "s1"), bad_mec("s0", "s1")),
        ),
        # {q0, q1} reaches the target only through {r0, r1}; q1 can also
        # move to s0, which never leaves.
        (
            co.build_process(
                [
                    ("q0", "a", "q1", 1, ONE),
                    ("q1", "a", "q0", 0, HALF),
                    ("q1", "a", "r0", 1, HALF),
                    ("q1", "b", "s0", 0, ONE),
                    ("s0", "a", "s0", 1, ONE),
                    ("r0", "a", "r1", 0, ONE),
                    ("r1", "a", "r0", 1, HALF),
                    ("r1", "a", "t", 0, HALF),
                ],
                "q0",
                "t",
            ),
            (stranded("s0"), bad_mec("s0")),
        ),
        # The initial state cannot reach the target at all.
        (
            co.build_chain([("q0", "q1", 1, ONE), ("q1", "q0", 0, ONE)], "q0", "t"),
            (stranded("q0", "q1"), bad_mec("q0", "q1")),
        ),
        # Runs start at the target, so the looping q0 is never reached.
        (co.build_chain([("q0", "q0", 1, ONE)], "t", "t", ["q0", "t"]), ()),
        # End components found at different refinement depths: {s} in the
        # first split, {d1, d2} and {a1, a2} one round later (once a1's
        # exit is dropped), {b1, b2} two rounds later (once b1's mixed
        # action no longer ties b3 in). The order is the decomposition's.
        (
            co.build_process(
                [
                    ("q0", "a", "s", 1, HALF),
                    ("q0", "a", "a1", 1, HALF),
                    ("q0", "b", "b1", 0, HALF),
                    ("q0", "b", "d1", 1, HALF),
                    ("s", "stay", "s", 1, ONE),
                    ("s", "go", "t", 0, ONE),
                    ("a1", "a", "a2", 0, ONE),
                    ("a1", "b", "t", 1, ONE),
                    ("a2", "a", "a1", 1, ONE),
                    ("b1", "a", "b2", 0, ONE),
                    ("b1", "b", "b3", 1, HALF),
                    ("b1", "b", "t", 1, HALF),
                    ("b2", "a", "b1", 0, ONE),
                    ("b3", "a", "b1", 2, ONE),
                    ("b3", "b", "t", 0, ONE),
                    ("d1", "a", "d2", 1, ONE),
                    ("d2", "a", "d1", 0, ONE),
                    ("d2", "b", "d2", 0, ONE),
                ],
                "q0",
                "t",
            ),
            (
                stranded("d1", "d2"),
                bad_mec("s"),
                bad_mec("d1", "d2"),
                bad_mec("b1", "b2"),
                bad_mec("a1", "a2"),
            ),
        ),
    ],
)
def test_stranded_states(process, violations):
    assert co.validate(process).violations == violations


def test_bad_mec_finding_without_stranding():
    # Action "stay" keeps q1 inside {q1}, yet "leave" still reaches t,
    # so the only finding is the end component itself.
    process = co.build_process(
        [
            ("q0", "a", "q1", 1, ONE),
            ("q1", "stay", "q1", 0, ONE),
            ("q1", "leave", "t", 1, ONE),
        ],
        "q0",
        "t",
    )
    report = co.validate(process)
    assert [f.code for f in report.violations] == ["bad-mec"]
    assert report.violations[0].subject == ("q1",)


def test_unreachable_states_do_not_matter():
    chain = co.build_chain(
        [("q0", "t", 1, ONE), ("orphan", "orphan", 1, ONE)], "q0", "t"
    )
    assert co.validate(chain).ok


def test_validation_agrees_with_the_scheduler_oracle():
    # Every kind of fault, alone and together: the verdict equals the
    # oracle's, and an invalid process names at least one finding.
    rng = Random(51)
    seen = dict.fromkeys(
        ["ok", "bad-distribution", "target-utility", "unreachable-target", "bad-mec-only",
         "unreached-trap"],
        0,
    )
    for _ in range(6000):
        process = any_process(rng)
        report = co.validate(process)
        assert report.ok == validity_oracle(process), co.model_to_json(process)
        assert bool(report.violations) == (not report.ok)
        codes = {f.code for f in report.violations}
        seen["ok"] += report.ok
        seen["bad-distribution"] += "bad-distribution" in codes
        seen["target-utility"] += any(
            t.utility for a in process.enabled["t"] for t in process.transitions[("t", a)]
        )
        seen["unreachable-target"] += "unreachable-target" in codes
        seen["bad-mec-only"] += codes == {"bad-mec"}
        seen["unreached-trap"] += report.ok and any(
            not co.validate(
                co.CostProcess(process.states, q, "t", process.enabled, process.transitions)
            ).ok
            for q in set(process.states) - process.reachable
        )
    assert min(seen.values()) >= 100, seen


def test_findings_agree_with_the_enumeration_oracle():
    # The stranded set and the maximal end components equal brute force's
    # on invalid processes of every kind.
    rng = Random(52)
    checked = with_mecs = 0
    while checked < 3000:
        process = any_process(rng, max_states=7)
        report = co.validate(process)
        if report.ok:
            continue
        checked += 1
        stranded, mecs = findings_oracle(process)
        named = {f.code: f.subject for f in report.violations if f.code != "bad-mec"}
        found = [f.subject for f in report.violations if f.code == "bad-mec"]
        assert named.get("unreachable-target", ()) == stranded, co.model_to_json(process)
        assert sorted(found) == sorted(mecs), co.model_to_json(process)
        with_mecs += bool(mecs)
    assert with_mecs >= 500, with_mecs


# SHA-256 of the reports below, computed at commit 1e8fc18.
REPORT_DIGEST = "cba6d31d638c0d90c1e670d5761e3485a5c487410fb637451e4996110105087d"


def test_report_order_is_pinned():
    # Every finding, subject and order, byte for byte: 3 000 processes of
    # any kind, then 1 000 larger ones, many with several end components.
    rng = Random(22)
    digest = hashlib.sha256()
    processes = [any_process(rng, max_states=12) for _ in range(3000)]
    processes += [local_process(rng) for _ in range(1000)]
    for process in processes:
        digest.update(repr(co.validate(process).violations).encode())
    assert digest.hexdigest() == REPORT_DIGEST


def test_a_long_peeling_cycle_validates_in_time():
    process = peeling_cycle(10_000)
    start = time.perf_counter()
    report = co.validate(process)
    elapsed = time.perf_counter() - start
    assert report.violations == (
        co.Finding("bad-distribution", ("q0", "b"), "probabilities sum to 1/3, not 1"),
    )
    assert elapsed < 10, f"validation took {elapsed:.1f} s"


def test_build_rejects_bad_probabilities_and_costs():
    with pytest.raises(ModelFormatError):
        co.build_chain([("q0", "t", 1, Fraction(0))], "q0", "t")
    with pytest.raises(ModelFormatError):
        co.build_chain([("q0", "t", 1, Fraction(3, 2))], "q0", "t")
    with pytest.raises(ModelFormatError):
        co.build_chain([("q0", "t", -1, ONE)], "q0", "t")
    with pytest.raises(ModelFormatError):
        co.build_chain([("q0", "t", 1, 0.5)], "q0", "t")


@pytest.mark.parametrize(
    "cost, prob, utility",
    [
        (-1, HALF, 0),
        (True, HALF, 0),
        (1, HALF, -1),
        (1, 0.5, 0),
        (1, Fraction(0), 0),
        (1, Fraction(3, 2), 0),
    ],
)
def test_bad_rows_are_named_in_the_error(cost, prob, utility):
    rows = [("q0", "a", "t", 1, HALF), ("q0", "a", "t", cost, prob, utility)]
    with pytest.raises(ModelFormatError, match=r"\(q0, a\) -> t"):
        co.build_process(rows, "q0", "t")


def test_duplicate_rows_sum_exactly_whatever_the_probability_type():
    class Share(Fraction):
        pass

    process = co.build_process(
        [
            ("q0", "a", "t", 1, Fraction(1, 3)),
            ("q0", "a", "t", 1, Fraction(1, 6)),
            ("q0", "a", "q1", 0, Share(1, 2)),
            ("q1", "a", "t", 0, Fraction(1, 4)),
            ("q1", "a", "t", 0, Share(3, 4)),
        ],
        "q0",
        "t",
    )
    merged = [e.prob for entries in process.transitions.values() for e in entries]
    assert merged == [HALF, HALF, ONE, ONE]
    assert all(type(prob) is Fraction for prob in merged)
    assert co.validate(process).ok


def test_explicit_state_order_must_cover_everything():
    with pytest.raises(ModelFormatError):
        co.build_chain([("q0", "t", 1, ONE)], "q0", "t", states=["q0"])
    with pytest.raises(ModelFormatError, match="state 'u' has no enabled action"):
        co.build_process([("q0", "a", "t", 1, ONE)], "q0", "t", states=["q0", "t", "u"])
    chain = co.build_chain([("q0", "t", 1, ONE)], "q0", "t", states=["t", "q0"])
    assert chain.states == ("t", "q0")


def test_json_round_trip_chain_and_process():
    for model in (two_flip_chain(), choice_example(), geometric_chain()):
        doc = co.model_to_json(model)
        back = co.model_from_json(doc)
        assert co.model_to_json(back) == doc
    # Chains omit the action field, processes carry it.
    assert "action" not in co.model_to_json(two_flip_chain())["transitions"][0]
    assert co.model_to_json(choice_example())["transitions"][0]["action"] == "a"


def test_json_round_trip_random_processes():
    rng = Random(5)
    for _ in range(25):
        process = random_process(rng)
        assert co.model_to_json(co.model_from_json(co.model_to_json(process))) == co.model_to_json(process)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"states": ["q0"], "initial": "q0", "target": "q0"},
        {"states": "q0", "initial": "q0", "target": "q0", "transitions": []},
        {"states": ["q0"], "initial": 0, "target": "q0", "transitions": []},
        {"states": ["q0"], "initial": "q0", "target": "q0", "transitions": {}},
        {"states": ["q0", "t"], "initial": "q0", "target": "t", "transitions": [5]},
        {
            "states": ["q0", "t"],
            "initial": "q0",
            "target": "t",
            "transitions": [{"from": "q0", "to": "t", "cost": "1", "prob": "0.5"}],
        },
        {
            "states": ["q0", "t"],
            "initial": "q0",
            "target": "t",
            "transitions": [{"from": "q0", "to": "t", "cost": "1", "prob": 0.5}],
        },
        {
            "states": ["q0", "t"],
            "initial": "q0",
            "target": "t",
            "transitions": [
                {"from": "q0", "to": "t", "cost": "1", "prob": "1/2", "action": "a"},
                {"from": "q0", "to": "t", "cost": "3", "prob": "1/2"},
            ],
        },
        *(
            {
                "states": ["q0", "t"],
                "initial": "q0",
                "target": "t",
                "transitions": [
                    {"from": "q0", "to": "t", "cost": "0", "prob": "1", **row}
                ],
            }
            for row in (
                {"cost": "1" * 5000},
                {"utility": "1" * 5000},
                {"prob": "1" * 5000 + "/3"},
                {"prob": "1/" + "1" * 5000},
            )
        ),
    ],
)
def test_model_from_json_rejects_malformed_documents(doc, digit_cap):
    with pytest.raises(ModelFormatError):
        co.model_from_json(doc)


def test_probability_strings_are_fractions_only():
    doc = {
        "states": ["q0", "t"],
        "initial": "q0",
        "target": "t",
        "transitions": [{"from": "q0", "to": "t", "cost": 1, "prob": "1/2"},
                        {"from": "q0", "to": "t", "cost": 3, "prob": "1/2"}],
    }
    assert co.model_from_json(doc).transitions[("q0", "a")][0].prob == HALF


@pytest.mark.parametrize(
    "parse, value, message",
    [
        (co.parse_rational, "1/0", "denominator zero"),
        (co.parse_cost, True, "must be an integer"),
        (co.parse_cost, -1, "must be non-negative"),
    ],
)
def test_rational_and_cost_parsers_name_bad_values(parse, value, message):
    with pytest.raises(ModelFormatError, match=message):
        parse(value)


def test_probabilities_past_the_digit_cap_are_written_in_full(digit_cap):
    tiny = Fraction(1, 2**15001)
    text = co.format_rational(tiny)
    chain = co.build_chain([("q0", "t", 0, tiny), ("q0", "t", 1, 1 - tiny)], "q0", "t")
    doc = co.model_to_json(chain)
    sys.set_int_max_str_digits(0)  # to build the expected text; the fixture restores it
    assert text == f"1/{2**15001}"
    assert [row["prob"] for row in doc["transitions"][:2]] == [text, f"{2**15001 - 1}/{2**15001}"]


def test_costs_and_utilities_past_the_digit_cap_are_written_in_full(digit_cap):
    huge = 10**5000
    process = co.build_process([("q0", "a", "t", huge, ONE, huge + 1)], "q0", "t")
    row = co.model_to_json(process)["transitions"][0]
    sys.set_int_max_str_digits(0)  # to build the expected text; the fixture restores it
    assert (row["cost"], row["utility"]) == (str(huge), str(huge + 1))


def test_cost_utility_round_trip_and_validation():
    process = co.build_process([("q0", "a", "t", 2, ONE, 3)], "q0", "t")
    assert co.validate(process).ok
    doc = co.model_to_json(process)
    assert doc["transitions"][0] == {
        "from": "q0", "action": "a", "to": "t", "cost": "2", "utility": "3", "prob": "1"
    }
    back = co.model_from_json(doc)
    assert co.model_to_json(back) == doc
    assert back.transitions[("q0", "a")][0].utility == 3


def test_cost_utility_bad_target_loop():
    process = co.build_process(
        [("q0", "a", "t", 2, ONE, 3), ("t", "a", "t", 0, ONE, 1)], "q0", "t"
    )
    codes = {f.code for f in co.validate(process).violations}
    assert "bad-target-loop" in codes


def test_utility_rows_are_optional_in_json():
    doc = {
        "states": ["q0", "q1", "t"],
        "initial": "q0",
        "target": "t",
        "transitions": [
            {"from": "q0", "action": "a", "to": "q1", "cost": "1", "utility": "2", "prob": "1/2"},
            {"from": "q0", "action": "a", "to": "t", "cost": "0", "prob": "1/2"},
            {"from": "q1", "action": "a", "to": "t", "cost": "0", "utility": 4, "prob": "1"},
            {"from": "t", "action": "a", "to": "t", "cost": "0", "prob": "1"},
        ],
    }
    process = co.model_from_json(doc)
    assert co.validate(process).ok
    assert process.transitions[("q0", "a")] == (
        co.Transition("q1", 1, HALF, 2),
        co.Transition("t", 0, HALF),
    )
    assert process.transitions[("q1", "a")][0].utility == 4
    written = co.model_to_json(process)
    assert all(row["action"] == "a" for row in written["transitions"])
    assert [row["utility"] for row in written["transitions"]] == ["2", "0", "4", "0"]
    assert co.model_to_json(co.model_from_json(written)) == written
    bad = {**doc, "transitions": [{**doc["transitions"][0], "utility": "-1"}]}
    with pytest.raises(ModelFormatError, match="utility"):
        co.model_from_json(bad)


def test_zero_utilities_leave_the_json_unchanged():
    for process in (two_flip_chain(), choice_example()):
        doc = co.model_to_json(process)
        assert not any("utility" in row for row in doc["transitions"])
        lifted = co.build_process(
            [
                (state, action, e.successor, e.cost, e.prob, 0)
                for (state, action), entries in process.transitions.items()
                for e in entries
            ],
            process.initial,
            process.target,
            process.states,
        )
        assert co.model_to_json(lifted) == doc


def test_rows_merge_on_successor_cost_and_utility():
    process = co.build_process(
        [
            ("q0", "a", "t", 1, Fraction(1, 4), 2),
            ("q0", "a", "t", 1, Fraction(1, 4), 2),
            ("q0", "a", "t", 1, HALF, 5),
        ],
        "q0",
        "t",
    )
    assert process.transitions[("q0", "a")] == (
        co.Transition("t", 1, HALF, 2),
        co.Transition("t", 1, HALF, 5),
    )


def test_rows_rebuild_every_process():
    rng = Random(19)
    processes = [random_process(rng) for _ in range(15)]
    processes += [with_utilities(rng, random_process(rng)) for _ in range(15)]
    processes += [mixed_denominator_process(rng) for _ in range(15)]
    # Duplicate rows merge, and an explicit order puts the target first.
    processes.append(
        co.build_process(
            [
                ("q0", "b", "q1", 1, Fraction(1, 4), 2),
                ("q0", "b", "q1", 1, Fraction(1, 4), 2),
                ("q0", "b", "t", 0, HALF),
                ("q0", "a", "t", 3, ONE),
                ("q1", "a", "t", 2, ONE, 1),
            ],
            "q0",
            "t",
            states=["t", "q1", "q0"],
        )
    )
    for process in processes:
        back = co.build_process(_rows(process), process.initial, process.target, process.states)
        assert back.states == process.states
        assert back.enabled == process.enabled
        assert back.transitions == process.transitions
        assert co.model_to_json(back) == co.model_to_json(process)
    assert processes[-1].states == ("t", "q1", "q0")
    assert processes[-1].transitions[("q0", "b")][0] == co.Transition("q1", 1, HALF, 2)


def test_validation_report_formatting():
    report = co.validate(co.build_chain([("q0", "t", 1, HALF)], "q0", "t"))
    assert "bad-distribution" in str(report)
    assert str(co.validate(two_flip_chain())) == "ok"
