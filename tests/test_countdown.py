"""Countdown games: the brute-force win set against the process encoding."""

import time
from fractions import Fraction
from random import Random

import pytest

import costodds as co
from costodds import GuardExceededError, ModelFormatError, PreconditionError
from costodds.gadgets import (
    countdown_brute,
    countdown_from_json,
    countdown_to_json,
    countdown_to_process,
    make_countdown,
)
from helpers import random_countdown


def gadget_verdict(game) -> bool:
    process, total = countdown_to_process(game)
    return co.decide_qualitative(process, total)[0]


def test_single_state_walks():
    ticks = make_countdown(["s"], "s", 3, [("s", 1, "s")])
    assert countdown_brute(ticks) is True
    assert gadget_verdict(ticks) is True
    evens = make_countdown(["s"], "s", 3, [("s", 2, "s")])
    assert countdown_brute(evens) is False
    assert gadget_verdict(evens) is False


def test_opponent_can_strand_the_play():
    # hitting 2 needs two announcements, but the second player may park
    # the token on a move-less state after the first one
    game = make_countdown(
        ["s0", "s1"], "s0", 2, [("s0", 1, "s0"), ("s0", 1, "s1")]
    )
    assert countdown_brute(game) is False
    assert gadget_verdict(game) is False


def test_win_despite_opponent_branching():
    game = make_countdown(
        ["s0", "s1", "s2"],
        "s0",
        4,
        [("s0", 1, "s1"), ("s0", 1, "s2"), ("s1", 1, "s1"), ("s2", 3, "s2")],
    )
    assert countdown_brute(game) is True
    assert gadget_verdict(game) is True


def test_process_shape():
    game = make_countdown(["u", "v"], "u", 5, [("u", 2, "v"), ("u", 2, "u"), ("v", 1, "u")])
    process, total = countdown_to_process(game)
    assert total == 5
    assert co.validate(process).ok
    assert process.target == "t"
    counter = [s for s in process.states if s.startswith("bit")]
    assert counter == ["bit0", "bit1", "bit2"]
    for state in ("u", "v"):
        assert "stop" in process.enabled[state]
        stop = process.transitions[(state, "stop")]
        assert [(row.successor, row.cost, row.prob) for row in stop] == [("t", 0, Fraction(1))]
    rows = process.transitions[("u", "2")]
    assert [(row.successor, row.cost) for row in rows] == [("v", 2), ("u", 2), ("bit0", 2)]
    assert {row.prob for row in rows} == {Fraction(1, 3)}
    assert [(r.successor, r.cost) for r in process.transitions[("bit1", "a1")]] == [("bit2", 2)]
    assert [(r.successor, r.cost) for r in process.transitions[("bit2", "a0")]] == [("t", 0)]


def test_large_games_encode_in_linear_time():
    # 8 000 states with two moves each: grouping the steps by source in
    # one pass takes well under a second, where a scan of every move per
    # state took about 6 s on a 2-core host.
    n = 8000
    states = [f"s{i}" for i in range(n)]
    moves = [(f"s{i}", 1 + i % 3, f"s{(i + 1) % n}") for i in range(n)]
    moves += [(f"s{i}", 2 + i % 5, f"s{i * 7 % n}") for i in range(n)]
    game = make_countdown(states, "s0", 50, moves)
    start = time.perf_counter()
    process, _ = countdown_to_process(game)
    assert time.perf_counter() - start < 2.0
    for i in (0, 4, 7999):
        steps = sorted({1 + i % 3, 2 + i % 5})
        assert process.enabled[f"s{i}"] == ("stop", *map(str, steps))


def test_reserved_names_are_escaped():
    game = make_countdown(["t", "bit0"], "t", 2, [("t", 1, "bit0")])
    process, _ = countdown_to_process(game)
    assert process.target == "#t"
    assert "#bit0" in process.states
    # the stranded token sits one short of the total
    assert countdown_brute(game) is False
    assert gadget_verdict(game) is False
    winnable = make_countdown(["t", "bit0"], "t", 2, [("t", 1, "t")])
    assert countdown_brute(winnable) is True
    assert gadget_verdict(winnable) is True


def test_random_games_agree_with_the_encoding():
    rng = Random(11)
    for _ in range(60):
        game = random_countdown(rng)
        assert gadget_verdict(game) is countdown_brute(game)


def test_duplicate_moves_collapse():
    game = make_countdown(["s"], "s", 2, [("s", 1, "s"), ("s", 1, "s")])
    assert game.moves == {("s", 1): ("s",)}


@pytest.mark.parametrize(
    "states, initial, final, moves",
    [
        (["s"], "q", 1, []),
        (["s"], "s", 0, []),
        (["s"], "s", -3, []),
        (["s"], "s", True, []),
        (["s"], "s", "5", []),
        (["s"], "s", 1, [("s", 1, "gone")]),
        (["s"], "s", 1, [("gone", 1, "s")]),
        (["s"], "s", 1, [("s", 0, "s")]),
        (["s"], "s", 1, [("s", -1, "s")]),
        (["s"], "s", 1, [("s", True, "s")]),
    ],
)
def test_make_countdown_rejects_bad_input(states, initial, final, moves):
    with pytest.raises(PreconditionError):
        make_countdown(states, initial, final, moves)


def test_moves_past_the_digit_cap_name_their_actions(digit_cap):
    huge = 10**5000
    process, _ = countdown_to_process(make_countdown(["s"], "s", 3, [("s", huge, "s")]))
    assert process.enabled["s"] == ("stop", "1" + "0" * 5000)


def test_brute_force_guard():
    huge = make_countdown(["s"], "s", 10**4 + 1, [("s", 1, "s")])
    with pytest.raises(GuardExceededError, match="capped"):
        countdown_brute(huge)


def test_json_round_trip():
    game = make_countdown(
        ["a", "b"], "a", 6, [("a", 2, "b"), ("b", 1, "a"), ("b", 3, "b")]
    )
    clone = countdown_from_json(countdown_to_json(game))
    assert clone.states == game.states
    assert clone.initial == game.initial
    assert clone.final == game.final
    assert clone.moves == game.moves


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"states": "ab", "initial": "a", "final": 1},
        {"states": ["a"], "initial": 7, "final": 1},
        {"states": ["a"], "initial": "a", "final": True},
        {"states": ["a"], "initial": "a", "final": 1, "moves": {}},
        {"states": ["a"], "initial": "a", "final": 1, "moves": ["x"]},
        {"states": ["a"], "initial": "a", "final": 1, "moves": [{"from": "a", "k": 1, "to": 9}]},
        {"states": ["a"], "initial": "a", "final": 1, "moves": [{"from": "a", "k": True, "to": "a"}]},
        {"states": ["a"], "initial": "a", "final": 1, "moves": [{"from": "a", "k": 1, "to": "zz"}]},
    ],
)
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(ModelFormatError):
        countdown_from_json(doc)
