"""Deterministic case sampling and the VerifyCase model."""

import dataclasses
import json
import random

import pytest

from repro.verify.generator import (
    LAYOUT_KINDS,
    NEIGHBOR_AXES,
    PRIORITY_CHOICES,
    TREES,
    VerifyCase,
    generate_cases,
    propose_neighbor,
    sample_case,
)


def test_generation_is_deterministic():
    assert list(generate_cases(7, 40)) == list(generate_cases(7, 40))


def test_sample_case_independent_of_stream_position():
    # case index k is a pure function of (seed, k), not of iteration state
    stream = list(generate_cases(3, 10))
    assert stream[6] == sample_case(3, 6)


def test_streams_differ_by_seed():
    assert list(generate_cases(0, 20)) != list(generate_cases(1, 20))


def test_sampled_fields_in_range_and_constructible():
    for case in generate_cases(2, 80):
        assert 2 <= case.m <= 18
        assert 1 <= case.n <= 8
        assert case.b in (8, 16, 40)
        assert 1 <= case.a <= 5
        assert case.low_tree in TREES and case.high_tree in TREES
        assert case.layout_kind in LAYOUT_KINDS
        assert case.priority in PRIORITY_CHOICES
        if case.layout_kind == "grid":
            assert case.nodes == case.p * case.q
        if case.layout_kind == "single":
            assert case.nodes == 1
        if case.site_size:
            assert case.nodes >= 2 * case.site_size
        assert case.layout().nodes == case.nodes
        assert case.machine().nodes == case.nodes
        case.config()  # must not raise
        assert str(case.index) in case.describe()


def test_dict_round_trip_through_strict_json():
    # strict JSON (the report format) has no Infinity literal; the round
    # trip must survive it for the infinite-bandwidth machines
    cases = list(generate_cases(5, 80))
    assert any(c.bandwidth == float("inf") for c in cases)
    for case in cases:
        payload = json.loads(json.dumps(case.to_dict()))
        assert VerifyCase.from_dict(payload) == case


def test_to_dict_is_asdict_with_the_inf_rule():
    """The shallow field copy is what ``dataclasses.asdict`` gives, key
    order included, with an infinite bandwidth spelled ``"inf"``."""
    cases = list(generate_cases(5, 80))
    assert any(c.bandwidth == float("inf") for c in cases)
    assert any(c.priority is None for c in cases)
    for case in cases:
        want = dataclasses.asdict(case)
        if want["bandwidth"] == float("inf"):
            want["bandwidth"] = "inf"
        got = case.to_dict()
        assert got == want and list(got) == list(want)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_replaced_keeps_machine_consistent():
    base = sample_case(0, 0)
    case = dataclasses.replace(
        base, layout_kind="grid", p=2, q=2, nodes=4, site_size=2
    )
    shrunk = case.replaced(p=1)
    assert shrunk.p == 1
    assert shrunk.nodes == shrunk.p * shrunk.q == 2
    # a 2-node machine cannot host two sites of 2: hierarchy dropped
    assert shrunk.site_size == 0

    single = dataclasses.replace(base, layout_kind="single", nodes=1)
    assert single.replaced(m=2).nodes == 1


# ----------------------------------------------- neighborhood moves


def _count_diffs(a: VerifyCase, b: VerifyCase) -> dict:
    return {
        f.name: (getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(VerifyCase)
        if getattr(a, f.name) != getattr(b, f.name)
    }


def test_propose_neighbor_is_deterministic():
    case = sample_case(0, 3)
    a = [propose_neighbor(case, random.Random(9)) for _ in range(30)]
    b = [propose_neighbor(case, random.Random(9)) for _ in range(30)]
    # NB: one shared rng per stream — state advances across calls
    rng1, rng2 = random.Random(9), random.Random(9)
    chain1 = [propose_neighbor(case, rng1) for _ in range(30)]
    chain2 = [propose_neighbor(case, rng2) for _ in range(30)]
    assert a == b
    assert chain1 == chain2


def test_propose_neighbor_moves_exactly_one_axis():
    rng = random.Random(1)
    single_field = {
        "low_tree": {"low_tree"},
        "high_tree": {"high_tree"},
        "domino": {"domino"},
        "a": {"a"},
        "grid": {"p", "q"},
        "layout": {"layout_kind"},
    }
    for axis in NEIGHBOR_AXES:
        for trial in range(40):
            case = sample_case(2, trial)
            moved = propose_neighbor(case, rng, axis, fixed_machine=True)
            diffs = _count_diffs(case, moved)
            assert set(diffs) <= single_field[axis], (axis, diffs)
            if axis == "grid":
                # one dimension per move, never both
                assert len(diffs) <= 1


def test_propose_neighbor_fixed_machine_pins_the_platform():
    rng = random.Random(4)
    machine_fields = (
        "nodes", "cores_per_node", "latency", "bandwidth",
        "comm_serialized", "site_size",
    )
    for trial in range(80):
        case = sample_case(3, trial)
        moved = propose_neighbor(case, rng, fixed_machine=True)
        for name in machine_fields:
            assert getattr(moved, name) == getattr(case, name)
        # grid moves must keep fitting on the pinned machine
        if moved.layout_kind == "grid" and case.layout_kind == "grid":
            assert moved.p * moved.q <= max(case.nodes, case.p * case.q)
        # a populated cluster is never proposed the single-node layout
        if case.nodes > 1 and case.layout_kind != "single":
            assert moved.layout_kind != "single"


def test_propose_neighbor_verify_semantics_follow_the_machine():
    base = sample_case(0, 0)
    case = dataclasses.replace(
        base, layout_kind="grid", p=2, q=2, nodes=4, site_size=0
    )
    rng = random.Random(7)
    grown = [
        propose_neighbor(case, rng, "grid") for _ in range(20)
    ]
    assert all(g.nodes == g.p * g.q for g in grown)


def test_propose_neighbor_respects_max_a():
    rng = random.Random(5)
    case = dataclasses.replace(sample_case(1, 1), a=3)
    for _ in range(40):
        moved = propose_neighbor(case, rng, "a", max_a=3)
        assert 1 <= moved.a <= 3
        case = moved


def test_propose_neighbor_trees_move_to_a_different_kind():
    rng = random.Random(6)
    case = sample_case(4, 2)
    for axis in ("low_tree", "high_tree"):
        for _ in range(20):
            moved = propose_neighbor(case, rng, axis)
            assert getattr(moved, axis) != getattr(case, axis)
            assert getattr(moved, axis) in TREES


def test_propose_neighbor_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown neighbor axis"):
        propose_neighbor(sample_case(0, 0), random.Random(0), "priority")


def test_proposed_neighbors_stay_legal():
    # every proposal must survive the same construction paths the
    # sampled cases do: config(), layout(), machine(), describe()
    rng = random.Random(8)
    case = sample_case(0, 5)
    for _ in range(200):
        case = propose_neighbor(case, rng, fixed_machine=True)
        case.config()
        case.layout()
        case.machine()
        assert case.a >= 1 and case.p >= 1 and case.q >= 1


def test_a_fixed_machine_neighbor_is_the_replaced_case():
    """The tuner's neighbour is built without ``dataclasses.replace``; it
    must be that copy in every way a caller sees: ``==``, ``hash``, the
    field values and their types, ``to_dict()`` and ``describe()``."""
    rng = random.Random(11)
    moves = 0
    for axis in NEIGHBOR_AXES:
        for trial in range(400):
            case = sample_case(6, trial)
            if trial % 4 == 1:  # on the bounds the steps reflect from
                case = dataclasses.replace(case, a=1, p=1, q=1)
            elif trial % 4 == 2:
                case = dataclasses.replace(case, a=case.m, p=case.m, q=case.m)
            max_a = case.m if trial % 3 else max(1, case.a)
            moved = propose_neighbor(
                case, rng, axis, fixed_machine=True, max_a=max_a
            )
            changes = {
                name: value for name, value in moved.__dict__.items()
                if value != getattr(case, name)
            }
            want = dataclasses.replace(case, **changes)
            assert type(moved) is VerifyCase
            assert moved == want and hash(moved) == hash(want)
            assert [
                (type(v), v) for v in moved.__dict__.values()
            ] == [(type(v), v) for v in want.__dict__.values()]
            assert moved.to_dict() == want.to_dict()
            assert moved.describe() == want.describe()
            moves += bool(changes)
    assert moves >= 2000
