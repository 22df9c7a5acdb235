"""Tests of the benchmark itself: generators, checkers, tracing, names.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import replace
from itertools import islice, product

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from worker import timed_loop  # noqa: E402

from g2cm import oracle  # noqa: E402
from g2cm.errors import NormNotPrimeError, NotPrimitiveError  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _spec():
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------ generators

def _passes(name, seed, n):
    return list(islice(W.WORKLOADS[name].passes(seed), n))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_deterministic_per_seed(name):
    assert _passes(name, 3, 2) == _passes(name, 3, 2)
    assert _passes(name, 3, 2) != _passes(name, 4, 2)


@pytest.mark.parametrize("name,n", [("cm_grid", 3), ("oracle_scan", 6),
                                    ("oracle_large", 6), ("oracle_count", 30)])
def test_passes_hold_fresh_inputs(name, n):
    # verify_lemma2 takes no input; everything else is new in every pass.
    items = [i for ps in _passes(name, 1, n) for i in ps
             if not (isinstance(i, W.CMItem) and i.cmd == "lemma2"
                     or i == W.CMItem("lemma2"))]
    assert len(items) == len(set(items))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _bench()["workloads"]] == list(W.WORKLOADS)


def test_grid_has_documented_size():
    box = W.field_box()
    assert len(box["primitive"]) == 243
    assert sum(1 for _ in W.grid_cases(box["primitive"], 6)) == 5518


def test_rejected_inputs_have_their_class():
    box = W.field_box()
    seen = set()
    items = W._rejected_inputs(random.Random(0), box, 50, seen)
    assert len(set(items)) == 50 and seen == {hash(i) for i in items}
    for item in items:
        cls = W.classify_field(item.D, item.a, item.b)
        if item.code in ("norm-not-prime", "c2-zero"):
            assert cls == "primitive"
        elif item.code == "not-primitive":
            assert cls == "biquadratic"
        else:
            assert cls == item.code


def test_squarefree_count_matches_brute_force():
    p = 3
    every = [t + (lead,) for t in product(range(p), repeat=5)
             for lead in range(1, p)]
    ours = sum(W.squarefree_mod_p(f, p) for f in every)
    theirs = sum(len(oracle.poly_gcd(f, oracle.poly_derivative(f, p), p)) == 1
                 for f in every)
    assert ours == theirs == W.squarefree_quintic_count(p) == 324


def test_generator_never_asks_for_more_curves_than_exist():
    rng = random.Random(0)
    assert len(set(W.random_quintics(3, 324, rng))) == 324
    with pytest.raises(ValueError):
        W.random_quintics(3, 325, rng)


def test_jacobian_order_matches_enumeration():
    for p, n in ((5, 4), (7, 2)):
        for f in W.random_quintics(p, n, random.Random(p)):
            s = oracle.enumerate_jacobian(oracle.GenusTwoCurve(p=p, f=f))
            assert W.jacobian_order(f, p) == s.order


def test_scan_passes_have_fixed_orders():
    for ps in _passes("oracle_scan", 2, 3):
        for p, orders in W.SCAN_ORDERS.items():
            assert sorted(N for q, _, N in ps if q == p) == sorted(orders)
        assert sum(1 for q, _, _ in ps if q == 3) == W.SCAN_P3_PER_PASS


def test_curves_of_an_order_come_back_once_used_up():
    p, N = 3, W.WARMUP_CURVE[2]
    every = W.random_quintics(p, W.squarefree_quintic_count(p),
                              random.Random(0))
    size = sum(W.jacobian_order(f, p) == N for f in every)
    rng, used = random.Random(1), {}
    got = [W._curve_of_order(p, N, rng, used) for _ in range(size + 2)]
    assert len(set(got[:size])) == size
    assert all(W.jacobian_order(f, p) == N for f in got)


def test_change_of_coordinates_keeps_the_group():
    p, f = 7, W.random_quintics(7, 1, random.Random(1))[0]
    g = W.change_coordinates(f, p, 3, 5, 2)
    assert g != f and len(g) == 6
    a = oracle.enumerate_jacobian(oracle.GenusTwoCurve(p=p, f=f))
    b = oracle.enumerate_jacobian(oracle.GenusTwoCurve(p=p, f=g))
    assert a == b


# -------------------------------------------------------------- checkers

def _cm_items():
    return _passes("cm_grid", 1, 1)[0]


def test_cm_checker_rejects_corrupted_results():
    wl = W.WORKLOADS["cm_grid"]
    lib = [i for i in _cm_items() if i.kind == "lib" and not i.code][:2]
    (v, closed, prod, weil), other = wl.run(lib[0]), wl.run(lib[1])
    assert wl.check(lib[0], (v, closed, prod, weil))
    assert not wl.check(lib[0], (replace(v, N=v.N + 4), closed, prod, weil))
    assert not wl.check(lib[0], (v, closed, other[2], weil))  # swapped P(X)
    assert not wl.check(lib[0], (v, other[1], other[2], weil))
    assert not wl.check(lib[0], (replace(v, sylow_order=v.p ** 2, v=2),
                                 closed, prod, weil))
    assert not wl.check(lib[0], NormNotPrimeError("x"))


def test_cm_checker_wants_the_expected_error_code():
    wl = W.WORKLOADS["cm_grid"]
    bad = next(i for i in _cm_items()
               if i.kind == "lib" and i.code == "norm-not-prime")
    with pytest.raises(NormNotPrimeError):
        wl.run(bad)
    assert wl.check(bad, NormNotPrimeError("x"))
    assert not wl.check(bad, NotPrimitiveError("x"))
    assert not wl.check(bad, ValueError("x"))
    good = next(i for i in _cm_items() if i.kind == "lib" and not i.code)
    assert not wl.check(bad, wl.run(good))  # no rejection at all


def test_cli_checker_compares_with_the_library():
    wl = W.WORKLOADS["cm_grid"]
    item = next(i for i in _cm_items() if i.kind == "cli"
                and i.cmd == "analyze" and not i.code and i.c[0] < 0)
    code, text = wl.run(item)
    assert wl.check(item, (code, text))
    env = json.loads(text)
    if env["status"] == "ok":
        env["results"]["N"] = str(int(env["results"]["N"]) + 1)
    else:
        env["error"]["code"] = "norm-not-prime" \
            if env["error"]["code"] != "norm-not-prime" else "c2-zero"
    assert not wl.check(item, (code, json.dumps(env)))
    assert not wl.check(item, (1 if code != 1 else 0, text))
    assert not wl.check(item, (code, "not json"))


def test_lemma2_checker_recomputes_rows():
    wl = W.WORKLOADS["cm_grid"]
    item = W.CMItem("lemma2")
    rep = wl.run(item)
    assert wl.check(item, rep)
    rows = list(rep.rows)
    rows[3] = replace(rows[3], N=rows[3].N + 1)
    assert not wl.check(item, replace(rep, rows=tuple(rows)))


def test_oracle_checker_rejects_corrupted_structure():
    wl = W.WORKLOADS["oracle_scan"]
    item = _passes("oracle_scan", 1, 1)[0][1]
    s, P = wl.run(item)
    assert wl.check(item, (s, P))
    assert not wl.check(item[:2] + (item[2] + 1,), (s, P))
    assert not wl.check(item, (replace(s, order=s.order + 1), P))
    assert not wl.check(item, (replace(s, invariant_factors=(s.order + 1,)), P))
    assert not wl.check(item, (s, replace(P, a3=P.a3 - 1, a1=P.a1 - P.p)))


def test_count_checker_uses_legendre_and_exact_weil():
    wl = W.WORKLOADS["oracle_count"]
    item = (11, W.random_quintics(11, 1, random.Random(2))[0])
    n1, P = wl.run(item)
    assert wl.check(item, (n1, P))
    assert not wl.check(item, (n1 + 1, P))
    p = P.p
    outside = replace(P, a2=P.a3 * P.a3 + 8 * p)  # above a3²/4 + 2p
    assert not wl.check(item, (n1, outside))


def test_weil_exact_on_squared_integers():
    p = 7
    # (X² + 7)² has the repeated roots ±i√7: still a Weil polynomial.
    assert W.weil_exact(p, (49, 0, 2 * p, 0, 1))
    assert W.weil_exact(p, (49, -p * 4, 2 * p + 4, -4, 1))
    assert not W.weil_exact(p, (49, -p * 11, 40, -11, 1))  # |a3| > 4√p
    assert not W.weil_exact(p, (48, 0, 2 * p, 0, 1))


# --------------------------------------------------------------- tracing

def test_traced_loop_partitions_item_time_and_restores():
    wl = W.WORKLOADS["oracle_scan"]
    items = _passes("oracle_scan", 1, 1)[0][:3]
    original = oracle.enumerate_jacobian
    rec = spans.Recorder()
    rec.install()
    try:
        assert oracle.enumerate_jacobian is not original
        out = timed_loop(wl, iter([items]), 0, 1, rec, n_passes=1)
    finally:
        rec.restore()
    assert oracle.enumerate_jacobian is original
    assert out["failed"] == 0
    layers = rec.layer_metrics()
    assert layers["oracle.enumerate_jacobian.calls"] == 1
    assert layers["oracle.count_points.k2.calls"] == 1
    assert layers["oracle.cantor_add.us"] > 0
    total_self = sum(st[2] for st in rec.stats.values())
    assert total_self == rec.stats["item"][1]
    ids = {s[0] for s in rec.spans}
    assert all(s[1] is None or s[1] in ids for s in rec.spans)


def test_traced_cli_and_rejections_are_counted():
    wl = W.WORKLOADS["cm_grid"]
    items = _cm_items()
    sample = [i for i in items if i.kind == "cli"][:3] + \
        [i for i in items if i.kind == "lib" and i.code][:3]
    rec = spans.Recorder()
    rec.install()
    try:
        out = timed_loop(wl, iter([sample]), 0, 1, rec, n_passes=1)
    finally:
        rec.restore()
    assert out["failed"] == 0
    layers = rec.layer_metrics()
    assert layers["cli.main.calls"] == 0.5
    assert layers["cli.json_bytes"] > 0
    assert layers["cm_field.validate_field.calls"] >= 0.5
    rejected = sum(layers[f"{n}.rejected"] for n in spans.REJECTING)
    assert rejected >= 0.5


@pytest.mark.parametrize("cmd", W.CLI_COMMANDS + ("lemma2",))
def test_traced_cli_item_records_only_the_program(cmd):
    # The checks compare the CLI with direct library calls; those calls
    # must not be recorded under the item.
    wl = W.WORKLOADS["cm_grid"]
    lib = next(i for i in _cm_items() if i.kind == "lib" and not i.code)
    item = W.CMItem("cli", "lemma2") if cmd == "lemma2" else \
        replace(lib, kind="cli", cmd=cmd)
    rec = spans.Recorder()
    rec.install()
    try:
        out = timed_loop(wl, iter([[item]]), 0, 1, rec, n_passes=1)
    finally:
        rec.restore()
    assert out["failed"] == 0
    by_id = {s[0]: s for s in rec.spans}
    names = [s[2] for s in rec.spans]
    assert names.count("item") == 1 and names.count("cli.main") == 1
    main = next(s for s in rec.spans if s[2] == "cli.main")
    assert by_id[main[1]][2] == "item"
    for s in rec.spans:
        if s[2] not in ("item", "cli.main"):
            while s[2] not in ("cli.main", "item"):
                s = by_id[s[1]]
            assert s[2] == "cli.main"
    if cmd == "lemma2":
        assert rec.stats["sylow.verify_lemma2"][0] == 1
    else:
        assert rec.stats["cm_field.validate_field"][0] == 1


# ----------------------------------------------------------------- names

def test_seconds_must_be_the_benchmark_run_seconds(capsys):
    seconds = _bench()["run_seconds"]
    assert run.main(["--workload", "cm_grid", "--seconds",
                     str(seconds + 1)]) == 2
    assert "--seconds must be" in capsys.readouterr().err


def test_metric_names_are_valid_and_unique():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_traced_metrics_are_exactly_per_layer():
    per_layer = {m["name"] for m in _bench()["per_layer"]}
    printed = set(spans.Recorder().layer_metrics()) | {
        "trace.items_per_s", "trace.untraced_items_per_s",
        "trace.overhead_items_per_s"}
    assert printed == per_layer


def test_predictions_name_existing_metrics():
    bench = _bench()
    spec = _spec()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for pred in spec["predictions"]:
        for pattern in pred["layers"]:
            prefix = pattern.rstrip("*")
            assert any(n == pattern or (pattern.endswith("*")
                                        and n.startswith(prefix))
                       for n in names), pattern
        for metric, workload in pred["moves"]:
            assert metric in e2e and workload in workloads
    for rule in spec["should_not_move"]:
        assert set(rule["workloads"]) <= workloads
    assert set(spec["workloads"]) == workloads
