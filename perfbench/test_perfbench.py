"""Tests of the benchmark itself: gates count failures without aborting,
traced counts repeat exactly for a fixed seed, and host-speed sampling
leaves no timer behind.

Run from the repository root: python3 -m pytest perfbench -q
"""

from dataclasses import dataclass
from pathlib import Path

import signal
import time

import pytest

import run
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def traced_counts(wl) -> dict:
    tracer = spans.Tracer()
    tracer.install(wl.mods)
    try:
        res = wl.run_unit()
    finally:
        tracer.uninstall()
    assert res.failed == 0
    metrics = spans.layer_metrics(spans.aggregate(tracer, 0, len(tracer)))
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


@dataclass
class _Entry:
    blocks: tuple
    status: str
    orderings_found: int

    @property
    def design(self):
        return self


def _reference_entries(name):
    entries = [_Entry(b, "exhausted", c) for b, c in workloads.EXHAUSTED_REFERENCE[name].items()]
    while len(entries) < workloads.CLASS_COUNT[name]:
        entries.append(_Entry(((len(entries),),), "budget", 0))
    return entries


@pytest.mark.parametrize("name", sorted(workloads.AUDITS))
def test_audit_gate_counts_each_mismatch(name):
    entries = _reference_entries(name)
    assert workloads.audit_gate(name, entries) == (workloads.CLASS_COUNT[name], 0)

    entries[0].orderings_found += 1  # wrong count
    entries[1].status = "budget"  # lost its proof
    assert workloads.audit_gate(name, entries) == (workloads.CLASS_COUNT[name], 2)
    # dropped, the two classes still fail as missing, and the class count fails
    assert workloads.audit_gate(name, entries[2:]) == (workloads.CLASS_COUNT[name], 3)


def test_catalog_gate_counts_a_wrong_verdict():
    wl = workloads.load("catalog", 1, SRC)
    cat = wl.mods["catalog"]
    real = cat.verify

    def falsify_one(r, lk=True):
        rep = real(r, lk=lk)
        if r.label == "n6/1":
            return type(rep)(**{**rep.__dict__, "braid_equal": False})
        return rep

    cat.verify = falsify_one
    try:
        res = wl.run_unit()
    finally:
        cat.verify = real
    assert (res.attempted, res.failed, len(res.verdict_s)) == (50, 1, 50)


def test_catalog_counts_repeat():
    wl = workloads.load("catalog", 3, SRC)
    first = traced_counts(wl)
    assert first["braid.lk_equal.calls"] == 50
    assert first["braid.nf_mul.calls"] == 0
    assert traced_counts(wl) == first
    assert traced_counts(workloads.load("catalog", 3, SRC)) == first


def test_audit_n6_counts_repeat():
    wl = workloads.load("audit-n6", 5, SRC)
    first = traced_counts(wl)
    assert first["braid.nf_mul.calls"] == 146_856
    searches = (
        first["designs.search_orderings.exhausted.calls"]
        + first["designs.search_orderings.budget.calls"]
    )
    assert searches == 7
    assert traced_counts(wl) == first


def test_sampler_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)

    def busy(clock):
        t0 = clock()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return clock() - t0

    work, wall, speed, factor = run.sampled(busy)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed > 0
    # the work clock leaves out the sampling, which the factor also removes
    assert 0 < work < wall
    assert work * speed == pytest.approx(wall * factor, rel=0.01)


def test_rescale_takes_times_to_reference_speed():
    layer = {"a.calls": (7, "count"), "a.self_s": (2.0, "s"), "a.us": (4.0, "us"), "a.rate": (10.0, "1/s")}
    assert run.rescale(layer, 0.5) == {
        "a.calls": (7, "count"), "a.self_s": (1.0, "s"), "a.us": (2.0, "us"), "a.rate": (20.0, "1/s"),
    }
