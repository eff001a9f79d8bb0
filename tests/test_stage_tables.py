"""The exhaustive suites' meet, join and rank tables against the bare kernels."""

import dataclasses
import itertools

import pytest

import rglat.finite as finite
from rglat.finite import BitSubset, boolean_family, partition_family
from rglat.suites import SuiteConfig, _finite_stage, _tabled, run_suite

STAGES = {"boolean-4": boolean_family, "partition-4": partition_family}


@pytest.fixture
def fresh_stages():
    _finite_stage.cache_clear()
    yield
    _finite_stage.cache_clear()


@pytest.mark.parametrize("name", STAGES)
def test_tables_agree_with_a_fresh_family_on_every_ordered_pair(name):
    make = STAGES[name]
    stage, fresh = _finite_stage(make), make(4)
    tables, kernels = stage.family.lattice, fresh.lattice
    assert stage.elements == tuple(fresh.elements())
    assert stage.family.elements() == stage.elements
    for x, y in itertools.product(stage.elements, repeat=2):
        assert tables.meet(x, y) == kernels.meet(x, y)
        assert tables.join(x, y) == kernels.join(x, y)
        assert tables.leq(x, y) == kernels.leq(x, y)
    for x in stage.elements:
        assert tables.rank(x) == kernels.rank(x)


@pytest.mark.parametrize("name", STAGES)
def test_each_strict_pair_carries_its_interval_in_stage_order(name):
    stage, kernels = _finite_stage(STAGES[name]), STAGES[name](4).lattice
    assert len(stage.between) == len(stage.strict)
    for (w, z), between in zip(stage.strict, stage.between):
        assert between == tuple(x for x in stage.elements if kernels.leq(w, x) and kernels.leq(x, z))


def test_a_kernel_result_outside_the_enumeration_is_an_internal_error():
    family = boolean_family(2)
    stray = dataclasses.replace(family.lattice, meet=lambda x, y: BitSubset(3, 0))
    with pytest.raises(RuntimeError, match="not an element of boolean-2"):
        _tabled(dataclasses.replace(family, lattice=stray))


def test_the_exhaustive_suites_call_each_partition_kernel_once_per_pair(monkeypatch, fresh_stages):
    calls = []

    def counted(kernel):
        def wrapper(x, y):
            calls.append(kernel)
            return kernel(x, y)
        return wrapper

    monkeypatch.setattr(finite, "_partition_meet", counted(finite._partition_meet))
    monkeypatch.setattr(finite, "_partition_join", counted(finite._partition_join))
    for name in ("balance", "diamond", "interval-projection", "metric"):
        assert run_suite(name, SuiteConfig(seed=7)).passed, name
    assert 0 < len(calls) <= 2 * 15 ** 2
