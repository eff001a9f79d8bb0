"""Suites pooled on forked workers, against the plain in-process loop; and what a run leaves behind."""

import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import rglat.suites as suites
from rglat.cli import main
from rglat.suites import SUITES, SuiteConfig, run_suite, run_suites

SRC = Path(__file__).parents[1] / "src"

forks = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")


@pytest.fixture
def pools(monkeypatch):
    """Two usable CPUs, whatever the host has; the worker count of each pool built is recorded."""
    built = []
    real = concurrent.futures.ProcessPoolExecutor

    def pool(workers, **kwargs):
        built.append(workers)
        return real(workers, **kwargs)

    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return built


def refuse_pools(monkeypatch) -> None:
    def pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


def in_process(names, cfg):
    """The oracle: one ``run_suite`` call after another, in this process."""
    return [run_suite(name, cfg) for name in names]


CONFIGS = {
    "seed7-samples5": SuiteConfig(seed=7, samples=5),
    "seed2026-samples5": SuiteConfig(seed=2026, samples=5),
    "seed7-grid1/16": SuiteConfig(seed=7, grid=Fraction(1, 16)),
    "seed2026-grid1/16": SuiteConfig(seed=2026, grid=Fraction(1, 16)),
}


@forks
@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS)
def test_pooled_suites_equal_the_in_process_loop(pools, cfg):
    names = list(SUITES)
    results, timings = run_suites(names, cfg)
    assert pools == [2]
    assert results == in_process(names, cfg)
    assert list(timings) == names


@forks
def test_a_failing_suite_sends_its_witness_and_replay_back_from_a_worker(pools, monkeypatch, capsys):
    def failing(cfg, rng):
        yield None
        yield f"drew {rng.randrange(10**6)} in process {os.getpid()}"

    monkeypatch.setitem(SUITES, "diamond", (failing, "never reported"))
    assert main(["verify", "--suite", "all", "--seed", "2026", "--samples", "5"]) == 1
    assert pools == [2]
    lines = capsys.readouterr().out.splitlines()
    [fail] = [line for line in lines if line.startswith("FAIL ")]
    witness = run_suite("diamond", SuiteConfig(seed=2026, samples=5)).witness
    assert fail.startswith(f"FAIL diamond checked=1 failed witness: {witness.rsplit(' ', 1)[0]} ")
    assert int(fail.rsplit(" ", 1)[1]) != os.getpid()
    assert lines[lines.index(fail) + 1] == "replay: rglat verify --suite diamond --seed 2026 --grid 1/64 --samples 5"
    assert [line.split()[1] for line in lines if line.startswith(("PASS ", "FAIL "))] == list(SUITES)


@forks
def test_a_pooled_verify_leaves_no_process_or_thread_behind(pools, capsys):
    threads = threading.active_count()
    assert main(["verify", "--suite", "all", "--samples", "5"]) == 0
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@forks
def test_a_dead_worker_fails_verify_instead_of_hanging():
    script = "\n".join([
        "import os",
        "import rglat.suites as suites",
        "from rglat.cli import main",
        "def dying(cfg, rng):",
        "    os._exit(3)",
        "    yield",
        "suites._usable_cpus = lambda: 2",
        "suites.SUITES['balance'] = (dying, 'never reported')",
        "raise SystemExit(main(['verify', '--suite', 'all', '--samples', '5']))",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "BrokenProcessPool" in done.stderr
    assert "PASS" not in done.stdout


def test_a_single_suite_starts_no_process(monkeypatch, capsys):
    refuse_pools(monkeypatch)
    assert main(["verify", "--suite", "balance"]) == 0
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("host", ["one-cpu", "no-fork"])
def test_a_host_that_cannot_pool_runs_the_suites_in_process(monkeypatch, host):
    refuse_pools(monkeypatch)
    if host == "one-cpu":
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    else:
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    names, cfg = ["tower", "finite-counts"], SuiteConfig()
    results, timings = run_suites(names, cfg)
    assert results == in_process(names, cfg)
    assert list(timings) == names


def test_a_process_running_another_thread_does_not_fork(monkeypatch):
    refuse_pools(monkeypatch)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results, _ = run_suites(["tower", "finite-counts"], SuiteConfig())
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert results == in_process(["tower", "finite-counts"], SuiteConfig())
