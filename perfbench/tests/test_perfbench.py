"""The benchmark's own checks: ``python3 -m pytest perfbench/tests``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.proctree import descendants, tree_cpu_seconds
from perfbench.stats import percentile
from perfbench.verify import Served, digest_new, verify
from perfbench.workloads import WORKLOADS, stream_config

SPEC = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_state(tmp_path, monkeypatch):
    """Runs here keep their journals, traces and counter book to themselves."""
    monkeypatch.setattr(bench, "WORKDIR", tmp_path / "run")
    monkeypatch.setattr(bench, "STATE", tmp_path / "counters.json")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload, capsys):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"]
    assert bench.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_run_prints_every_per_layer_metric(capsys):
    args = ["--workload", "fleet_fanout", "--seed", "3", "--seconds", "1", "--trace", "1",
            "--smoke"]
    assert bench.main(args) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["counters.mismatch"]["value"] == 0
    assert descendants(os.getpid()) == [os.getpid()]  # no process left behind


def test_stolen_results_are_made_again_until_enough_are_clean():
    steals = iter([0.5, 0.0, 0.3, 0.01])
    kept, made = bench.collect(lambda: next(steals), 2, lambda s: s, redo_share=float("inf"))
    assert kept == [0.0, 0.01] and made == [0.5, 0.0, 0.3, 0.01]


def test_out_of_redo_time_the_least_stolen_results_stand_in():
    steals = iter([0.5, 0.3, 0.0])
    kept, made = bench.collect(lambda: next(steals), 2, lambda s: s, redo_share=-1.0)
    assert kept == [0.3, 0.5] and made == [0.5, 0.3]


def test_workloads_match_the_spec():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def _served(stream, lengths):
    rng, items, offset = stream.make_rng(), [], 0
    for lease_id, n in enumerate(lengths):
        h = digest_new()
        h.update(rng.read(n))
        items.append(Served(lease_id, offset, n, h.digest()))
        offset += n
    return items


def test_verifier_accepts_true_bytes_and_catches_one_flipped_byte():
    stream = stream_config(7)
    lengths = [4096, 8192, 4096]
    assert not verify(_served(stream, lengths), stream).failed_ids
    body = bytearray(stream.make_rng().read(sum(lengths))[4096:4096 + 8192])
    body[5000] ^= 0x01
    h = digest_new()
    h.update(bytes(body))
    planted = _served(stream, lengths)
    planted[1] = Served(1, 4096, 8192, h.digest())
    verdict = verify(planted, stream)
    assert verdict.mismatched == [1] and verdict.overlapping == []


def test_verifier_flags_overlapping_leases():
    stream = stream_config(7)
    items = _served(stream, [4096, 4096])
    h = digest_new()
    h.update(stream.make_rng().read(6144)[2048:])
    items.append(Served(2, 2048, 4096, h.digest()))  # true bytes, reissued range
    verdict = verify(items, stream)
    # each lease that starts inside an earlier-starting one is flagged
    assert sorted(verdict.overlapping) == [1, 2] and verdict.mismatched == []


def test_cpu_accounting_includes_a_reaped_child():
    script = textwrap.dedent("""
        import os, sys, time
        pid = os.fork()
        if pid == 0:
            t = time.process_time()
            while time.process_time() - t < 0.4:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
        print("reaped", flush=True)
        sys.stdin.read()
    """)
    proc = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().strip() == "reaped"
        assert tree_cpu_seconds(proc.pid) >= 0.35
    finally:
        proc.stdin.close()
        proc.wait(timeout=30)
        proc.stdout.close()


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 90.0)
    assert percentile([float(i) for i in range(100)], 90.0) == 89.0
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(999)], 99.0)
    assert percentile([float(i) for i in range(1000)], 99.0) == 989.0
