"""Self-tests of the benchmark: checkers, tracer hygiene and declarations."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import qdiscord
import workloads
from tracer import Tracer, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload):
    op = workload.round_ops()[0]
    return op, op.run()


def qdiscord_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "qdiscord" or name.startswith("qdiscord.")
        for attr, value in vars(module).items()
    }


# ---------------------------------------------------------------------------
# Each checker counts a corrupted output as failed
# ---------------------------------------------------------------------------


def test_fig1_checker_counts_corruption(tmp_path):
    w = workloads.Fig1Scan(5, tmp_path, samples=40, rebuilt=120)
    op, rows = run_once(w)
    assert w.check(op, rows) == 0
    below = [(rows[0][0], rows[0][1], -1.0, rows[0][3])] + rows[1:]
    assert w.check(op, below) == 1
    assert w.check(op, rows[:-2]) == 2
    lines = w.csv_path.read_text().splitlines()
    s1, seed, q, u = lines[7].split(",")
    lines[7] = ",".join((s1, seed, repr(float(q) + 1e-9), u))
    w.csv_path.write_text("\n".join(lines) + "\n")
    assert w.check(op, rows) == 1


def test_qutrit_checker_counts_corruption(tmp_path):
    w = workloads.QutritDiscord(5, tmp_path, samples=30)
    ops = w.round_ops()
    outputs = [op.run() for op in ops]
    assert [w.check(op, out) for op, out in zip(ops, outputs)] == [0] * len(ops)
    code, text = outputs[-1]
    assert code == 0
    u_min = text.split("U min = ")[1].split()[0]
    shifted = text.replace(f"U min = {u_min}", f"U min = {float(u_min) + 1e-6:.12g}")
    assert w.check(ops[-1], (0, shifted)) == 1
    assert w.check(ops[-1], (2, text)) == 1
    assert w.check(ops[-1], (0, "")) == 1


def test_lossy_checker_counts_corruption(tmp_path):
    w = workloads.LossySweep(5, tmp_path, ladder=(2, 10), fig4_points=11)
    op, (fig4, qfi) = run_once(w)
    assert w.check(op, (fig4, qfi)) == 0
    # Criterion 8 misses at (N, t2) = (8..10, 0.1) are within the oracle's
    # precision floor: reported, not failed.
    assert [(n, t2) for n, t2, _ in w.notes["criterion8_misses"]] == [(8, 0.1), (9, 0.1), (10, 0.1)]
    n, result = fig4[0]
    t2, f, dg, neg = result.rows[4]
    result.rows[4] = (t2, f, dg, neg + 1e-9)
    assert w.check(op, (fig4, qfi)) == 1
    assert w.check(op, (fig4, qfi[:-1])) == 2
    result.rows[4] = (t2, f, dg, neg)
    k = next(i for i, row in enumerate(qfi) if row[:2] == (10, 0.1))
    row = list(qfi[k])
    row[4] = row[3] + 2 * workloads.ORACLE_FLOOR
    assert w.check(op, (fig4, qfi[:k] + [tuple(row)] + qfi[k + 1:])) == 1


def test_region_checker_counts_corruption(tmp_path):
    w = workloads.RegionMap(5, tmp_path, recomputed=20100)
    ops = w.round_ops()
    outputs = [op.run() for op in ops]
    assert [w.check(op, rows) for op, rows in zip(ops, outputs)] == [0, 0]
    rows = outputs[1]
    assert w.check(ops[1], [r if r[2] != "102" else (r[0], r[1], "120") for r in rows]) == len(rows)
    path = w._csv(1)
    lines = path.read_text().splitlines()
    s1, s2, label = lines[100].split(",")
    lines[100] = ",".join((s1, s2, "021" if label != "021" else "012"))
    path.write_text("\n".join(lines) + "\n")
    assert w.check(ops[1], rows) == 1


def test_region_reference_matches_library_ties(tmp_path):
    w = workloads.RegionMap(5, tmp_path, resolution=41)
    idx = list(range(len(w.cells)))
    for spectrum in w.SPECTRA:
        ref = w.reference_labels(spectrum, idx)
        lib = [row[2] for row in qdiscord.experiments.run_fig2(qdiscord.experiments.Fig2Config(spectrum, 41))]
        assert ref == lib


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_traced_round_restores_every_attribute(tmp_path):
    before = qdiscord_attributes()
    w = workloads.QutritDiscord(5, tmp_path, samples=10)
    tracer = Tracer()
    tracer.install(0)
    replaced = [key for key, value in qdiscord_attributes().items() if value is not before[key]]
    tracer.uninstall()
    # psd_sqrt is bound in linalg, discord and metrology (and re-exported).
    assert {("qdiscord.linalg", "psd_sqrt"), ("qdiscord.discord", "psd_sqrt"),
            ("qdiscord.metrology", "psd_sqrt"), ("qdiscord", "psd_sqrt")} <= set(replaced)
    r = harness.run_round(w, 1, tracer)
    assert r.failed == 0
    after = qdiscord_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    calls = {name: s[0] for name, s in tracer.stats.items()}
    assert calls["cli.main"] == 6
    assert calls["states.validation_report"] == 6  # reached through DensityMatrix
    assert calls["linalg.haar_unitary"] == 60
    # Self time excludes nested wrapped calls.
    main_calls, main_busy, main_self = tracer.stats["cli.main"]
    assert 0.0 <= main_self < main_busy


def test_tail_latency_leaves_ten_samples_beyond():
    assert harness.tail_latency(list(range(100))) == (89, 90.0, 10)
    assert harness.tail_latency(list(range(21))) == (10, 100.0 * 11 / 21, 10)
    assert harness.tail_latency(list(range(20))) == (19, 100.0, 0)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def test_declared_metrics_match_code():
    doc = declared()
    assert {(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]} == {
        (name, unit, better) for name, (unit, better) in harness.END_TO_END_UNITS.items()
    }
    assert {(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]} == {
        (name, unit, better) for name, (unit, better) in per_layer_units().items()
    }
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"].strip() for w in doc["workloads"])


def test_every_layer_metric_is_mapped_to_end_to_end_metrics():
    doc = declared()
    with open(HERE / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    names = {w["name"] for w in doc["workloads"]}
    prefixes = {m["name"].rsplit(".", 1)[0] for m in doc["per_layer"]}
    assert prefixes == set(layer_map)
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= names


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    doc = declared()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "qutrit_discord", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in doc[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "region_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
