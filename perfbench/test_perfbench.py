"""Tests of the benchmark itself (tiny inputs): python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from metrics import END_TO_END, per_layer_catalog
from tracer import WRAP_POINTS, Tracer, resolve_owner
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

run._import_package()
from krrbounds import cli, effdim, experiments, krr, rates, spectral, synth  # noqa: E402

MODULES = (cli, effdim, experiments, krr, rates, spectral, synth)


def _attributes():
    """Identity of every callable the package exposes on its modules and model class."""
    found = {(m.__name__, name): obj for m in MODULES for name, obj in vars(m).items() if callable(obj)}
    found[("SpectralKernelModel", "basis")] = synth.SpectralKernelModel.__dict__["basis"]
    return found


def _assert_unwrapped(before):
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed
    assert not [key for key, obj in after.items() if hasattr(obj, "__wrapped__")]


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_catalog()


def _run_cli(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    result = _run_cli(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _, _ in END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep-desk", "bounds-grid"])
def test_traced_smoke_prints_every_per_layer_metric(workload):
    result = _run_cli(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, _ in per_layer_catalog()
    }


def test_untraced_run_installs_no_wrapper(capsys):
    before = _attributes()
    assert run.main(["--workload", "sweep-desk", "--seed", "4", "--seconds", "0.2",
                     "--size", "tiny"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]
    _assert_unwrapped(before)


def test_tracer_restores_originals_and_nests_spans(tmp_path):
    before = _attributes()
    workload = WORKLOADS["sweep-desk"](5, "tiny", str(tmp_path))
    tracer = Tracer()
    with tracer.installed():
        for path, attr, _ in WRAP_POINTS:
            assert hasattr(resolve_owner(path).__dict__[attr], "__wrapped__")
        workload.run_pass(0)
    _assert_unwrapped(before)
    cells = [i for i, s in enumerate(tracer.spans) if s.name == "experiments.run_cell"]
    assert len(cells) == workload.ops_per_pass
    children = [s for s in tracer.spans if s.parent == cells[0]]
    assert {s.name for s in children} >= {"synth.sample_dataset", "krr.gram_matrix", "krr.krr_fit"}
    cell = tracer.spans[cells[0]]
    assert 0 < cell.self_s < cell.duration_s


def test_tracer_restores_originals_after_an_error():
    before = _attributes()
    with pytest.raises(ValueError):
        with Tracer().installed():
            effdim.bound_comparison_table(1.0, 2.0, [])
    _assert_unwrapped(before)
