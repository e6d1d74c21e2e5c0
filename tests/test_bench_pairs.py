import importlib.util
import json
from pathlib import Path

import pytest

from conftest import run_fresh_interpreter

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _record(seed, side, op_p50_s, peak_rss_mb, correct=True):
    values = {"setup_s": 0.35, "op_p50_s": op_p50_s, "ops_per_s": 1.0 / op_p50_s,
              "cpu_s_per_op": op_p50_s, "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": v, "unit": "s"} for name, v in values.items()}
    result = {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}
    return {"workload": "weak-scan", "seed": seed, "side": side, "result": result}


def test_reduce_counts_pairs_won_in_each_metric_direction():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = []
    for i, (parent_op, change_op) in enumerate([(0.30, 0.03), (0.28, 0.04), (0.26, 0.30), (0.29, 0.05)]):
        records += [_record(100 + i, "parent", parent_op, 42.0),
                    _record(100 + i, "change", change_op, 42.0 + i)]
    records.append(_record(200, "parent", 0.3, 42.0))  # a pair without its change run is left out
    (name, workload), = bench_pairs.reduce_runs(records, spec).items()
    assert name == "weak-scan" and workload["seeds"] == [100, 101, 102, 103]
    metrics = workload["metrics"]
    assert metrics["op_p50_s"]["pairs_won"] == 3  # lower is better
    assert metrics["ops_per_s"]["pairs_won"] == 3  # higher is better
    assert metrics["setup_s"]["pairs_won"] == 0  # ties count for neither side
    assert metrics["peak_rss_mb"]["pairs_won"] == 0
    assert metrics["op_p50_s"]["parent"] == pytest.approx({"median": 0.285, "q1": 0.275, "q3": 0.2925})
    assert metrics["op_p50_s"]["change"]["median"] == pytest.approx(0.045)
    assert workload["peak_rss_mb_per_pair"][3] == [42.0, 45.0]
    assert workload["all_correct"] == {"parent": True, "change": True}


def test_reduce_refuses_a_repeated_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = [_record(100, "parent", 0.30, 42.0), _record(100, "change", 0.04, 43.0),
               _record(100, "change", 0.05, 43.0)]
    with pytest.raises(ValueError, match="weak-scan seed 100 change was run twice"):
        bench_pairs.reduce_runs(records, spec)


def test_environment_records_the_openblas_kernel_and_thread_count(monkeypatch):
    env = bench_pairs.environment()
    if any(bench_pairs.NUMPY_LIBS.glob("libscipy_openblas64_*.so")):
        assert isinstance(env["openblas_core"], str) and env["openblas_core"]
        assert isinstance(env["openblas_threads"], int) and env["openblas_threads"] >= 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # read when a fresh interpreter loads numpy
        probe = (
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('bench_pairs', {str(_SPEC.origin)!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "print(module.openblas()['openblas_threads'])"
        )
        assert run_fresh_interpreter(probe).strip() == "1"
    else:  # a numpy without its bundled OpenBLAS
        assert env["openblas_core"] is None and env["openblas_threads"] is None


def test_openblas_is_none_without_the_library_or_its_symbols(monkeypatch, tmp_path):
    none = {"openblas_core": None, "openblas_threads": None}
    monkeypatch.setattr(bench_pairs, "NUMPY_LIBS", tmp_path)
    assert bench_pairs.openblas() == none  # no library
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a shared object")
    assert bench_pairs.openblas() == none  # a library that does not load
    monkeypatch.setattr(bench_pairs.ctypes, "CDLL", lambda path: object())
    assert bench_pairs.openblas() == none  # a library without the two symbols
