"""The output checks catch corrupted results, and BENCHMARK.json matches the code."""

import copy
import json

import checks
import run
from layers import METRICS


def _error_rate(workload, summary, reference):
    results = checks.run_checks(workload, summary, reference)
    return sum(not ok for _, ok in results) / len(results)


def _reference(workload):
    return checks.load_reference(workload)


def test_reference_outputs_pass_their_own_checks():
    for workload in ("exact_families", "gw_reps", "large_bounds"):
        ref = _reference(workload)
        assert _error_rate(workload, copy.deepcopy(ref), ref) == 0.0


def test_corrupted_exact_row_raises_error_rate():
    ref = _reference("exact_families")
    bad = copy.deepcopy(ref)
    row = bad["families"]["cor15"]["rows"][2]
    row["t_rel"] = row["t_rel_upper"] * 1.01
    assert _error_rate("exact_families", bad, ref) > 0
    # the sandwich still catches it where no reference applies
    assert _error_rate("exact_families", bad, None) > 0


def test_corrupted_load_or_verdict_fails_against_reference():
    ref = _reference("gw_reps")
    bad = copy.deepcopy(ref)
    bad["families"]["gw_size"]["rows"][0]["max_path_load"] += 1
    assert _error_rate("gw_reps", bad, ref) > 0
    bad = copy.deepcopy(ref)
    bad["families"]["gw_size"]["trends"]["no_cutoff"] = "inconclusive (diagnostic)"
    assert ref["families"]["gw_size"]["trends"]["no_cutoff"] != "inconclusive (diagnostic)"
    assert _error_rate("gw_reps", bad, ref) > 0


def test_time_within_tolerance_passes_beyond_fails():
    ref = _reference("exact_families")
    ok = copy.deepcopy(ref)
    ok["families"]["ssym_binary"]["rows"][0]["t_mix"] *= 1 + 1e-8
    assert _error_rate("exact_families", ok, ref) == 0.0
    bad = copy.deepcopy(ref)
    bad["families"]["ssym_binary"]["rows"][0]["t_mix"] *= 1 + 1e-5
    assert _error_rate("exact_families", bad, ref) > 0


def test_broken_bounds_sandwich_and_lift_fail():
    ref = _reference("large_bounds")
    bad = copy.deepcopy(ref)
    bad["segment"]["bounds"]["hardy_lower"] = 2 * bad["segment"]["bounds"]["t_rel"]
    assert _error_rate("large_bounds", bad, None) > 0
    ref = _reference("exact_families")
    bad = copy.deepcopy(ref)
    bad["members"][-1]["lift_residual"] = 1e-3
    assert _error_rate("exact_families", bad, None) > 0


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == METRICS
    assert [w["name"] for w in spec["workloads"]] == sorted(run.workloads.WORKLOADS)
