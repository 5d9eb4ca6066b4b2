"""Tests of the benchmark's own logic (no maassforge process is started).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402


def test_genus_t_counts_prime_discriminant_factors():
    assert run.genus_t(229) == 1  # prime
    assert run.genus_t(445) == 2  # 5 * 89
    assert run.genus_t(1105) == 3  # 5 * 13 * 17
    assert run.genus_t(8) == 1 and run.genus_t(12) == 2 and run.genus_t(24) == 2
    assert run.genus_t(4 * 5) == 0  # 5 = 1 mod 4: not fundamental with the factor 4
    assert run.genus_t(9 * 229) == 0 and run.genus_t(229 * 229) == 0


def test_genus_theory_check():
    assert run.genus_consistent(229, 3) and not run.genus_consistent(229, 4)
    assert run.genus_consistent(445, 4) and not run.genus_consistent(445, 3)
    assert run.genus_consistent(1105, 4) and not run.genus_consistent(1105, 6)  # t = 3: 4 | h


def test_survey_check_accepts_an_even_class_number_at_t3():
    unit = ["56976", "1714", -1]  # (56976 + 1714 sqrt 1105) / 2, norm -1
    rec = {"D": 1105, "unit": unit, "regulator": 10.950385405825605, "h_narrow": 4, "h_wide": 4, "res_zeta_f": 2.6}
    run.check_survey_field(rec, 0)
    with pytest.raises(run.CheckFailed):
        run.check_survey_field({**rec, "h_narrow": 3, "h_wide": 3}, 0)


def test_summary_reports_percentile_with_ten_samples_beyond():
    assert "p50" not in run.summary(list(range(19))) and len(run.summary(list(range(19)))) == 2
    s = run.summary(list(range(20)))
    assert s["n"] == 20 and s["p50"] == 9
    s = run.summary(list(range(1, 101)))
    assert s["p90"] == 90 and s["median"] == 50.5


def test_typical_pass_takes_per_process_medians():
    def r(w, c, m):
        return {"wall_s": w, "cpu_s": c, "rss_mb": m}
    samples = [[r(2.0, 2.5, 100), r(9.0, 3.5, 102)], [r(1.0, 1.0, 150), r(1.2, 1.2, 140), r(7.0, 1.1, 145)]]
    out = run.typical_pass(samples)
    assert out["wall_s"] == pytest.approx(5.5 + 1.2)
    assert out["cpu_s"] == pytest.approx(3.0 + 1.1)
    assert out["peak_rss_mb"] == 145


def test_scale_to_reference_uses_the_neighbouring_reference_runs():
    def r(w, c):
        return {"wall_s": w, "cpu_s": c, "rss_mb": 5.0}
    out = run.scale_to_reference(r(10.0, 12.0), r(run.REFERENCE_S, 2 * run.REFERENCE_S), r(3 * run.REFERENCE_S, 2 * run.REFERENCE_S))
    assert out == {"wall_s": pytest.approx(5.0), "cpu_s": pytest.approx(6.0), "rss_mb": 5.0}


def test_survey_inputs_follow_seed_and_quota():
    a, b = run.survey_inputs(3, 0), run.survey_inputs(3, 0)
    assert a == b and a != run.survey_inputs(4, 0) and a != run.survey_inputs(3, 1)
    stream = [D for D, h in a if h == 0]
    assert len(stream) == len(run.SURVEY_BLOCK) * run.SURVEY_BLOCKS
    assert sum(run.genus_t(D) >= 3 for D in stream) == 7 * run.SURVEY_BLOCKS
    slots = json.loads(run.SURVEY_FIELDS.read_text())["slots"]
    assert sorted(h for _, h in a if h) == sorted(s["h_narrow"] for s in slots)


def test_coefficient_check_catches_a_broken_value():
    n = 30
    a = [0j] * (n + 1)
    a[1] = 1
    run.check_coefficients(a[:2])
    with pytest.raises(run.CheckFailed):
        run.check_coefficients([0j, 2 + 0j])
    with pytest.raises(run.CheckFailed):
        run.check_coefficients([0j, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7])


def test_cli_check_classifies_exit_codes():
    check = run.cli_check("x", lambda d, w: run.need(d["v"] == 1, "v"))
    assert check(0, '{"v": 1}', Path("."))[0][1] == run.OK
    assert check(0, '{"v": 2}', Path("."))[0][1] == run.WRONG
    assert check(1, "", Path("."))[0][1] == run.WRONG
    assert check(2, "", Path("."))[0][1] == run.ERROR


def test_self_times_sum_to_op_wall():
    tr = tracing.Tracer()
    leaf = tr.wrap("special.leaf", lambda: sum(range(1000)))
    mid = tr.wrap("lseries.mid", lambda: [leaf() for _ in range(3)])
    for op in range(2):
        tr.run_op(op, mid)
    metrics, names, ops = tracing.summarize(tr.spans, tr.op_wall)
    assert names["special.leaf"][0] == 6 and names["lseries.mid"][0] == 2
    assert tracing.ops_consistent(ops) and len(ops) == 2
    assert metrics["special.self_s"] == pytest.approx(names["special.leaf"][2])
    assert all(s[3] >= 0 or s[0] == tracing.ROOT_SPAN for s in tr.spans)


def consistent(spans, op_wall):
    return tracing.ops_consistent(tracing.summarize(spans, op_wall)[2])


def test_broken_span_trees_fail_the_self_check():
    root = [tracing.ROOT_SPAN, 0.0, 1.0, -1, 0, None]
    spans = [root, ["lseries.a", 0.1, 0.4, 0, 0, None], ["lseries.b", 0.5, 0.9, 0, 0, None]]
    assert consistent(spans, {0: 1.0001})
    assert not consistent(spans, {0: 1.5})  # op wall measured outside disagrees
    assert not consistent(spans, {0: 0.9})
    assert not consistent(spans, {})  # no outside measurement
    overlap = [root, ["lseries.a", 0.1, 0.7, 0, 0, None], ["lseries.b", 0.2, 0.9, 0, 0, None]]
    assert not consistent(overlap, {0: 1.0001})  # siblings overlap: negative self time
    outside = [root, ["lseries.a", 0.1, 1.2, 0, 0, None]]
    assert not consistent(outside, {0: 1.0001})  # child outlives its parent
    other_op = [root, [tracing.ROOT_SPAN, 2.0, 3.0, -1, 1, None], ["lseries.a", 2.1, 2.5, 0, 1, None]]
    assert not consistent(other_op, {0: 1.0001, 1: 1.0001})  # parent in another op
    lost = [root, ["lseries.a", 0.1, 0.4, -1, 0, None]]
    assert not consistent(lost, {0: 1.0001})  # span without its parent


def test_merge_sums_counts_and_takes_maxima():
    merged = tracing.merge([
        {"lseries.table_builds": 2, "lseries.table_max_n": 10},
        {"lseries.table_builds": 3, "lseries.table_max_n": 7},
    ])
    assert merged == {"lseries.table_builds": 5, "lseries.table_max_n": 10}
    out = tracing.finalize({"lseries.table_rows_built": 40, tracing.USEFUL_ROWS: 10})
    assert out["lseries.table_useful_ratio"] == 0.25 and set(out) == set(tracing.PER_LAYER)


def test_benchmark_json_matches_the_metrics_printed():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in bench["per_layer"]] == [u for u, _ in tracing.PER_LAYER.values()]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
