"""tools/collect_bench.py: perfbench records -> one BENCH_<label>.json."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "collect_bench.py"


@pytest.fixture(scope="module")
def collect_bench():
    spec = importlib.util.spec_from_file_location("collect_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(path, commit, wall_s, **provenance):
    record = {
        "provenance": {"git_commit": commit, "workload": "bound_sweep", "seed": 3, **provenance},
        "result": {"correct": True, "attempted": 5, "failed": 0,
                   "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}},
        "untraced_pass_s": [wall_s, 2 * wall_s],
    }
    path.write_text(json.dumps(record))
    return record


def test_copies_provenance_and_result_per_side(tmp_path, collect_bench, capsys):
    (tmp_path / "parent").mkdir()
    parent = [_record(tmp_path / "parent" / f"pair{i}-bound_sweep-seed3-trace0.json", "a", 0.05 + i)
              for i in (2, 1)]
    (tmp_path / "parent" / "pair1-bound_sweep-seed3-trace1.json").write_text("{}")
    change = _record(tmp_path / "change-bound_sweep-seed3-trace0.json", "b", 0.03)
    out = tmp_path / "BENCH_test.json"
    rc = collect_bench.main([str(out), f"parent={tmp_path / 'parent'}",
                             f"change={tmp_path / 'change-bound_sweep-seed3-trace0.json'}"])
    assert rc == 0
    bench = json.loads(out.read_text())
    keep = lambda r: {"provenance": r["provenance"], "result": r["result"]}  # noqa: E731
    assert bench == {"runs": {"parent": [keep(parent[1]), keep(parent[0])],
                              "change": [keep(change)]}}
    assert "parent: 2 runs" in capsys.readouterr().out


def test_no_records_is_an_error(tmp_path, collect_bench):
    out = tmp_path / "BENCH_empty.json"
    assert collect_bench.main([str(out), f"parent={tmp_path}"]) == 1
    assert not out.exists()


def test_side_needs_a_name(collect_bench):
    with pytest.raises(SystemExit):
        collect_bench.main(["BENCH_x.json", "runs/parent"])


def _collect_two_sides(tmp_path, collect_bench, parent, change):
    """Write one record per provenance dict under parent/ and change/, then collect."""
    for side, records in (("parent", parent), ("change", change)):
        (tmp_path / side).mkdir()
        for i, prov in enumerate(records):
            _record(tmp_path / side / f"run{i}-bound_sweep-seed3-trace0.json", side, 0.03, **prov)
    out = tmp_path / "BENCH_test.json"
    rc = collect_bench.main([str(out), f"parent={tmp_path / 'parent'}",
                             f"change={tmp_path / 'change'}"])
    return rc, out


@pytest.mark.parametrize("parent, change, message", [
    ([{"src_sha256": "a"}, {"src_sha256": "b"}], [{"src_sha256": "c"}],
     "side 'parent' mixes records with different src_sha256"),
    ([{"src_sha256": "a"}], [{"src_sha256": "c", "workload": "gap"}, {"src_sha256": "c"}],
     "side 'change' mixes records with different workload"),
    ([{"src_sha256": "a"}], [{"src_sha256": "a"}],
     "sides 'parent' and 'change' share src_sha256 a"),
], ids=["mixed_src", "mixed_workload", "shared_src"])
def test_rejects_mixed_or_shared_sources(tmp_path, collect_bench, capsys, parent, change, message):
    rc, out = _collect_two_sides(tmp_path, collect_bench, parent, change)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_distinct_sources_are_collected(tmp_path, collect_bench):
    rc, out = _collect_two_sides(tmp_path, collect_bench,
                                 [{"src_sha256": "a"}, {"src_sha256": "a"}], [{"src_sha256": "c"}])
    assert rc == 0
    runs = json.loads(out.read_text())["runs"]
    assert [r["provenance"]["src_sha256"] for r in runs["parent"]] == ["a", "a"]
