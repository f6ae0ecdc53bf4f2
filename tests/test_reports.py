"""Certificate verification must reject tampered reports of every kind."""

import copy
import json

from click.testing import CliRunner

from clonekit import serialize_structure
from clonekit.cli import main
from clonekit.reports import verify_report

from conftest import MINORITY, hepp_Ap, hepp_B


def _report_for(runner, tmp_path, args, name):
    out = tmp_path / f"{name}.json"
    res = runner.invoke(main, args + ["--json", str(out)])
    assert res.exit_code in (0, 3), res.output
    return json.loads(out.read_text())


def _setup(tmp_path):
    runner = CliRunner()
    files = {}
    ap = tmp_path / "ap.json"
    ap.write_text(serialize_structure(hepp_Ap()))
    b = tmp_path / "b.json"
    b.write_text(serialize_structure(hepp_B()))
    k3s = tmp_path / "k3s.json"
    k3s.write_text('size 3;'
                   'edge/2 = {(0,1),(0,2),(1,0),(1,2),(2,0),(2,1)};'
                   's0/1 = {0}; s1/1 = {1}; s2/1 = {2};')
    minority = tmp_path / "minority.json"
    minority.write_text(json.dumps({
        "domain_size": 2,
        "operations": [{"domain_size": 2, "arity": 3,
                        "table": list(MINORITY.table)}]}))
    files.update(ap=str(ap), b=str(b), k3s=str(k3s), minority=str(minority))
    return runner, files


def test_verify_rejects_tampered_hom_witness(tmp_path):
    runner, files = _setup(tmp_path)
    report = _report_for(runner, tmp_path, ["hom", files["b"], files["ap"]], "hom")
    assert verify_report(report) == []
    bad = copy.deepcopy(report)
    bad["certificates"]["witness"]["map"][0] = 1
    problems = verify_report(bad)
    assert any("digest" in p or "homomorphism" in p for p in problems)


def test_verify_rejects_tampered_core(tmp_path):
    runner, files = _setup(tmp_path)
    report = _report_for(runner, tmp_path, ["core", files["ap"]], "core")
    assert verify_report(report) == []
    bad = copy.deepcopy(report)
    bad["certificates"]["retraction"]["map"][-1] ^= 1
    assert verify_report(bad)


def test_verify_rejects_tampered_coloring(tmp_path):
    runner, files = _setup(tmp_path)
    report = _report_for(runner, tmp_path,
                         ["classify", files["k3s"]], "classify")
    assert verify_report(report) == []
    bad = copy.deepcopy(report)
    cmap = bad["certificates"]["coloring"]["coloring"]["map"]
    cmap[0] ^= 1
    assert verify_report(bad)


def test_verify_rejects_tampered_chain(tmp_path):
    runner, files = _setup(tmp_path)
    report = _report_for(runner, tmp_path,
                         ["maltsev", files["minority"], "--test", "hm-chain",
                          "--n", "2"], "chain")
    assert verify_report(report) == []
    bad = copy.deepcopy(report)
    bad["certificates"]["chain"]["ops"][0]["table"][0] ^= 1
    assert verify_report(bad)


def test_verify_rejects_tampered_refutation_digest(tmp_path):
    runner, files = _setup(tmp_path)
    report = _report_for(runner, tmp_path,
                         ["maltsev", files["minority"], "--test", "n-perm"],
                         "nperm")
    assert verify_report(report) == []
    bad = copy.deepcopy(report)
    bad["certificates"]["refutation_digest"]["nodes"] += 1
    assert verify_report(bad)


def test_verify_accepts_budget_reports(tmp_path):
    runner, files = _setup(tmp_path)
    out = tmp_path / "poly.json"
    res = runner.invoke(main, ["poly", "--arity", "3", files["k3s"],
                               "--budget-nodes", "1", "--json", str(out)])
    assert res.exit_code == 4, res.output
    assert "error: budget exhausted" in res.output
    poly = json.loads(out.read_text())
    assert (poly["verdict"], poly["certificates"], poly["timings"]) == \
        ("budget", {}, {"nodes": 0})
    core = {**poly, "command": "core"}
    assert verify_report(poly) == [] and verify_report(core) == []
    bad = copy.deepcopy(poly)
    bad["inputs"]["structure"]["size"] = 4
    assert verify_report(bad)


def test_verify_rejects_input_swap(tmp_path):
    # swapping the embedded input must break the input digest
    runner, files = _setup(tmp_path)
    report = _report_for(runner, tmp_path, ["core", files["ap"]], "core2")
    bad = copy.deepcopy(report)
    bad["inputs"]["structure"]["size"] = 3
    assert any("digest" in p for p in verify_report(bad))


def test_verify_rejects_malformed_report():
    assert verify_report({"command": "hom"}) != []
    assert verify_report({}) != []
