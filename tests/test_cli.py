import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from clonekit import serialize_structure
from clonekit.cli import main
from clonekit.reports import verify_report

from conftest import hepp_Ap, hepp_B


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path, le_struct, rxor_struct, k3s, path3):
    paths = {}
    for name, a in [("le", le_struct), ("rxor", rxor_struct), ("k3s", k3s),
                    ("path3", path3), ("hepp_ap", hepp_Ap()), ("hepp_b", hepp_B())]:
        p = tmp_path / f"{name}.json"
        p.write_text(serialize_structure(a))
        paths[name] = str(p)
    minority = tmp_path / "minority.json"
    minority.write_text(json.dumps({
        "domain_size": 2,
        "operations": [{"domain_size": 2, "arity": 3,
                        "table": [0, 1, 1, 0, 1, 0, 0, 1]}]}))
    paths["minority"] = str(minority)
    le2 = tmp_path / "le2.json"
    le2.write_text('{"size": 2, "relations": {"le/2": [[0,0],[0,1],[1,1]]}}')
    paths["le2"] = str(le2)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "dimension": 1,
        "relations": {"le/2": "pp(x,y) := le(x,y);",
                      "s0/1": "pp(x) := s0(x);",
                      "s1/1": "pp(x) := s1(x);"}}))
    paths["spec"] = str(spec)
    rel = tmp_path / "diseq.json"
    rel.write_text('{"arity": 2, "tuples": [[0,1],[1,0]]}')
    paths["diseq"] = str(rel)
    paths["tmp"] = str(tmp_path)
    return paths


def test_classify_taylor_side(runner, files):
    out = files["tmp"] + "/r.json"
    res = runner.invoke(main, ["classify", files["rxor"], "--json", out])
    assert res.exit_code == 0, res.output
    assert "Taylor witness" in res.output
    report = json.loads(open(out).read())
    assert report["verdict"] == "taylor-witness"
    assert verify_report(report) == []


def test_classify_hardness_side(runner, files):
    out = files["tmp"] + "/r.json"
    res = runner.invoke(main, ["classify", files["k3s"], "--json", out])
    assert res.exit_code == 3, res.output
    report = json.loads(open(out).read())
    assert report["verdict"] == "hardness-certificate"
    assert verify_report(report) == []


def test_classify_budget_is_inconclusive(runner, files):
    res = runner.invoke(main, ["classify", files["le"], "--budget-nodes", "1"])
    assert res.exit_code == 4


def test_parse_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("size 2; le/2 = {(0,0) oops};")
    res = runner.invoke(main, ["classify", str(bad)])
    assert res.exit_code == 1


def test_capacity_exit_code(runner, files, tmp_path):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({
        "dimension": 40,
        "relations": {"le/2": "pp(" + ",".join(f"x{i}" for i in range(80)) + ") := ;"}}))
    res = runner.invoke(main, ["pp", files["le"], "--spec", str(spec)])
    assert res.exit_code == 2


def test_hom_found_and_refuted(runner, files, tmp_path):
    res = runner.invoke(main, ["hom", files["path3"], files["path3"]])
    assert res.exit_code == 0
    assert "found" in res.output
    # signature mismatch is an input error
    res = runner.invoke(main, ["hom", files["path3"], files["le2"]])
    assert res.exit_code == 1
    # triangle into an edge: exhaustively refuted
    k3 = tmp_path / "k3.json"
    k3.write_text('size 3; edge/2 = {(0,1),(0,2),(1,0),(1,2),(2,0),(2,1)};')
    k2 = tmp_path / "k2.json"
    k2.write_text('size 2; edge/2 = {(0,1),(1,0)};')
    res = runner.invoke(main, ["hom", str(k3), str(k2)])
    assert res.exit_code == 3


def test_homeq_hepp(runner, files):
    out = files["tmp"] + "/homeq.json"
    res = runner.invoke(main, ["homeq", files["hepp_ap"], files["hepp_b"],
                               "--json", out])
    assert res.exit_code == 0, res.output
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_core_report(runner, files):
    out = files["tmp"] + "/core.json"
    res = runner.invoke(main, ["core", files["path3"], "--json", out])
    assert res.exit_code == 0
    assert "carried by [0, 1]" in res.output
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_poly_lists_tables(runner, files):
    out = files["tmp"] + "/poly.json"
    res = runner.invoke(main, ["poly", "--arity", "2", files["le"],
                               "--json", out])
    assert res.exit_code == 0
    assert "4 polymorphism(s)" in res.output
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_pp_builds_power(runner, files):
    out = files["tmp"] + "/pp.json"
    res = runner.invoke(main, ["pp", files["le"], "--spec", files["spec"],
                               "--json", out])
    assert res.exit_code == 0
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_ppdef_negative_certificate(runner, files):
    out = files["tmp"] + "/ppdef.json"
    res = runner.invoke(main, ["ppdef", files["le"], "--target", files["diseq"],
                               "--json", out])
    assert res.exit_code == 3
    assert "not definable" in res.output
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_color_refutation(runner, files):
    out = files["tmp"] + "/color.json"
    res = runner.invoke(main, ["color", "--strong", "--target", files["le2"],
                               files["minority"], "--json", out])
    assert res.exit_code == 3
    assert "no strong coloring" in res.output
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_h1_command(runner, files):
    out = files["tmp"] + "/h1.json"
    res = runner.invoke(main, ["h1", files["rxor"], "--target", files["rxor"],
                               "--json", out])
    assert res.exit_code == 0
    report = json.loads(open(out).read())
    assert verify_report(report) == []


def test_maltsev_nperm_and_chain(runner, files):
    out = files["tmp"] + "/m.json"
    res = runner.invoke(main, ["maltsev", files["minority"], "--test", "n-perm",
                               "--json", out])
    assert res.exit_code == 0
    assert "chain at n=2" in res.output
    report = json.loads(open(out).read())
    assert verify_report(report) == []

    res = runner.invoke(main, ["maltsev", files["minority"], "--test", "hm-chain",
                               "--n", "2"])
    assert res.exit_code == 0


def test_verify_command_round_trip(runner, files):
    out = files["tmp"] + "/v.json"
    res = runner.invoke(main, ["classify", files["rxor"], "--json", out])
    assert res.exit_code == 0
    res = runner.invoke(main, ["verify", out])
    assert res.exit_code == 0, res.output

    # corrupt the certificate: the verifier must reject it
    report = json.loads(open(out).read())
    report["certificates"]["siggers"]["table"][0] ^= 1
    bad = files["tmp"] + "/bad.json"
    with open(bad, "w") as fh:
        fh.write(json.dumps(report))
    res = runner.invoke(main, ["verify", bad])
    assert res.exit_code == 3


def test_reports_are_byte_identical(runner, files):
    a, b = files["tmp"] + "/a.json", files["tmp"] + "/b.json"
    for args in (["classify", files["rxor"]],
                 ["core", files["path3"]],
                 ["poly", "--arity", "1", files["le"]]):
        assert runner.invoke(main, args + ["--json", a]).exit_code in (0, 3)
        assert runner.invoke(main, args + ["--json", b]).exit_code in (0, 3)
        assert open(a, "rb").read() == open(b, "rb").read()


def test_parallel_flag_keeps_decisions(runner, files):
    seq = runner.invoke(main, ["hom", files["hepp_b"], files["hepp_ap"]])
    par = runner.invoke(main, ["hom", files["hepp_b"], files["hepp_ap"],
                               "--parallel", "2"])
    assert seq.exit_code == par.exit_code == 0
    assert seq.output.splitlines()[-1] == par.output.splitlines()[-1]


def test_verify_no_recompute_mode(runner, files):
    out = files["tmp"] + "/nr.json"
    assert runner.invoke(main, ["h1", files["rxor"], "--target", files["rxor"],
                                "--json", out]).exit_code == 0
    res = runner.invoke(main, ["verify", "--no-recompute", out])
    assert res.exit_code == 0


def test_config_file_and_flag_override(runner, files, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("budget-nodes = 1\n# comment\n")
    res = runner.invoke(main, ["classify", files["le"], "--config", str(cfg)])
    assert res.exit_code == 4
    res = runner.invoke(main, ["classify", files["le"], "--config", str(cfg),
                               "--budget-nodes", "1000000"])
    assert res.exit_code == 0


def test_reports_identical_across_processes(files, tmp_path):
    # hash randomization must not leak into report bytes
    import os
    import subprocess
    import sys

    import clonekit
    # the children import the same clonekit this suite imported, installed or not
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(clonekit.__file__)))
    outs = []
    for seed in ("0", "31337"):
        out = tmp_path / f"seed{seed}.json"
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
               "PYTHONPATH": pkg_root}
        code = (f"import sys; sys.argv = ['clonekit', 'classify', "
                f"{files['k3s']!r}, '--json', {str(out)!r}];"
                "from clonekit.cli import main; main()")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True)
        assert proc.returncode == 3, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags, config", [
    (["--budget-nodes", "0"], None),
    (["--budget-ms", "-5"], None),
    (["--budget-ms", "nan"], None),
    (["--budget-ms", "inf"], None),
    (["--parallel", "-1"], None),
    ([], "budget-nodes = 0\n"),
    ([], "budget-ms = nan\n"),
], ids=["budget-nodes", "budget-ms", "budget-ms-nan", "budget-ms-inf", "parallel", "config",
        "config-nan"])
def test_bad_budget_is_a_parse_error(runner, files, tmp_path, flags, config):
    if config is not None:
        cfg = tmp_path / "cfg"
        cfg.write_text(config)
        flags = ["--config", str(cfg)]
    res = runner.invoke(main, ["hom", files["path3"], files["path3"], *flags])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception  # no traceback
    assert "error: bad budget" in res.output


def test_usage_errors_exit_1(runner, files):
    # exit 2 means capacity exceeded, so click's usage errors exit 1
    cases = [
        (["hom", files["le"], files["tmp"] + "/missing.json"], "does not exist"),
        (["poly", files["le"]], "Missing option '--arity'"),
        (["maltsev", files["minority"], "--test", "bogus"], "Invalid value for '--test'"),
        (["bogus-command"], "No such command"),
        (["--bogus-flag"], "No such option"),
    ]
    for argv, message in cases:
        res = runner.invoke(main, argv)
        assert res.exit_code == 1, (argv, res.output)
        assert message in res.output


# Every decision command on small fixtures: exit code and sha256 of the
# --json report bytes (None where the command writes no report).  The
# digests pin the deterministic report bytes across refactors of the CLI.
GOLDEN = [
    ("classify-taylor", ["classify", "{rxor}"], 0,
     "9b618f0b2dc90169db655c551daf704bfd7789e82720cf2e410cf7d4aae6f86e"),
    ("classify-hardness", ["classify", "{k3s}"], 3,
     "a95a73cee24d5f3e144cc3ddb383231cce6e9257a65ccf66f10f45129359721e"),
    ("classify-budget", ["classify", "{le}", "--budget-nodes", "1"], 4,
     "9641a4db15371da48b83d0a86870dd2469d2be6e3b5088217633ee945e5038de"),
    ("classify-config", ["classify", "{le}", "--config", "{cfg}"], 4,
     "9641a4db15371da48b83d0a86870dd2469d2be6e3b5088217633ee945e5038de"),
    ("classify-parse", ["classify", "{bad}"], 1, None),
    ("hom-found", ["hom", "{path3}", "{k2}"], 0,
     "f024a9f4635581ed1517d8928bb3390bf84ff94f43b5340716b3bf3c345cdcee"),
    # --parallel 0 counts as 1, so the report equals hom-found's
    ("hom-parallel-zero", ["hom", "{path3}", "{k2}", "--parallel", "0"], 0,
     "f024a9f4635581ed1517d8928bb3390bf84ff94f43b5340716b3bf3c345cdcee"),
    ("hom-refuted", ["hom", "{k3}", "{k2}"], 3,
     "d7dff1d31fb55254658d9232bbee76ca43481d86ce774b833d6106542b32d0c5"),
    ("hom-budget", ["hom", "{k3}", "{k3}", "--budget-nodes", "1"], 4,
     "ea82748bf0165cae4c63465cb3276f43122dc1ec1c02be420bd756f505181f33"),
    ("hom-parallel", ["hom", "{hepp_b}", "{hepp_ap}", "--parallel", "2"], 0,
     "504222b72be3306ccbcb5fddd8432c363b9591b6c2607022f1be1b6312b131be"),
    ("hom-signature", ["hom", "{path3}", "{le2}"], 1, None),
    ("homeq-found", ["homeq", "{hepp_ap}", "{hepp_b}"], 0,
     "834beac27144adb584cdf07fd180623ce55c841f4540538d24f87a2f8a44795e"),
    ("homeq-refuted", ["homeq", "{k3}", "{k2}"], 3,
     "309b899440e71de8550fa2034633e9fbec3cca521b820522bd153bf6de457086"),
    ("homeq-budget", ["homeq", "{k3}", "{k3}", "--budget-nodes", "1"], 4,
     "86d8ac3735f8a73c81048905e5f1bb3cbde61898c25cabef7f0d2c14a493dbc9"),
    ("core-path3", ["core", "{path3}"], 0,
     "5751ebf805bbdaa5f8d585c6fc1a5df48deb0bb349adbb19a1cf1e005c50c416"),
    ("core-k3s", ["core", "{k3s}"], 0,
     "3a92f35ca0c5b5339a1d1c3e3cb9b0495cccd19c08c9cba5969a566d8d8e5974"),
    ("poly", ["poly", "--arity", "2", "{le}"], 0,
     "7d0baaa194522efbe6b7b97bbb50b4ada0c1ac49ce5b8b50cbc6b51ac9d71f8b"),
    ("poly-budget", ["poly", "--arity", "3", "{rxor}", "--budget-nodes", "1"], 4,
     "fdef3f3fb1a8c64ebb015546cca7277f3ac959939285a006e017a8b76259adb6"),
    ("pp", ["pp", "{le}", "--spec", "{spec}"], 0,
     "5f7cb450497c088ad0e869d3d031ea5f2e276a00e363ab5edab09fdf72aa94b8"),
    ("ppdef-definable", ["ppdef", "{le}", "--target", "{lerel}"], 0,
     "04d4b963a6785f6d53507283bf5c7d98fe68f51297988ca0b4e10980546a1746"),
    ("ppdef-violator", ["ppdef", "{le}", "--target", "{diseq}"], 3,
     "663a7a69ae740268e19b0a6510e5f576a28627ef072e6e5bdcd48c6b9e1ebb3a"),
    ("color-found", ["color", "--target", "{le2}", "{minority}"], 0,
     "658af7251489c6ede3c2e821545cce10c0fda474781eebb026a31265cab35d45"),
    ("color-refuted", ["color", "--strong", "--target", "{le2}", "{minority}"], 3,
     "3921dd45fa1ececb307729639578d63f3a0e80493633d0837b649381b4556337"),
    ("color-budget", ["color", "--target", "{le2}", "{proj}", "--budget-nodes", "1"], 4,
     "9c78980285414e5a89d681605d03bdf15073fcd226e6ea698d317272d1654ff4"),
    ("h1-exists", ["h1", "{rxor}", "--target", "{rxor}"], 0,
     "88b1db85f8deb8fe15ba9e438f9857111facd56cfea3b9870d9b2cabc12f6d42"),
    ("h1-refuted", ["h1", "{le}", "--target", "{rxor}"], 3,
     "c2406c1cbb2f8d7d59b916ddb845b37b775b6e96689093ae30c3942e8d8ed1be"),
    ("h1-budget", ["h1", "{rxor}", "--target", "{rxor}", "--budget-nodes", "1"], 4,
     "2e85e2930dad11e6c57693c9f2c7c87546964af6806335949978307c2a6fd9aa"),
    ("nperm-holds", ["maltsev", "{minority}", "--test", "n-perm"], 0,
     "256e5889ed29a2378ca266397e6205d4e0ecd195087f4173b618614b059ceede"),
    ("nperm-fails", ["maltsev", "{min}", "--test", "n-perm"], 3,
     "8b2b4f3f16e7b6100a0c5475500246534e221f573bf86b682b9824caab795bc8"),
    ("modular-holds", ["maltsev", "{minority}", "--test", "modular"], 0,
     "b8ba8317a243621fdfaff5299fffcd3da4d76e23228968c746e37bd339f90ed7"),
    ("modular-fails", ["maltsev", "{proj}", "--test", "modular"], 3,
     "e2905d46f9135aefbf6e54c03ca45ec1e15db6ed50637ff1fa2f191b1e0e3977"),
    ("hm-chain-found", ["maltsev", "{minority}", "--test", "hm-chain", "--n", "2"], 0,
     "15358c45f522eea889597f8774d483b11e5eb4b8f6449f02fe47cf1fc90ff566"),
    ("hm-chain-none", ["maltsev", "{min}", "--test", "hm-chain", "--n", "3"], 3,
     "e1bd185e68c3415a78b5cd3680914c459febf2371fc7d73e8e565c0e1f5b5c77"),
    ("hm-chain-parse", ["maltsev", "{minority}", "--test", "hm-chain", "--n", "1"], 1, None),
]


@pytest.fixture
def golden_files(files, k2, k3):
    tmp = Path(files["tmp"])
    paths = dict(files)
    texts = {
        "k2": serialize_structure(k2),
        "k3": serialize_structure(k3),
        "min": json.dumps({"domain_size": 2, "operations": [
            {"domain_size": 2, "arity": 2, "table": [0, 0, 0, 1]}]}),
        "proj": json.dumps({"domain_size": 2, "operations": []}),
        "lerel": '{"arity": 2, "tuples": [[0,0],[0,1],[1,1]]}',
        "bad": "size 2; le/2 = {(0,0) oops};",
        "cfg": "budget-nodes = 1\n",
    }
    for name, text in texts.items():
        (tmp / f"{name}.golden").write_text(text)
        paths[name] = str(tmp / f"{name}.golden")
    return paths


@pytest.mark.parametrize("argv, code, digest", [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_decision_reports_pinned(runner, golden_files, argv, code, digest):
    out = Path(golden_files["tmp"]) / "golden-report.json"
    args = [a.format(**golden_files) for a in argv] + ["--json", str(out)]
    res = runner.invoke(main, args)
    assert res.exit_code == code, res.output
    got = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert got == digest
