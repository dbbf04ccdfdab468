"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.netlist import read_blif, lsi10k_like_library


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "comparator2" in out and "C432" in out
    assert "[table 2]" in out


def test_report_named_benchmark(capsys):
    code, out, _ = run(capsys, "report", "cmb")
    assert code == 0
    assert "critical delay" in out
    assert "16/4" in out


def test_report_unit_library_comparator(capsys):
    code, out, _ = run(capsys, "--library", "unit", "report", "comparator2")
    assert code == 0
    assert "critical delay   : 7" in out


@pytest.mark.parametrize("algo", ["short", "path", "node", "all"])
def test_spcf(capsys, algo):
    code, out, _ = run(capsys, "spcf", "cmb", "--algorithm", algo)
    assert code == 0
    if algo == "all":
        assert "over-approximation factor" in out
    else:
        assert "critical patterns" in out


def test_mask_writes_files(capsys, tmp_path):
    out_blif = tmp_path / "masked.blif"
    mask_blif = tmp_path / "mask.blif"
    verilog = tmp_path / "masked.v"
    code, out, _ = run(
        capsys,
        "mask",
        "cmb",
        "--out", str(out_blif),
        "--mask-out", str(mask_blif),
        "--verilog", str(verilog),
    )
    assert code == 0
    assert "masking coverage   : 100.0%" in out
    masked = read_blif(out_blif, library=lsi10k_like_library())
    assert any(net.startswith("masked$") for net in masked.outputs)
    assert read_blif(mask_blif, library=lsi10k_like_library()).num_gates > 0
    assert verilog.read_text().startswith("module")


def test_mask_blif_input_roundtrip(capsys, tmp_path):
    """CLI accepts a .blif file path as the circuit argument."""
    from repro.benchcircuits import make_benchmark
    from repro.netlist import write_blif_file

    lib = lsi10k_like_library()
    path = tmp_path / "c.blif"
    write_blif_file(make_benchmark("x2", lib), path)
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0
    assert "10/7" in out


def test_mask_exits_1_on_an_equivalence_failure(capsys, monkeypatch):
    """Sound and fully covering, yet a miswired output mux fails the run."""
    from repro.core import pipeline
    from repro.core.integrate import MASKED_PREFIX
    from repro.netlist.circuit import Gate

    build = pipeline.build_masked_design

    def swapped_mux(masking):
        design = build(masking)
        mux = design.circuit.gate(MASKED_PREFIX + next(iter(masking.outputs)))
        ind, original, pred = mux.fanins
        design.circuit.replace_gate(Gate(mux.name, mux.cell, (ind, pred, original)))
        return design

    monkeypatch.setattr(pipeline, "build_masked_design", swapped_mux)
    code, out, _ = run(capsys, "mask", "comparator2")
    assert "sound              : True" in out
    assert "masking coverage   : 100.0%" in out
    assert code == 1


def test_table1(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "C432" in out and "lsu_stb_ctl" in out


def test_table2_subset(capsys):
    code, out, _ = run(capsys, "table2", "--circuits", "cmb", "x2")
    assert code == 0
    assert "average" in out
    assert out.count("100") >= 2  # both rows at 100% coverage


def test_unknown_circuit_is_graceful(capsys):
    code, out, err = run(capsys, "report", "does_not_exist")
    assert code == 2
    assert "error:" in err


def test_missing_blif_path_names_the_file(capsys):
    """A nonexistent .blif path fails with a BlifError naming the path."""
    code, out, err = run(capsys, "report", "no/such/file.blif")
    assert code == 2
    assert "no/such/file.blif" in err
    assert "unknown circuit" not in err


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, "0"),
        (5, "5"),
        (-5, "-5"),
        (999, "999"),
        (-999, "-999"),
        (1000, "1.00e3"),
        (1234, "1.23e3"),
        (-1234, "-1.23e3"),
        (10**12, "1.00e12"),
        (2**40, "1.10e12"),
    ],
)
def test_fmt_count(n, expected):
    from repro.cli import _fmt_count

    assert _fmt_count(n) == expected


def test_lint_text(capsys):
    code, out, _ = run(capsys, "lint", "cmb")
    assert code == 0
    assert "finding(s)" in out


def test_lint_json_has_stable_rule_ids(capsys):
    import json

    code, out, _ = run(capsys, "lint", "i1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "repro-lint/1"
    ids = {d["rule_id"] for d in payload["diagnostics"]}
    assert ids <= {f"LINT00{k}" for k in range(1, 8)}


def test_lint_fail_on_gates_exit_code(capsys):
    # i1 has info-level findings: clean at the default gate, dirty at info.
    code, _, _ = run(capsys, "lint", "i1")
    assert code == 0
    code, _, _ = run(capsys, "lint", "i1", "--fail-on", "info")
    assert code == 1
    code, _, _ = run(capsys, "lint", "i1", "--fail-on", "info", "--ignore",
                     "LINT004", "LINT007")
    assert code == 0


def test_lint_broken_blif_reaches_the_linter(capsys, tmp_path):
    """A looped + dangling BLIF is linted, not rejected by the loader."""
    path = tmp_path / "broken.blif"
    path.write_text(
        ".model broken\n.inputs a\n.outputs y\n"
        ".names a g2 g1\n11 1\n"     # g1 <-> g2 loop
        ".names g1 g2\n0 1\n"
        ".names g1 ghost y\n11 1\n"  # 'ghost' has no driver
        ".end\n"
    )
    code, out, _ = run(capsys, "lint", str(path))
    assert code == 1
    assert "LINT001" in out and "LINT002" in out
    assert "ghost" in out


def test_lint_all_is_warning_clean(capsys):
    code, out, _ = run(capsys, "lint", "all", "--fail-on", "warning")
    assert code == 0
    assert "linted" in out


def test_verify_mask_cli(capsys):
    code, out, _ = run(capsys, "verify-mask", "comparator2")
    assert code == 0
    assert "soundness" in out and "coverage" in out and "equivalence" in out
    assert "VERIFIED" in out


def test_verify_mask_cli_json(capsys):
    import json

    code, out, _ = run(capsys, "verify-mask", "cmb", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "repro-verify/1"
    assert payload["verified"] is True
    assert {c["check"] for c in payload["checks"]} == {
        "soundness", "coverage", "equivalence",
    }


def test_campaign_plan(capsys):
    code, out, _ = run(
        capsys, "campaign", "plan",
        "--circuits", "comparator2",
        "--modes", "seu", "delay:scale=3.0,arcs=1",
        "--shards", "2",
    )
    assert code == 0
    assert "4 shards" in out
    assert "seu(flips=1)" in out
    assert "delay(arcs=1,scale=3.0)" in out


def test_campaign_run_report_resume_inline(capsys, tmp_path):
    import json

    ckpt = tmp_path / "c.ckpt.jsonl"
    code, out, _ = run(
        capsys, "campaign", "run", str(ckpt),
        "--circuits", "comparator2", "--modes", "seu",
        "--shards", "2", "--vectors", "6", "--workers", "0",
    )
    assert code == 0
    assert "COMPLETE" in out
    assert ckpt.exists()

    code, out, _ = run(
        capsys, "campaign", "report", str(ckpt), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["shards_done"] == 2

    code, out, _ = run(capsys, "campaign", "resume", str(ckpt), "--workers", "0")
    assert code == 0
    assert "COMPLETE" in out


def test_campaign_run_refuses_existing_checkpoint(capsys, tmp_path):
    ckpt = tmp_path / "c.ckpt.jsonl"
    ckpt.write_text("{}\n")
    code, _, err = run(
        capsys, "campaign", "run", str(ckpt),
        "--circuits", "comparator2", "--modes", "seu", "--workers", "0",
    )
    assert code == 2
    assert "already exists" in err


def test_campaign_bad_mode_and_sabotage_args(capsys, tmp_path):
    code, _, err = run(
        capsys, "campaign", "plan", "--modes", "seu:wings=3"
    )
    assert code == 2
    assert "no parameter" in err

    code, _, err = run(
        capsys, "campaign", "run", str(tmp_path / "x.jsonl"),
        "--modes", "seu", "--sabotage", "notanint:kill",
    )
    assert code == 2
    assert "sabotage" in err


def test_campaign_report_written_to_file(capsys, tmp_path):
    import json

    ckpt = tmp_path / "c.ckpt.jsonl"
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "campaign", "run", str(ckpt),
        "--circuits", "comparator2", "--modes", "stuck",
        "--shards", "1", "--vectors", "4", "--workers", "0",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["complete"] is True


def test_exit_codes_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "lint", "--help")
    out = capsys.readouterr().out
    assert "exit codes" in out.lower()
    assert "--ignore" in out
    assert "--baseline" not in out


def test_info_reports_executor_backends(capsys, monkeypatch):
    # The worker count alone picks inline or isolated attempts, so info
    # reports the default `campaign run --workers`, whatever the cores.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "executor backends" not in out
    assert "cpu count         : 8" in out
    assert "default workers   : 2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("spcf", "comparator2", "--jobs", "0"),
        ("spcf", "comparator2", "--precert"),
    ],
    ids=["spcf-jobs", "spcf-precert"],
)
def test_spcf_has_no_jobs_option(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, *argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("worker", "q"), "invalid choice"),
        (("obs", "serve"), "invalid choice"),
        (
            ("campaign", "run", "x.jsonl", "--backend", "queue"),
            "unrecognized arguments: --backend queue",
        ),
        (("paths", "bypass"), "invalid choice"),
        (("analyze", "comparator2"), "invalid choice"),
        (
            ("campaign", "run", "x.jsonl", "--auto-shard-from", "d.jsonl"),
            "unrecognized arguments: --auto-shard-from d.jsonl",
        ),
        (
            ("campaign", "plan", "--target-shard-seconds", "30"),
            "unrecognized arguments: --target-shard-seconds 30",
        ),
        (
            ("lint", "i1", "--baseline", "b.json"),
            "unrecognized arguments: --baseline b.json",
        ),
        (
            ("lint", "i1", "--write-baseline", "b.json"),
            "unrecognized arguments: --write-baseline b.json",
        ),
    ],
    ids=[
        "worker", "obs-serve", "backend-queue", "paths", "analyze",
        "auto-shard-from", "target-shard-seconds", "lint-baseline",
        "lint-write-baseline",
    ],
)
def test_removed_queue_surfaces_are_usage_errors(
    capsys, tmp_path, argv, message
):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, *argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_campaign_negative_workers_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(capsys, "campaign", "run", "x.jsonl", "--workers", "-3")
    assert excinfo.value.code == 2
    assert "must be >= 0 (0 = inline)" in capsys.readouterr().err


def test_info_lists_every_registered_rule(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 0
    assert "analysis rules" in out
    for k in range(1, 8):
        assert f"LINT00{k}" in out
    assert "ABS0" not in out
