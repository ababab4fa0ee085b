"""Tests for the check suite runner and the command-line interface."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from supq import structures, verify
from supq.lattice import (
    Poset,
    SearchCapExceeded,
    make_boolean,
    make_chain,
    make_mk,
    make_n5,
    parse_lattice,
    serialize_lattice,
)
from supq.verify import (
    ALL_CHECK_IDS,
    CHECKS,
    CheckResult,
    M5_CHECKS,
    POSET_CHECKS,
    Report,
    SuiteConfig,
    corpus,
    report_to_json,
    report_to_text,
    run_m5_suite,
    run_suite,
)
from supq.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SKIPPED_STRICT,
    _exit_code,
    main,
)


# -- suite runner --------------------------------------------------------------------


def test_run_suite_passes_on_a_small_chain():
    report = run_suite(make_chain(3), name="chain3")
    assert report.name == "chain3"
    assert report.size == 3
    assert report.failed == 0
    assert report.skipped == 0
    assert [r.check_id for r in report.results] == [cid for cid, _ in CHECKS]
    assert all(r.status == "pass" for r in report.results)


def test_run_suite_with_a_poset_adds_the_relation_checks():
    P = Poset.from_covers(2, [(0, 1)])
    from supq.lattice import downset_lattice

    report = run_suite(downset_lattice(P), name="downset-chain2", poset=P)
    ids = [r.check_id for r in report.results]
    assert ids == [cid for cid, _ in CHECKS] + [cid for cid, _ in POSET_CHECKS]
    assert report.failed == 0


def test_run_suite_rejects_a_poset_that_does_not_generate_the_lattice():
    with pytest.raises(ValueError, match="downset lattice"):
        run_suite(make_chain(4), name="chain4", poset=Poset.from_covers(2, [(0, 1)]))


def test_run_suite_skips_capped_checks_on_the_pentagon_family():
    report = run_suite(make_mk(5), name="m5")
    skipped = {r.check_id: r.reason for r in report.results if r.status == "skipped"}
    assert set(skipped) == {"naturality-composite", "residual-adjunction"}
    assert all("512" in reason for reason in skipped.values())
    assert report.failed == 0


def test_run_suite_honors_the_check_filter():
    config = SuiteConfig(checks=("autodual", "lattice-axioms"))
    report = run_suite(make_chain(2), config, name="chain2")
    assert [r.check_id for r in report.results] == ["lattice-axioms", "autodual"]


def test_run_suite_rejects_unknown_check_ids():
    with pytest.raises(ValueError, match="unknown check ids"):
        run_suite(make_chain(2), SuiteConfig(checks=("nope",)))


def test_run_suite_homset_cap_turns_checks_into_skips():
    config = SuiteConfig(max_homset=5)
    report = run_suite(make_chain(3), config, name="chain3")
    assert report.failed == 0
    skipped = [r for r in report.results if r.status == "skipped"]
    assert skipped, "capping the homset must skip the homset checks"
    assert all(r.reason for r in skipped)
    # lattice-only checks still run
    by_id = {r.check_id: r for r in report.results}
    assert by_id["lattice-axioms"].status == "pass"
    assert by_id["dual-involution"].status == "pass"


# -- caps: every cap raises CapExceeded and the runner reports it as skipped ------------


LATTICE_ONLY_CHECKS = {
    "lattice-axioms", "dual-involution", "distributivity-agreement",
    "downset-irreducibles", "generator-relations",
}


def _not_passed(report):
    return {r.check_id: (r.status, r.reason) for r in report.results if r.status != "pass"}


def test_homset_cap_skips_every_homset_check_with_the_enumeration_reason():
    report = run_suite(make_mk(3), SuiteConfig(max_homset=5), name="m3")
    reason = "homset has more than 5 maps"
    assert _not_passed(report) == {
        cid: ("skipped", reason) for cid, _ in CHECKS if cid not in LATTICE_ONLY_CHECKS
    }
    assert report.summary == {
        "is_CD": False,
        "is_girard": None,
        "dualizing_count": None,
        "automorphism_count": 6,
        "tight_unital": None,
        "autodual_verdict": "inconclusive",
    }


def test_autodual_cap_skips_the_check_and_reads_inconclusive(monkeypatch):
    monkeypatch.setattr(verify, "TABLE_SCAN_CAP", 10)
    report = run_suite(make_chain(4), SuiteConfig(checks=("autodual",)), name="chain4")
    assert _not_passed(report) == {"autodual": ("skipped", "20 maps exceed the search cap 10")}
    assert report.summary["autodual_verdict"] == "inconclusive"
    assert report.summary["is_girard"] is True


def test_search_cap_skips_the_check_and_clears_the_automorphism_count(monkeypatch):
    def capped(L):
        raise SearchCapExceeded("order isomorphism search exceeded 3 nodes")

    monkeypatch.setattr(verify, "automorphisms", capped)
    report = run_suite(make_boolean(2), name="boolean2")
    assert _not_passed(report) == {
        "dualizing-structure": ("skipped", "order isomorphism search exceeded 3 nodes")
    }
    assert report.summary["automorphism_count"] is None
    assert report.summary["dualizing_count"] == 2


def test_the_autodual_verdict_of_a_non_distributive_homset_needs_no_order_matrix(monkeypatch):
    """Unequal irreducible counts settle it: the order of the members and the
    search of autodual_report are refused."""
    def refuse(*args, **kwargs):
        raise RuntimeError("order of the members built")

    monkeypatch.setattr(structures, "leq_tables", refuse)
    monkeypatch.setattr(structures, "find_order_isomorphism", refuse)
    report = run_suite(make_mk(3), SuiteConfig(checks=("homset-irreducibles", "autodual")), name="m3")
    assert [r.status for r in report.results] == ["pass", "pass"]
    assert report.summary["autodual_verdict"] == "not-autodual"
    rep = verify.autodual_report(verify.enumerate_homset(make_mk(3)))
    assert (rep.join_irreducible_count, rep.meet_irreducible_count) == (15, 9)


def test_the_irreducible_scan_reads_the_cap_of_the_verify_module(monkeypatch):
    config = SuiteConfig(checks=("homset-irreducibles",))
    assert _not_passed(run_suite(make_chain(3), config, name="chain3")) == {}
    monkeypatch.setattr(verify, "TABLE_SCAN_CAP", 5)
    report = run_suite(make_chain(3), config, name="chain3")
    assert _not_passed(report) == {
        "homset-irreducibles": ("skipped", "homset has 6 members; irreducible scan capped at 5")
    }


def test_summary_flags_on_a_distributive_and_a_modular_lattice():
    chain = run_suite(make_chain(2), name="chain2").summary
    assert chain == {
        "is_CD": True,
        "is_girard": True,
        "dualizing_count": 1,
        "automorphism_count": 1,
        "tight_unital": True,
        "autodual_verdict": "autodual",
    }
    diamond = run_suite(make_mk(3), name="m3").summary
    assert diamond == {
        "is_CD": False,
        "is_girard": False,
        "dualizing_count": 0,
        "automorphism_count": 6,
        "tight_unital": False,
        "autodual_verdict": "not-autodual",
    }


def test_corpus_names_and_sizes_are_frozen():
    entries = corpus()
    assert [(name, L.n) for name, L, _ in entries] == [
        ("chain1", 1),
        ("chain2", 2),
        ("chain3", 3),
        ("chain4", 4),
        ("chain5", 5),
        ("boolean1", 2),
        ("boolean2", 4),
        ("boolean3", 8),
        ("m3", 5),
        ("m5", 7),
        ("n5", 5),
        ("downset-point", 2),
        ("downset-antichain2", 4),
        ("downset-chain2", 3),
        ("downset-antichain3", 8),
        ("downset-chain3", 4),
        ("downset-vee", 5),
        ("downset-wedge", 5),
        ("downset-chain2-plus-point", 6),
    ]
    assert all(P is not None for name, _, P in entries if name.startswith("downset-"))
    assert all(P is None for name, _, P in entries if not name.startswith("downset-"))


def test_all_check_ids_are_unique():
    ids = [cid for cid, _ in CHECKS] + [cid for cid, _ in POSET_CHECKS] + [
        cid for cid, _ in M5_CHECKS
    ]
    assert len(set(ids)) == len(ids)
    assert set(ALL_CHECK_IDS) == set(ids) - {cid for cid, _ in M5_CHECKS}


# -- the seven-element quantale suite -----------------------------------------------


def test_m5_suite_passes_and_reports_the_counterexample_summary():
    report = run_m5_suite()
    assert report.name == "m5-quantale"
    assert report.failed == 0
    assert [r.check_id for r in report.results] == [cid for cid, _ in M5_CHECKS]
    assert report.summary == {
        "unit": 1,
        "cyclic_count": 6,
        "dualizing_count": 1,
        "non_cyclic": [2],
        "dualizing": [2],
    }


def test_m5_suite_honors_the_check_filter():
    report = run_m5_suite(checks=("m5-unit",))
    assert [r.check_id for r in report.results] == ["m5-unit"]
    with pytest.raises(ValueError, match="unknown check ids"):
        run_m5_suite(checks=("m5-nope",))


def test_m5_suite_contains_a_crashing_or_capped_check(monkeypatch):
    ids = [cid for cid, _ in M5_CHECKS]
    k = ids.index("m5-unit")

    def crash():
        raise ValueError("bad unit")

    monkeypatch.setattr("supq.verify.M5_CHECKS", M5_CHECKS[:k] + [("m5-unit", crash)] + M5_CHECKS[k + 1:])
    report = run_m5_suite()
    assert [r.check_id for r in report.results] == ids
    assert report.results[k].status == "fail"
    assert report.results[k].witness == "ValueError: bad unit"
    assert all(r.status == "pass" for r in report.results[k + 1:])

    def capped():
        raise SearchCapExceeded("search exceeded 3 nodes")

    monkeypatch.setattr("supq.verify.M5_CHECKS", M5_CHECKS[:k] + [("m5-unit", capped)] + M5_CHECKS[k + 1:])
    report = run_m5_suite()
    assert report.results[k].status == "skipped"
    assert report.results[k].reason == "search exceeded 3 nodes"
    assert report.failed == 0


# -- report rendering ----------------------------------------------------------------


def test_check_docs_carry_witness_and_reason_only_when_set():
    ok = CheckResult("a", "pass", elapsed=0.5)
    bad = CheckResult("b", "fail", witness="broken", elapsed=0.5)
    skip = CheckResult("c", "skipped", reason="too big", elapsed=0.5)
    assert ok.to_doc() == {"check_id": "a", "status": "pass"}
    assert bad.to_doc() == {"check_id": "b", "status": "fail", "witness": "broken"}
    assert skip.to_doc() == {"check_id": "c", "status": "skipped", "reason": "too big"}


def test_report_json_excludes_timings():
    report = run_suite(make_chain(2), name="chain2")
    doc = json.loads(report_to_json([report]))
    [entry] = doc["reports"]
    assert set(entry) == {"lattice", "summary", "checks"}
    assert entry["lattice"] == {"name": "chain2", "size": 2, "hash": report.hash}
    for c in entry["checks"]:
        assert "elapsed" not in c


def test_report_text_shows_status_lines_and_counts():
    report = run_suite(make_chain(2), name="chain2")
    text = report_to_text([report])
    assert "== chain2 (size 2" in text
    assert "[PASS] lattice-axioms" in text
    assert f"{len(report.results)} passed, 0 failed, 0 skipped" in text
    bare = Report(name="x", size=1, hash="h", results=[], summary={"is_CD": True})
    assert "passed" not in report_to_text([bare])


def test_exit_code_precedence():
    ok = Report("a", 1, "h", [CheckResult("c", "pass")], {})
    failed = Report("a", 1, "h", [CheckResult("c", "fail", witness="w")], {})
    skipped = Report("a", 1, "h", [CheckResult("c", "skipped", reason="r")], {})
    assert _exit_code([ok], strict=False) == EXIT_OK
    assert _exit_code([ok], strict=True) == EXIT_OK
    assert _exit_code([skipped], strict=False) == EXIT_OK
    assert _exit_code([skipped], strict=True) == EXIT_SKIPPED_STRICT
    assert _exit_code([failed], strict=True) == EXIT_CHECK_FAILED
    assert _exit_code([failed, skipped], strict=True) == EXIT_CHECK_FAILED


# -- command line --------------------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_gen_round_trips_through_the_parser(capsys):
    for argv, n in [
        (("gen", "chain", "4"), 4),
        (("gen", "boolean", "2"), 4),
        (("gen", "mk", "3"), 5),
        (("gen", "n5"), 5),
    ]:
        code, out, _ = _run(capsys, *argv)
        assert code == EXIT_OK
        assert parse_lattice(out).n == n


def test_cli_gen_requires_a_parameter_for_sized_families(capsys):
    code, _, err = _run(capsys, "gen", "chain")
    assert code == EXIT_BAD_INPUT
    assert "size parameter" in err
    code, _, err = _run(capsys, "gen", "n5", "3")
    assert code == EXIT_BAD_INPUT


def test_cli_verify_a_generated_file(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "chain", "3")
    path = tmp_path / "chain3.json"
    path.write_text(out)
    code, out, _ = _run(capsys, "verify", str(path), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    [entry] = doc["reports"]
    assert entry["lattice"]["name"] == "chain3"
    assert all(c["status"] == "pass" for c in entry["checks"])


def test_cli_verify_rejects_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"unexpected": true}')
    code, _, err = _run(capsys, "verify", str(path))
    assert code == EXIT_BAD_INPUT
    assert "error:" in err
    code, _, err = _run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == EXIT_BAD_INPUT
    code, _, err = _run(capsys, "verify")
    assert code == EXIT_BAD_INPUT
    code, _, err = _run(capsys, "verify", str(path), "--corpus")
    assert code == EXIT_BAD_INPUT


def test_cli_verify_rejects_booleans_as_cover_indices(tmp_path):
    path = tmp_path / "bool-covers.json"
    path.write_text('{"elements": ["a", "b"], "covers": [[false, true]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "supq.cli", "verify", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_verify_unknown_check_id_is_an_input_error(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "chain", "2")
    path = tmp_path / "chain2.json"
    path.write_text(out)
    code, _, err = _run(capsys, "verify", str(path), "--checks", "no-such-check")
    assert code == EXIT_BAD_INPUT
    assert "unknown check ids" in err


def test_cli_verify_a_poset_check_on_a_lattice_file_is_an_input_error(tmp_path, capsys):
    """A lattice file carries no poset, so a named poset check could not
    run: exit 2 naming it, not a pass with no checks."""
    code, out, _ = _run(capsys, "gen", "boolean", "2")
    path = tmp_path / "b2.json"
    path.write_text(out)
    for cid, _ in POSET_CHECKS:
        code, out, err = _run(capsys, "verify", str(path), "--checks", cid, "--strict", "--format", "json")
        assert code == EXIT_BAD_INPUT and out == ""
        assert err.startswith("error: ") and cid in err
    code, _, err = _run(capsys, "verify", str(path), "--checks", "lattice-axioms,wk-composition")
    assert code == EXIT_BAD_INPUT and "wk-composition" in err and "lattice-axioms" not in err


def test_cli_strict_escalates_skips_only(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "mk", "5")
    path = tmp_path / "m5.json"
    path.write_text(out)
    code, _, _ = _run(capsys, "verify", str(path))
    assert code == EXIT_OK
    code, _, _ = _run(capsys, "verify", str(path), "--strict")
    assert code == EXIT_SKIPPED_STRICT


def test_cli_reports_synthetic_failures(tmp_path, capsys, monkeypatch):
    import supq.verify as verify_mod

    monkeypatch.setattr(
        verify_mod, "CHECKS", verify_mod.CHECKS + [("always-fails", lambda ctx: "synthetic")]
    )
    monkeypatch.setattr(verify_mod, "ALL_CHECK_IDS", verify_mod.ALL_CHECK_IDS + ["always-fails"])
    code, out, _ = _run(capsys, "gen", "chain", "2")
    path = tmp_path / "chain2.json"
    path.write_text(out)
    code, out, _ = _run(capsys, "verify", str(path), "--format", "json", "--strict")
    assert code == EXIT_CHECK_FAILED
    [entry] = json.loads(out)["reports"]
    bad = [c for c in entry["checks"] if c["status"] == "fail"]
    assert bad == [{"check_id": "always-fails", "status": "fail", "witness": "synthetic"}]


def test_cli_analyze_prints_flags_without_checks(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "boolean", "2")
    path = tmp_path / "mycube.json"
    path.write_text(out)
    code, out, _ = _run(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_OK
    [entry] = json.loads(out)["reports"]
    assert entry["lattice"]["name"] == "mycube"
    assert entry["checks"] == []
    assert entry["summary"]["is_CD"] is True
    assert entry["summary"]["dualizing_count"] == 2


def test_cli_analyze_summary_equals_the_corpus_golden(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "mk", "3")
    path = tmp_path / "m3.json"
    path.write_text(out)
    code, out, _ = _run(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_OK
    [entry] = json.loads(out)["reports"]
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "corpus.json"
    [m3] = [r for r in json.loads(golden.read_text())["reports"] if r["lattice"]["name"] == "m3"]
    assert entry["summary"] == m3["summary"]
    assert entry["checks"] == []


@pytest.mark.parametrize("command, checks", [("analyze", ()), ("verify", ("--checks", ""))])
def test_cli_analyze_exits_like_verify_on_a_raising_flag(tmp_path, capsys, monkeypatch, command, checks):
    """analyze is verify with no checks: a summary flag whose kernel raises
    is reported and fails the run."""
    def planted(L):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(verify, "automorphisms", planted)
    path = tmp_path / "n5.json"
    path.write_text(serialize_lattice(make_n5()))
    code, out, _ = _run(capsys, command, str(path), *checks)
    assert code == EXIT_CHECK_FAILED
    assert "[FAIL] flag automorphism_count: ZeroDivisionError: planted" in out


def test_cli_skips_downset_irreducibles_past_the_downset_index_cap(tmp_path, capsys):
    """chain 14 has 13 join-irreducibles: the downset lattice of their order
    spans 2^13 subsets, past MAX_DOWNSET_LATTICE_SIZE.  The guard skips the
    check like any cap, and the lattice is still good input."""
    path = tmp_path / "chain14.json"
    path.write_text(serialize_lattice(make_chain(14)))
    code, out, _ = _run(capsys, "verify", str(path), "--checks", "downset-irreducibles", "--format", "json")
    assert code == EXIT_OK
    [entry] = json.loads(out)["reports"]
    assert entry["checks"] == [{
        "check_id": "downset-irreducibles", "status": "skipped",
        "reason": "downset lattice of a 13-element poset spans 8192 subsets; downsets capped at 4096",
    }]
    code, _, _ = _run(capsys, "verify", str(path), "--checks", "downset-irreducibles", "--strict")
    assert code == EXIT_SKIPPED_STRICT


@pytest.mark.parametrize("flag", ["--max-homset"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_rejects_a_cap_below_one(flag, value):
    proc = subprocess.run(
        [sys.executable, "-m", "supq.cli", "verify", "--corpus", flag, value],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line == f"error: {flag[2:].replace('-', '_')} must be at least 1, got {value}"


def test_cli_rejects_the_removed_autodual_flag():
    """The autodual search reads verify.TABLE_SCAN_CAP; no flag sets it.
    argparse prints its usage line, then the one error line."""
    proc = subprocess.run(
        [sys.executable, "-m", "supq.cli", "verify", "--corpus", "--max-autodual", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    usage, line = proc.stderr.splitlines()
    assert usage.startswith("usage: supq ")
    assert line == "supq: error: unrecognized arguments: --max-autodual"


@pytest.mark.parametrize(
    "argv", [["m5", "--max-homset", "-5"], ["analyze", "{m3}", "--checks", "x", "--strict"]]
)
def test_cli_rejects_flags_the_subcommand_does_not_use(argv, tmp_path):
    m3 = tmp_path / "m3.json"
    m3.write_text(serialize_lattice(make_mk(3)))
    proc = subprocess.run(
        [sys.executable, "-m", "supq.cli", *(a.format(m3=m3) for a in argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments" in proc.stderr


def test_cli_m5_subcommand(capsys):
    code, out, _ = _run(capsys, "m5", "--format", "json")
    assert code == EXIT_OK
    [entry] = json.loads(out)["reports"]
    assert entry["lattice"]["name"] == "m5-quantale"
    assert all(c["status"] == "pass" for c in entry["checks"])
    code, _, err = _run(capsys, "m5", "--checks", "m5-nope")
    assert code == EXIT_BAD_INPUT
    assert "unknown check ids" in err


def test_cli_unknown_subcommand_is_an_input_error(capsys):
    assert main(["frobnicate"]) == EXIT_BAD_INPUT
    capsys.readouterr()


def test_cli_verify_file_runs_are_byte_identical(tmp_path, capsys):
    code, out, _ = _run(capsys, "gen", "boolean", "2")
    path = tmp_path / "b2.json"
    path.write_text(out)
    runs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "verify", str(path), "--format", "json")
        assert code == EXIT_OK
        runs.append(out)
    assert runs[0] == runs[1]


def test_cli_poset_checks_run_for_corpus_downset_entries(capsys):
    code, out, _ = _run(
        capsys, "verify", "--corpus", "--format", "json", "--checks", "wk-bijection"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    names = [e["lattice"]["name"] for e in doc["reports"]]
    assert len(names) == 19
    for entry in doc["reports"]:
        if entry["lattice"]["name"].startswith("downset-"):
            assert [c["check_id"] for c in entry["checks"]] == ["wk-bijection"]
            assert entry["checks"][0]["status"] == "pass"
        else:
            assert entry["checks"] == []
