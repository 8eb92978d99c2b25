"""vlint static analysis: self-hosting, fixtures, baseline, reporters, CLI.

The big contracts under test:

* **Self-hosting** -- the repo's own source tree lints clean (and the CI
  gate runs exactly this pass), so every determinism/dtype/fork/symmetry
  invariant the checkers encode holds in `src/`.
* **Each rule fires** -- the seeded violation fixtures under
  ``tests/fixtures/vlint`` trip every rule, and the CLI exits non-zero on
  them.
* **Deterministic output** -- parallel and serial runs render
  byte-identical reports (including the whole-program phase), and the
  JSON form is stable and parseable.
* **Whole-program closure** -- the cross-module fixtures are quiet
  per-file and light up exactly once each under ``--whole-program``.
* **Static symmetry is backed by behaviour** -- the write/read pairs
  VL004 discovers in ``entropy_coding`` round-trip seeded random values.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    ClockDisciplineChecker,
    DeadApiChecker,
    DeterminismChecker,
    DtypeSafetyChecker,
    ExceptionHygieneChecker,
    ExportSyncChecker,
    Finding,
    ForkSafetyChecker,
    JSON_REPORT_VERSION,
    Severity,
    SymmetricPair,
    SymmetryChecker,
    build_project_index,
    checker_for,
    discover_pairs,
    known_rules,
    lint_file,
    lint_paths,
    load_baseline,
    module_name_for,
    parse_baseline,
    render_baseline,
    render_json,
    render_text,
)
from repro.analysis.engine import STALE_BASELINE_RULE
from repro.cli import build_parser, main
from repro.codec.entropy_coding.bitio import BitReader, BitWriter

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "fixtures" / "vlint"
WHOLE_PROGRAM = FIXTURES / "whole_program"


def rules_in(findings):
    return {f.rule for f in findings}


# ---------------------------------------------------------------------------
# Self-hosting: the repo must satisfy its own invariants
# ---------------------------------------------------------------------------


class TestSelfHosting:
    def test_source_tree_lints_clean(self):
        report = lint_paths([SRC])
        assert report.findings == [], render_text(report)
        assert report.ok
        assert report.files_checked > 80

    def test_whole_program_self_hosts_clean(self):
        # The CI gate: every cross-module rule over src/, with tests/ as
        # the reference tree (test usage keeps public API alive for
        # VL008) and the shipped baseline sanctioning the two documented
        # VL006 exceptions -- and nothing else.
        report = lint_paths(
            [SRC],
            whole_program=True,
            reference_paths=[REPO / "tests"],
            baseline=load_baseline(REPO / ".vlint.toml"),
        )
        assert report.findings == [], render_text(report)
        assert report.stale_entries == []
        assert rules_in(report.suppressed) == {"VL006"}
        assert len(report.suppressed) == 2

    def test_all_eight_rules_registered(self):
        assert known_rules() == [
            "VL001",
            "VL002",
            "VL003",
            "VL004",
            "VL005",
            "VL006",
            "VL007",
            "VL008",
        ]

    def test_registry_maps_rules_to_checkers(self):
        expected = {
            "VL001": DeterminismChecker,
            "VL002": DtypeSafetyChecker,
            "VL003": ForkSafetyChecker,
            "VL004": SymmetryChecker,
            "VL005": ExportSyncChecker,
            "VL006": ExceptionHygieneChecker,
            "VL007": ClockDisciplineChecker,
            "VL008": DeadApiChecker,
        }
        for rule, cls in expected.items():
            assert isinstance(checker_for(rule), cls)


# ---------------------------------------------------------------------------
# Rule fixtures: every checker fires on its seeded violations
# ---------------------------------------------------------------------------


class TestDeterminismRule:
    FIXTURE = FIXTURES / "src" / "repro" / "codec" / "bad_determinism.py"

    def test_fires(self):
        findings = lint_file(self.FIXTURE)
        assert rules_in(findings) == {"VL001"}
        messages = " | ".join(f.message for f in findings)
        assert "without a seed" in messages
        assert "global random module" in messages
        assert "time.time()" in messages
        assert "wall_seconds" in messages
        assert "cache_key" in messages

    def test_sanctioned_wall_seconds_site_not_flagged(self):
        findings = lint_file(self.FIXTURE)
        source = self.FIXTURE.read_text()
        sanctioned_line = (
            source[: source.index("def sanctioned_measurement")].count("\n")
            + 1
        )
        assert all(f.line < sanctioned_line for f in findings)

    def test_out_of_scope_module_ignored(self, tmp_path):
        # Same code outside repro.codec/exec/robust is not VL001's business.
        path = tmp_path / "src" / "repro" / "metrics" / "timing.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\nNOW = time.time()\n")
        assert lint_file(path, rules=["VL001"]) == []

    def test_scoped_module_caught(self, tmp_path):
        path = tmp_path / "src" / "repro" / "robust" / "leak.py"
        path.parent.mkdir(parents=True)
        path.write_text("import time\n\nNOW = time.time()\n")
        assert rules_in(lint_file(path, rules=["VL001"])) == {"VL001"}

    def test_fleet_module_is_in_both_time_scopes(self, tmp_path):
        # The fleet chaos layer must replay byte-for-byte, so it sits
        # inside VL001's deterministic packages and VL007's
        # simulated-time scope (both by the repro.traffic prefix).
        from repro.analysis.checkers.clock_discipline import (
            _in_scope as clock_scope,
        )
        from repro.analysis.checkers.determinism import (
            _in_scope as det_scope,
        )

        assert det_scope("repro.traffic.fleet")
        assert clock_scope("repro.traffic.fleet")
        path = tmp_path / "src" / "repro" / "traffic" / "fleet_leak.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import numpy as np\n\nRNG = np.random.default_rng()\n"
        )
        assert rules_in(lint_file(path, rules=["VL001"])) == {"VL001"}


class TestDtypeRule:
    FIXTURE = FIXTURES / "src" / "repro" / "codec" / "bad_dtype.py"

    def test_fires(self):
        findings = lint_file(self.FIXTURE)
        assert rules_in(findings) == {"VL002"}
        messages = " | ".join(f.message for f in findings)
        assert "wraps at 0/255" in messages
        assert "np.clip" in messages

    def test_guarded_sites_not_flagged(self):
        findings = lint_file(self.FIXTURE)
        source = self.FIXTURE.read_text().splitlines()
        for finding in findings:
            assert "safe_" not in source[finding.line - 1]


class TestForkSafetyRule:
    FIXTURE = FIXTURES / "src" / "repro" / "exec" / "bad_forksafety.py"

    def test_fires(self):
        findings = lint_file(self.FIXTURE)
        assert rules_in(findings) == {"VL003"}
        messages = " | ".join(f.message for f in findings)
        assert "global COUNTER" in messages
        assert "mutates module-level state 'RESULTS'" in messages
        assert "mutable default" in messages
        assert "lambda" in messages
        assert "nested function" in messages
        assert len(findings) == 5


class TestSymmetryRule:
    FIXTURE = (
        FIXTURES
        / "src"
        / "repro"
        / "codec"
        / "entropy_coding"
        / "bad_symmetry.py"
    )

    def test_fires(self):
        findings = lint_file(self.FIXTURE)
        assert rules_in(findings) == {"VL004"}
        messages = " | ".join(f.message for f in findings)
        assert "write_orphan" in messages
        assert "read_widow" in messages
        assert "disagree in order" in messages

    def test_mirrored_pair_not_flagged(self):
        findings = lint_file(self.FIXTURE)
        assert not any("pure" in f.message for f in findings)

    def test_discovery_matches_fixture(self):
        tree = ast.parse(self.FIXTURE.read_text())
        pairs = discover_pairs(tree)
        assert {p.suffix for p in pairs} == {"twisted", "pure"}


class TestExportSyncRule:
    FIXTURE = FIXTURES / "src" / "repro" / "badpkg" / "__init__.py"

    def test_fires(self):
        findings = lint_file(self.FIXTURE)
        assert rules_in(findings) == {"VL005"}
        messages = " | ".join(f.message for f in findings)
        assert "phantom_export" in messages
        assert "'tau'" in messages

    def test_missing_all_flagged(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "nopkg"
        pkg.mkdir(parents=True)
        init = pkg / "__init__.py"
        init.write_text('"""No __all__ here."""\n\nVALUE = 1\n')
        findings = lint_file(init, rules=["VL005"])
        assert len(findings) == 1
        assert "no __all__" in findings[0].message

    def test_clean_init_passes(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "okpkg"
        pkg.mkdir(parents=True)
        init = pkg / "__init__.py"
        init.write_text(
            "from math import sqrt\n\n__all__ = [\"sqrt\"]\n"
        )
        assert lint_file(init, rules=["VL005"]) == []


class TestExceptionHygieneRule:
    FIXTURE = FIXTURES / "src" / "repro" / "codec" / "bad_exceptions.py"

    def test_fires(self):
        findings = lint_file(self.FIXTURE)
        assert rules_in(findings) == {"VL006"}
        messages = " | ".join(f.message for f in findings)
        assert "read_marker" in messages
        assert "decode_block" in messages
        assert "ToyDecoder.parse" in messages
        assert len(findings) == 3

    def test_allowed_raises_not_flagged(self):
        findings = lint_file(self.FIXTURE)
        source = self.FIXTURE.read_text().splitlines()
        for finding in findings:
            assert "allowed" not in source[finding.line - 1]
        messages = " | ".join(f.message for f in findings)
        # Out-of-scope and write-side raises never appear.
        assert "helper" not in messages
        assert "ToyWriter" not in messages

    def test_out_of_scope_module_ignored(self, tmp_path):
        path = tmp_path / "src" / "repro" / "video" / "reader.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def read_thing(reader):\n    raise ValueError('fine here')\n"
        )
        assert lint_file(path, rules=["VL006"]) == []

    def test_real_decode_paths_self_host_clean(self):
        report = lint_paths([SRC / "codec"], rules=["VL006"])
        assert report.findings == [], render_text(report)


# ---------------------------------------------------------------------------
# Engine: determinism, parallelism, module naming
# ---------------------------------------------------------------------------


class TestEngine:
    def test_parallel_report_byte_identical_to_serial(self):
        serial = lint_paths([FIXTURES])
        parallel = lint_paths([FIXTURES], jobs=3)
        assert render_json(serial) == render_json(parallel)
        assert render_text(serial) == render_text(parallel)

    def test_rules_filter(self):
        report = lint_paths([FIXTURES], rules=["VL004"])
        assert rules_in(report.findings) == {"VL004"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_paths([FIXTURES], rules=["VL999"])

    def test_missing_path_rejected(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([FIXTURES / "no_such_dir"])

    def test_explicitly_named_non_py_file_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not python\n")
        with pytest.raises(ValueError, match="must end in .py"):
            lint_paths([path])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            lint_paths([FIXTURES], jobs=0)

    def test_module_name_inference(self):
        assert (
            module_name_for("src/repro/codec/encoder.py")
            == "repro.codec.encoder"
        )
        assert module_name_for("src/repro/exec/__init__.py") == "repro.exec"
        assert (
            module_name_for("tests/fixtures/vlint/src/repro/codec/x.py")
            == "repro.codec.x"
        )
        assert module_name_for("standalone.py") == "standalone"

    def test_findings_sorted(self):
        report = lint_paths([FIXTURES])
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_baseline_suppresses_matching_findings(self):
        baseline = Baseline(
            entries=(
                BaselineEntry(
                    rule="VL005",
                    path="src/repro/badpkg/__init__.py",
                    reason="fixture",
                ),
            )
        )
        report = lint_paths([FIXTURES], baseline=baseline)
        assert "VL005" not in rules_in(report.findings)
        assert rules_in(report.suppressed) == {"VL005"}

    def test_line_scoped_entry(self):
        finding = Finding(
            rule="VL001", path="src/a.py", line=10, column=1, message="m"
        )
        hit = BaselineEntry(rule="VL001", path="src/a.py", reason="r", line=10)
        miss = BaselineEntry(rule="VL001", path="src/a.py", reason="r", line=9)
        assert hit.matches(finding)
        assert not miss.matches(finding)

    def test_parse_roundtrip(self):
        text = (
            "# comment\n"
            "[[allow]]\n"
            'rule = "VL002"\n'
            'path = "src/x.py"\n'
            "line = 12\n"
            'reason = "intentional wrap # really"\n'
        )
        baseline = parse_baseline(text)
        assert baseline.entries == (
            BaselineEntry(
                rule="VL002",
                path="src/x.py",
                reason="intentional wrap # really",
                line=12,
                lineno=2,  # the [[allow]] header's own line
            ),
        )

    def test_reason_is_mandatory(self):
        with pytest.raises(ValueError, match="reason"):
            parse_baseline('[[allow]]\nrule = "VL001"\npath = "x.py"\n')

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_baseline(
                '[[allow]]\nrule = "VL001"\npath = "x"\nreason = "r"\n'
                'excuse = "no"\n'
            )

    def test_shipped_baseline_holds_only_documented_vl006_debt(self):
        baseline = load_baseline(REPO / ".vlint.toml")
        assert len(baseline.entries) == 2
        assert {e.rule for e in baseline.entries} == {"VL006"}
        for entry in baseline.entries:
            assert "zigzag_order" in entry.reason
            assert entry.line is not None


# ---------------------------------------------------------------------------
# Whole-program closure: the cross-module fixtures
# ---------------------------------------------------------------------------


def wp_findings(**kwargs):
    return lint_paths([WHOLE_PROGRAM], whole_program=True, **kwargs).findings


class TestWholeProgram:
    def test_fixture_tree_is_quiet_per_file(self):
        report = lint_paths([WHOLE_PROGRAM])
        assert report.findings == [], render_text(report)
        assert report.files_checked == 10

    def test_exactly_the_seeded_findings_fire(self):
        findings = wp_findings()
        assert sorted(f.rule for f in findings) == [
            "VL001", "VL002", "VL002", "VL006", "VL007", "VL008",
        ]

    def test_vl001_taint_crosses_the_call_boundary(self):
        [f] = [f for f in wp_findings() if f.rule == "VL001"]
        assert f.path.endswith("codec/keys.py")
        assert "reaches cache_key() across a call boundary" in f.message
        assert "via local 'jitter'" in f.message

    def test_vl002_tracks_uint8_through_returns(self):
        vl002 = [f for f in wp_findings() if f.rule == "VL002"]
        cur = next(f for f in vl002 if "'cur'" in f.message)
        ref = next(f for f in vl002 if "'ref'" in f.message)
        assert cur.path.endswith("codec/residual_chain.py")
        assert cur.line == ref.line
        for f in (cur, ref):
            assert (
                "uint8 returned by repro.codec.planes.uint8_plane()"
                in f.message
            )

    def test_vl006_reports_the_transitive_leak_site(self):
        [f] = [f for f in wp_findings() if f.rule == "VL006"]
        assert f.path.endswith("codec/bad_reader.py")
        assert "decode path 'decode_header'" in f.message
        assert "ValueError raised at repro.codec.depth.check_depth:11" in (
            f.message
        )

    def test_vl007_names_the_wall_clock_chain(self):
        [f] = [f for f in wp_findings() if f.rule == "VL007"]
        assert f.path.endswith("traffic/bad_clock.py")
        assert (
            "repro.timeutil.stamp -> time.perf_counter" in f.message
        )

    def test_vl008_flags_only_the_dead_export(self):
        [f] = [f for f in wp_findings() if f.rule == "VL008"]
        assert f.path.endswith("deadpkg/__init__.py")
        assert "'dead_fn'" in f.message
        assert "used_fn" not in f.message

    def test_reference_tree_keeps_exports_alive(self, tmp_path):
        # A test file referencing dead_fn makes it count as used --
        # reference paths contribute usage but are never linted.
        ref = tmp_path / "test_deadpkg.py"
        ref.write_text(
            "from repro.deadpkg import dead_fn\n\n\n"
            "def test_dead_fn():\n    assert dead_fn() == 2\n"
        )
        findings = wp_findings(reference_paths=[ref])
        assert [f.rule for f in findings if f.rule == "VL008"] == []

    def test_serial_and_parallel_whole_program_byte_identical(self):
        serial = lint_paths([WHOLE_PROGRAM], whole_program=True)
        parallel = lint_paths([WHOLE_PROGRAM], whole_program=True, jobs=4)
        assert render_json(serial) == render_json(parallel)
        assert render_text(serial) == render_text(parallel)

    def test_call_graph_attached_and_resolved(self):
        report = lint_paths([WHOLE_PROGRAM], whole_program=True)
        graph = report.call_graph
        assert graph is not None
        assert "repro.traffic.bad_clock" in graph["modules"]
        caller = graph["functions"]["repro.traffic.bad_clock.next_deadline"]
        assert caller["calls"] == ["repro.timeutil.stamp"]
        # Per-file runs carry no graph.
        assert lint_paths([WHOLE_PROGRAM]).call_graph is None

    def test_build_project_index_programmatic_entry(self):
        index = build_project_index([WHOLE_PROGRAM])
        resolved = index.graph.resolve("repro.deadpkg.used_fn")
        assert resolved == "repro.deadpkg.impl.used_fn"
        assert "repro.codec.planes.uint8_plane" in index.graph.functions


# ---------------------------------------------------------------------------
# Baseline hygiene: stale entries surface, --prune-baseline removes them
# ---------------------------------------------------------------------------

STALE_TEXT = (
    "[[allow]]\n"
    'rule = "VL001"\n'
    'path = "src/repro/gone.py"\n'
    "line = 3\n"
    'reason = "the sanctioned site was deleted long ago"\n'
)

LIVE_TEXT = (
    "[[allow]]\n"
    'rule = "VL008"\n'
    'path = "src/repro/deadpkg/__init__.py"\n'
    'reason = "kept for a downstream consumer"\n'
)


class TestBaselineHygiene:
    def test_stale_entry_becomes_a_warning_on_full_runs(self, tmp_path):
        baseline_file = tmp_path / "allow.toml"
        baseline_file.write_text(STALE_TEXT)
        baseline = load_baseline(baseline_file)
        report = lint_paths(
            [WHOLE_PROGRAM], whole_program=True, baseline=baseline
        )
        assert report.stale_entries == list(baseline.entries)
        [warning] = [
            f for f in report.findings if f.rule == STALE_BASELINE_RULE
        ]
        assert warning.severity is Severity.WARNING
        assert warning.path == str(baseline_file)
        assert "VL001 at src/repro/gone.py:3" in warning.message
        assert "--prune-baseline" in warning.message

    def test_warnings_do_not_fail_the_run(self, tmp_path):
        clean = tmp_path / "src" / "repro" / "quiet.py"
        clean.parent.mkdir(parents=True)
        clean.write_text('"""Nothing to see."""\n\nVALUE = 1\n')
        baseline_file = tmp_path / "allow.toml"
        baseline_file.write_text(STALE_TEXT)
        report = lint_paths(
            [clean],
            whole_program=True,
            baseline=load_baseline(baseline_file),
        )
        assert rules_in(report.findings) == {STALE_BASELINE_RULE}
        assert report.ok  # a stale entry warns; it never gates CI.

    def test_staleness_undecidable_on_partial_runs(self, tmp_path):
        baseline_file = tmp_path / "allow.toml"
        baseline_file.write_text(STALE_TEXT)
        baseline = load_baseline(baseline_file)
        per_file = lint_paths([WHOLE_PROGRAM], baseline=baseline)
        assert per_file.stale_entries == []
        assert rules_in(per_file.findings) == set()
        filtered = lint_paths(
            [WHOLE_PROGRAM],
            rules=["VL001"],
            whole_program=True,
            baseline=baseline,
        )
        assert filtered.stale_entries == []

    def test_render_baseline_roundtrips(self):
        entries = (
            BaselineEntry(
                rule="VL002", path="src/x.py", reason="wrap ok", line=9
            ),
            BaselineEntry(rule="VL005", path="src/y.py", reason="legacy"),
        )
        parsed = parse_baseline(render_baseline(entries))
        assert [
            (e.rule, e.path, e.line, e.reason) for e in parsed.entries
        ] == [(e.rule, e.path, e.line, e.reason) for e in entries]

    def test_prune_baseline_cli_drops_only_stale_entries(
        self, tmp_path, capsys
    ):
        baseline_file = tmp_path / "allow.toml"
        baseline_file.write_text(LIVE_TEXT + "\n" + STALE_TEXT)
        code = main(
            [
                "lint",
                "--whole-program",
                "--baseline",
                str(baseline_file),
                "--prune-baseline",
                str(WHOLE_PROGRAM),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale entry" in out
        kept = load_baseline(baseline_file)
        assert len(kept.entries) == 1
        assert kept.entries[0].rule == "VL008"
        assert kept.entries[0].reason == "kept for a downstream consumer"

    def test_prune_baseline_requires_whole_program(self, capsys):
        assert main(
            ["lint", "--prune-baseline", str(WHOLE_PROGRAM)]
        ) == 2
        assert "requires --whole-program" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


class TestReporters:
    def test_json_is_stable_and_parseable(self):
        once = render_json(lint_paths([FIXTURES]))
        twice = render_json(lint_paths([FIXTURES], jobs=2))
        assert once == twice
        payload = json.loads(once)
        assert payload["version"] == JSON_REPORT_VERSION == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 16
        finding = payload["findings"][0]
        assert set(finding) == {
            "rule", "path", "line", "column", "message", "severity",
        }
        assert all(
            f["severity"] == Severity.ERROR.value
            for f in payload["findings"]
        )

    def test_text_summary_counts(self):
        report = lint_paths([FIXTURES])
        text = render_text(report)
        assert f"{len(report.findings)} findings" in text
        assert "in 16 files" in text


# ---------------------------------------------------------------------------
# CLI: the CI gate
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_repo_lints_clean(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_nonzero_on_each_rule_fixture(self, capsys):
        # Only the per-file fixtures under src/: the whole_program tree
        # is deliberately quiet without --whole-program.
        fixture_files = sorted((FIXTURES / "src").rglob("*.py"))
        assert len(fixture_files) == 6
        for path in fixture_files:
            assert main(["lint", str(path)]) == 1, path
        capsys.readouterr()

    def test_json_output(self, capsys):
        assert main(["lint", "--json", str(FIXTURES)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert len(payload["findings"]) > 0

    def test_rules_filter(self, capsys):
        assert main(["lint", "--rules", "VL005", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "VL005" in out
        assert "VL001" not in out

    def test_baseline_flag(self, tmp_path, capsys):
        baseline = tmp_path / "allow.toml"
        baseline.write_text(
            "[[allow]]\n"
            'rule = "VL005"\n'
            'path = "src/repro/badpkg/__init__.py"\n'
            'reason = "fixture is intentionally broken"\n'
        )
        fixture = FIXTURES / "src" / "repro" / "badpkg" / "__init__.py"
        assert main(
            ["lint", "--baseline", str(baseline), str(fixture)]
        ) == 0
        assert "2 baselined" in capsys.readouterr().out

    def test_jobs_flag_output_identical(self, capsys):
        main(["lint", "--json", str(FIXTURES)])
        serial = capsys.readouterr().out
        main(["lint", "--json", "--jobs", "2", str(FIXTURES)])
        assert capsys.readouterr().out == serial

    def test_missing_path_is_error(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parser_exposes_whole_program_flags(self):
        args = build_parser().parse_args(
            [
                "lint",
                "--whole-program",
                "--reference",
                "tests",
                "--jobs",
                "4",
                "x.py",
            ]
        )
        assert args.whole_program is True
        assert args.reference == ["tests"]
        assert args.jobs == 4

    def test_whole_program_cli_fires_and_is_parallel_stable(
        self, capsys
    ):
        base = [
            "lint", "--json", "--no-baseline",
            "--whole-program", str(WHOLE_PROGRAM),
        ]
        assert main(base) == 1
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "4"]) == 1
        assert capsys.readouterr().out == serial
        payload = json.loads(serial)
        assert sorted(f["rule"] for f in payload["findings"]) == [
            "VL001", "VL002", "VL002", "VL006", "VL007", "VL008",
        ]

    def test_graph_out_requires_whole_program(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        code = main(
            ["lint", "--graph-out", str(graph_file), str(WHOLE_PROGRAM)]
        )
        assert code == 2
        assert "requires --whole-program" in capsys.readouterr().err
        assert not graph_file.exists()

    def test_graph_out_writes_the_resolved_graph(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        main(
            [
                "lint", "--whole-program", "--no-baseline",
                "--graph-out", str(graph_file), str(WHOLE_PROGRAM),
            ]
        )
        capsys.readouterr()
        graph = json.loads(graph_file.read_text())
        assert "repro.deadpkg.impl" in graph["modules"]
        assert (
            graph["functions"]["repro.usedby.run"]["calls"]
            == ["repro.deadpkg.impl.used_fn"]
        )


# ---------------------------------------------------------------------------
# VL004-discovered pairs round-trip behaviourally (satellite)
# ---------------------------------------------------------------------------


def entropy_coding_pairs():
    package = SRC / "codec" / "entropy_coding"
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for pair in discover_pairs(ast.parse(path.read_text())):
            out.append((path.stem, pair))
    return out


class TestSymmetryRoundTrip:
    def test_discovery_finds_the_known_pairs(self):
        assert all(
            isinstance(pair, SymmetricPair)
            for _, pair in entropy_coding_pairs()
        )
        found = {
            (module, pair.class_name, pair.suffix)
            for module, pair in entropy_coding_pairs()
        }
        assert ("expgolomb", None, "ue") in found
        assert ("expgolomb", None, "se") in found
        assert ("bitio", "BitWriter", "") in found
        assert ("bitio", "BitWriter", "bit") in found
        assert ("bitio", "BitWriter", "array") in found
        assert ("bitio", "BitWriter", "bytes") in found
        assert ("cabac", "CabacEncoder", "bit") in found
        assert ("cabac", "CabacEncoder", "blocks") in found

    def test_module_level_pairs_roundtrip_random_values(self):
        import repro.codec.entropy_coding.expgolomb as expgolomb

        rng = np.random.default_rng(1234)
        pairs = [
            pair
            for module, pair in entropy_coding_pairs()
            if module == "expgolomb" and pair.class_name is None
        ]
        assert pairs, "expected module-level write_/read_ pairs"
        for pair in pairs:
            write = getattr(expgolomb, pair.write_name)
            read = getattr(expgolomb, pair.read_name)
            if pair.suffix.startswith("se"):
                values = rng.integers(-50_000, 50_000, size=200)
            else:
                values = rng.integers(0, 100_000, size=200)
            writer = BitWriter()
            if pair.suffix in ("ues", "ses"):
                # The vectorized pairs speak arrays, not scalars.
                write(writer, values)
                reader = BitReader(writer.getvalue())
                decoded = read(reader, values.size).tolist()
            else:
                for value in values:
                    write(writer, int(value))
                reader = BitReader(writer.getvalue())
                decoded = [read(reader) for _ in values]
            assert decoded == [int(v) for v in values], pair

    def test_bitio_method_pairs_roundtrip(self):
        rng = np.random.default_rng(99)
        lengths = rng.integers(1, 20, size=64)
        values = np.array(
            [int(rng.integers(0, 1 << int(n))) for n in lengths],
            dtype=np.int64,
        )
        bits = rng.integers(0, 2, size=32)

        writer = BitWriter()
        for bit in bits:
            writer.write_bit(int(bit))
        writer.align()
        writer.write_array(values, lengths)
        writer.align()
        writer.write_bytes(b"vbench")

        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in bits] == [int(b) for b in bits]
        reader.align()
        decoded = reader.read_array(lengths)
        assert decoded.tolist() == values.tolist()
        reader.align()
        assert reader.read_bytes(6) == b"vbench"

    def test_write_bit_rejects_non_bits(self):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            BitWriter().write_bit(2)

    def test_read_array_rejects_bad_shape(self):
        with pytest.raises(TypeError, match="1-D"):
            BitReader(b"\x00").read_array(np.zeros((2, 2), dtype=np.int64))
