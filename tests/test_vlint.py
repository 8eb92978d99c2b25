"""vlint static analysis: self-hosting, fixtures, reporters, CLI.

The big contracts under test:

* **Self-hosting** -- the repo's own source tree lints clean (and the CI
  gate runs exactly this pass), so every fork/symmetry/export/exception
  invariant the checkers encode holds in `src/`.
* **Each rule fires** -- the seeded violation fixtures under
  ``tests/fixtures/vlint`` trip every rule, and the CLI exits non-zero on
  them.
* **Deterministic output** -- parallel and serial runs render
  byte-identical reports (including the project phase), and the
  JSON form is stable and parseable.
* **Pinned findings** -- the full finding lists for both fixture trees,
  and the bytes of ``--graph-out``, are pinned.
* **Whole-program closure** -- the cross-module fixtures are quiet under
  the file rules and light up exactly once each under the project rules.
* **Static symmetry is backed by behaviour** -- the write/read pairs
  VL004 discovers in ``entropy_coding`` round-trip seeded random values.
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    DeadApiChecker,
    ExceptionHygieneChecker,
    ExportSyncChecker,
    ForkSafetyChecker,
    JSON_REPORT_VERSION,
    Severity,
    SymmetricPair,
    SymmetryChecker,
    all_checkers,
    build_project_index,
    checker_for,
    discover_pairs,
    lint_paths,
    module_name_for,
    render_json,
    render_text,
)
from repro.cli import build_parser, main
from repro.codec.entropy_coding.bitio import BitReader, BitWriter

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = REPO / "tests" / "fixtures" / "vlint"
WHOLE_PROGRAM = FIXTURES / "whole_program"


def rules_in(findings):
    return {f.rule for f in findings}


def lint(path, rules):
    return lint_paths([path], rules=rules).findings


def _overrides(rule, hook):
    return hook in vars(type(checker_for(rule)))


#: The rules with a file-local implementation (``check``); the rest are
#: project rules (``check_project``).
RULES = [checker.rule for checker in all_checkers()]
FILE_RULES = [rule for rule in RULES if _overrides(rule, "check")]


@pytest.fixture(scope="module")
def src_report():
    """The CI gate, run once: src/ with tests/ as the reference tree."""
    return lint_paths([SRC], reference_paths=[REPO / "tests"])


# ---------------------------------------------------------------------------
# Self-hosting: the repo must satisfy its own invariants
# ---------------------------------------------------------------------------


class TestSelfHosting:
    def test_source_tree_lints_clean(self, src_report):
        assert src_report.findings == [], render_text(src_report)
        assert src_report.ok
        assert src_report.files_checked > 80

    def test_whole_program_self_hosts_clean(self, src_report):
        # Test usage keeps public API alive for VL008, and the project
        # rules find nothing across the resolved call graph.
        assert src_report.call_graph["functions"]
        assert src_report.findings == []

    def test_all_eight_rules_registered(self):
        # Eight rule ids were issued.  VL001, VL002 and VL007 are retired
        # (DESIGN.md, "Which rules earn their code"); ids are never reused.
        issued = [f"VL00{n}" for n in range(1, 9)]
        retired = {"VL001", "VL002", "VL007"}
        assert RULES == [rule for rule in issued if rule not in retired]

    def test_registry_maps_rules_to_checkers(self):
        expected = {
            "VL003": ForkSafetyChecker,
            "VL004": SymmetryChecker,
            "VL005": ExportSyncChecker,
            "VL006": ExceptionHygieneChecker,
            "VL008": DeadApiChecker,
        }
        for rule, cls in expected.items():
            assert isinstance(checker_for(rule), cls)

    def test_each_rule_has_exactly_one_implementation(self):
        for rule in RULES:
            file_rule = _overrides(rule, "check")
            project_rule = _overrides(rule, "check_project")
            assert file_rule != project_rule, rule
        assert FILE_RULES == ["VL003", "VL004", "VL005"]


# ---------------------------------------------------------------------------
# Rule fixtures: every checker fires on its seeded violations
# ---------------------------------------------------------------------------


class TestForkSafetyRule:
    FIXTURE = FIXTURES / "src" / "repro" / "exec" / "bad_forksafety.py"

    def test_fires(self):
        findings = lint(self.FIXTURE, ["VL003"])
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
        findings = lint(self.FIXTURE, ["VL004"])
        assert rules_in(findings) == {"VL004"}
        messages = " | ".join(f.message for f in findings)
        assert "write_orphan" in messages
        assert "read_widow" in messages
        assert "disagree in order" in messages

    def test_mirrored_pair_not_flagged(self):
        findings = lint(self.FIXTURE, ["VL004"])
        assert not any("pure" in f.message for f in findings)

    def test_discovery_matches_fixture(self):
        tree = ast.parse(self.FIXTURE.read_text())
        pairs = discover_pairs(tree)
        assert {p.suffix for p in pairs} == {"twisted", "pure"}


class TestExportSyncRule:
    FIXTURE = FIXTURES / "src" / "repro" / "badpkg" / "__init__.py"

    def test_fires(self):
        findings = lint(self.FIXTURE, ["VL005"])
        assert rules_in(findings) == {"VL005"}
        messages = " | ".join(f.message for f in findings)
        assert "phantom_export" in messages
        assert "'tau'" in messages

    def test_missing_all_flagged(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "nopkg"
        pkg.mkdir(parents=True)
        init = pkg / "__init__.py"
        init.write_text('"""No __all__ here."""\n\nVALUE = 1\n')
        findings = lint(init, ["VL005"])
        assert len(findings) == 1
        assert "no __all__" in findings[0].message

    def test_clean_init_passes(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "okpkg"
        pkg.mkdir(parents=True)
        init = pkg / "__init__.py"
        init.write_text(
            "from math import sqrt\n\n__all__ = [\"sqrt\"]\n"
        )
        assert lint(init, ["VL005"]) == []


class TestExceptionHygieneRule:
    FIXTURE = FIXTURES / "src" / "repro" / "codec" / "bad_exceptions.py"

    def test_fires(self):
        findings = lint(self.FIXTURE, ["VL006"])
        assert rules_in(findings) == {"VL006"}
        messages = " | ".join(f.message for f in findings)
        assert "read_marker" in messages
        assert "decode_block" in messages
        assert "ToyDecoder.parse" in messages
        assert len(findings) == 3

    def test_allowed_raises_not_flagged(self):
        findings = lint(self.FIXTURE, ["VL006"])
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
        assert lint(path, ["VL006"]) == []

    def test_real_decode_paths_self_host_clean(self):
        # The decode paths index prebuilt scan tables, so nothing leaks.
        report = lint_paths([SRC / "codec"], rules=["VL006"])
        assert report.findings == [], render_text(report)

    def test_direct_raise_and_transitive_leak_are_reported_once(
        self, tmp_path
    ):
        # A decode path's own raise is reported at the raise; a helper's
        # raise is reported once, at the public decode path reaching it.
        path = tmp_path / "src" / "repro" / "codec" / "both.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def _check(n):\n"
            "    if n < 0:\n"
            "        raise ValueError(n)\n"
            "    return n\n"
            "\n\n"
            "def read_size(reader):\n"
            "    if not reader:\n"
            "        raise EOFError\n"
            "    return _check(reader[0])\n"
        )
        findings = lint(path, ["VL006"])
        assert [(f.line, f.column) for f in findings] == [(7, 1), (9, 9)]
        leak, direct = findings
        assert "can leak ValueError raised at repro.codec.both._check:3" in (
            leak.message
        )
        assert "'read_size' raises EOFError" in direct.message


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
# Whole-program closure: the cross-module fixtures
# ---------------------------------------------------------------------------


SRC_FIXTURE_FINDINGS = [
    ("VL005", "src/repro/badpkg/__init__.py", 8, 1, "error",
     "__all__ lists 'phantom_export' but the module never binds it; "
     "`from ... import *` would raise AttributeError"),
    ("VL005", "src/repro/badpkg/__init__.py", 8, 1, "error",
     "public name 'tau' is bound in the package but missing from "
     "__all__; exports have drifted"),
    ("VL008", "src/repro/badpkg/__init__.py", 9, 5, "error",
     "'sqrt' is exported in __all__ but nothing in the repo (or its "
     "tests) references it; remove the export and the dead code it "
     "names, or add the missing caller"),
    ("VL008", "src/repro/badpkg/__init__.py", 10, 5, "error",
     "'phantom_export' is exported in __all__ but nothing in the "
     "repo (or its tests) references it; remove the export and the "
     "dead code it names, or add the missing caller"),
    ("VL006", "src/repro/codec/bad_exceptions.py", 11, 9, "error",
     "decode path 'read_marker' raises ValueError; malformed input "
     "must surface as a BitstreamError subclass "
     "(TruncatedStream/CorruptPayload/HeaderError) so concealment "
     "and the fuzz oracle can catch it"),
    ("VL006", "src/repro/codec/bad_exceptions.py", 20, 5, "error",
     "decode path 'decode_block' raises KeyError; malformed input "
     "must surface as a BitstreamError subclass "
     "(TruncatedStream/CorruptPayload/HeaderError) so concealment "
     "and the fuzz oracle can catch it"),
    ("VL006", "src/repro/codec/bad_exceptions.py", 36, 9, "error",
     "decode path 'ToyDecoder.parse' raises OSError; malformed input "
     "must surface as a BitstreamError subclass "
     "(TruncatedStream/CorruptPayload/HeaderError) so concealment "
     "and the fuzz oracle can catch it"),
    ("VL004", "src/repro/codec/entropy_coding/bad_symmetry.py", 7, 1, "error",
     "'write_orphan' (module) has no mirrored reader; every writer "
     "needs a matching read_/decode_ counterpart"),
    ("VL004", "src/repro/codec/entropy_coding/bad_symmetry.py", 11, 1, "error",
     "'read_widow' (module) has no mirrored writer; every reader "
     "needs a matching write_/encode_ counterpart"),
    ("VL004", "src/repro/codec/entropy_coding/bad_symmetry.py", 21, 1, "error",
     "shared parameters of 'write_twisted'/'read_twisted' disagree "
     "in order (['flag', 'count'] vs ['count', 'flag']); mirrored "
     "signatures must agree"),
    ("VL004", "src/repro/codec/entropy_coding/planted_signature_drift.py", 20,
     5, "error",
     "shared parameters of 'encode_blocks'/'decode_blocks' disagree in "
     "order (['chroma', 'size'] vs ['size', 'chroma']); mirrored "
     "signatures must agree"),
    ("VL003", "src/repro/core/planted_lost_state.py", 20, 5, "error",
     "pool worker 'run_video' mutates module-level state 'REFERENCES'; "
     "the write is lost outside this worker process"),
    ("VL003", "src/repro/exec/bad_forksafety.py", 13, 5, "error",
     "pool worker 'leaky_worker' declares global COUNTER; workers "
     "must not write module state -- return results instead"),
    ("VL003", "src/repro/exec/bad_forksafety.py", 19, 5, "error",
     "pool worker 'stateful_worker' mutates module-level state "
     "'RESULTS'; the write is lost outside this worker process"),
    ("VL003", "src/repro/exec/bad_forksafety.py", 23, 41, "error",
     "pool worker 'defaulted_worker' has a mutable default argument; "
     "that object is shared state that diverges across the fork"),
    ("VL003", "src/repro/exec/bad_forksafety.py", 33, 36, "error",
     "lambda dispatched to the process pool; lambdas are unpicklable "
     "under spawn -- use a module-level function"),
    ("VL003", "src/repro/exec/bad_forksafety.py", 38, 36, "error",
     "nested function 'closure_worker' dispatched to the process "
     "pool; closures are unpicklable under spawn -- hoist it to "
     "module level"),
    ("VL005", "src/repro/noallpkg/__init__.py", 1, 1, "error",
     "package __init__ defines no __all__; the re-export surface must be "
     "explicit"),
    ("VL005", "src/repro/plantedpkg/__init__.py", 13, 1, "error",
     "__all__ lists 'nan' but the module never binds it; "
     "`from ... import *` would raise AttributeError"),
    ("VL005", "src/repro/plantedpkg/__init__.py", 13, 1, "error",
     "public name 'DEFAULT_LIMIT' is bound in the package but missing "
     "from __all__; exports have drifted"),
    ("VL008", "src/repro/plantedpkg/__init__.py", 14, 5, "error",
     "'inf' is exported in __all__ but nothing in the repo (or its "
     "tests) references it; remove the export and the dead code it "
     "names, or add the missing caller"),
    ("VL008", "src/repro/plantedpkg/__init__.py", 15, 5, "error",
     "'nan' is exported in __all__ but nothing in the repo (or its "
     "tests) references it; remove the export and the dead code it "
     "names, or add the missing caller"),
]

WHOLE_PROGRAM_FINDINGS = [
    ("VL006", "whole_program/src/repro/codec/bad_reader.py", 12, 1, "error",
     "decode path 'decode_header' can leak ValueError raised at "
     "repro.codec.depth.check_depth:11; catch it at the decode "
     "boundary or raise a BitstreamError subclass at the origin"),
    ("VL008", "whole_program/src/repro/deadpkg/__init__.py", 11, 12, "error",
     "'dead_fn' is exported in __all__ but nothing in the repo (or "
     "its tests) references it; remove the export and the dead code "
     "it names, or add the missing caller"),
]


def pinned(findings):
    return [
        (
            f.rule,
            Path(f.path).relative_to(FIXTURES).as_posix(),
            f.line,
            f.column,
            f.severity.value,
            f.message,
        )
        for f in findings
    ]


def wp_findings(**kwargs):
    return lint_paths([WHOLE_PROGRAM], **kwargs).findings


class TestPinnedFindings:
    def test_rule_fixture_findings_are_pinned(self):
        findings = lint_paths([FIXTURES / "src"]).findings
        assert pinned(findings) == SRC_FIXTURE_FINDINGS

    def test_whole_program_fixture_findings_are_pinned(self):
        assert pinned(wp_findings()) == WHOLE_PROGRAM_FINDINGS


class TestWholeProgram:
    def test_fixture_tree_is_quiet_per_file(self):
        report = lint_paths([WHOLE_PROGRAM], rules=FILE_RULES)
        assert report.findings == [], render_text(report)
        assert report.files_checked == 5

    def test_exactly_the_seeded_findings_fire(self):
        findings = wp_findings()
        assert sorted(f.rule for f in findings) == ["VL006", "VL008"]

    def test_vl006_reports_the_transitive_leak_site(self):
        [f] = [f for f in wp_findings() if f.rule == "VL006"]
        assert f.path.endswith("codec/bad_reader.py")
        assert "decode path 'decode_header'" in f.message
        assert "ValueError raised at repro.codec.depth.check_depth:11" in (
            f.message
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

    def test_unused_reference_import_keeps_nothing_alive(self, tmp_path, capsys):
        # A test file that imports dead_fn but never reads it is not a use:
        # the export is still dead, in the library and on the command line.
        ref = tmp_path / "test_deadpkg.py"
        ref.write_text(
            "from repro.deadpkg import dead_fn, used_fn\n\n\n"
            "def test_used_fn():\n    assert used_fn() == 1\n"
        )
        [f] = [f for f in wp_findings(reference_paths=[ref]) if f.rule == "VL008"]
        assert "'dead_fn'" in f.message
        args = ["lint", "--reference", str(ref), str(WHOLE_PROGRAM)]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "deadpkg/__init__.py:11:12: VL008 [error]" in out
        assert "'dead_fn'" in out

    def test_serial_and_parallel_whole_program_byte_identical(self):
        serial = lint_paths([WHOLE_PROGRAM])
        parallel = lint_paths([WHOLE_PROGRAM], jobs=4)
        assert render_json(serial) == render_json(parallel)
        assert render_text(serial) == render_text(parallel)

    def test_call_graph_attached_and_resolved(self):
        graph = lint_paths([WHOLE_PROGRAM]).call_graph
        assert "repro.usedby" in graph["modules"]
        caller = graph["functions"]["repro.usedby.run"]
        assert caller["calls"] == ["repro.deadpkg.impl.used_fn"]

    def test_build_project_index_programmatic_entry(self):
        index = build_project_index([WHOLE_PROGRAM])
        resolved = index.graph.resolve("repro.deadpkg.used_fn")
        assert resolved == "repro.deadpkg.impl.used_fn"
        assert "repro.codec.depth.check_depth" in index.graph.functions
        # One index builder: the programmatic index is the linted one.
        assert index.graph.to_dict() == lint_paths([WHOLE_PROGRAM]).call_graph


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


class TestReporters:
    def test_json_is_stable_and_parseable(self):
        once = render_json(lint_paths([FIXTURES]))
        twice = render_json(lint_paths([FIXTURES], jobs=2))
        assert once == twice
        payload = json.loads(once)
        assert payload["version"] == JSON_REPORT_VERSION == 2
        assert set(payload) == {"findings", "files_checked", "ok", "version"}
        assert payload["ok"] is False
        assert payload["files_checked"] == 13
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
        assert "in 13 files" in text


# ---------------------------------------------------------------------------
# CLI: the CI gate
# ---------------------------------------------------------------------------


#: SHA-256 of ``repro lint --graph-out`` over tests/fixtures/vlint.  It
#: moves only when call resolution or the graph's rendering changes.
FIXTURE_GRAPH_SHA256 = (
    "84aee035e7ddbb75f68e63e441a0570c053ca5072f248f564d2f037246e4d12b"
)


class TestLintCli:
    @pytest.fixture(autouse=True)
    def _outside_the_repo(self, tmp_path, monkeypatch):
        # No ./tests reference tree unless a test asks for the repo root.
        monkeypatch.chdir(tmp_path)

    def test_repo_lints_clean(self, capsys, monkeypatch):
        # The CI gate, flagless: ./tests is the default reference tree.
        monkeypatch.chdir(REPO)
        assert main(["lint", "src"]) == 0
        assert "vlint: 0 findings in " in capsys.readouterr().out

    def test_nonzero_on_each_rule_fixture(self, capsys):
        fixture_files = sorted((FIXTURES / "src").rglob("*.py"))
        assert len(fixture_files) == 8
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
        assert "VL004" not in out

    def test_no_file_mutes_a_finding(self, tmp_path, capsys):
        # An allowlist in the working directory is just a file: the dead
        # export it names is still reported and still fails the run.
        package = tmp_path / "src" / "repro" / "mutepkg" / "__init__.py"
        package.parent.mkdir(parents=True)
        package.write_text(
            '"""A package exporting a name nothing reads."""\n\n'
            '__all__ = ["dead"]\n\n\n'
            "def dead():\n    return 1\n"
        )
        (tmp_path / ".vlint.toml").write_text(
            "[[allow]]\n"
            'rule = "VL008"\n'
            'path = "src/repro/mutepkg/__init__.py"\n'
            'reason = "kept for a downstream consumer"\n'
        )
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/mutepkg/__init__.py:3:12: VL008 [error]" in out
        assert out.endswith("vlint: 1 finding in 1 file\n")

    def test_jobs_flag_output_identical(self, capsys):
        main(["lint", "--json", str(FIXTURES)])
        serial = capsys.readouterr().out
        main(["lint", "--json", "--jobs", "2", str(FIXTURES)])
        assert capsys.readouterr().out == serial

    def test_missing_path_is_error(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parser_exposes_whole_program_flags(self, capsys):
        parser = build_parser()
        args = parser.parse_args(
            [
                "lint",
                "--reference",
                "tests",
                "--graph-out",
                "graph.json",
                "--jobs",
                "4",
                "x.py",
            ]
        )
        assert args.reference == ["tests"]
        assert args.graph_out == "graph.json"
        assert args.jobs == 4
        # Whole-program is the only mode: there is no flag to ask for it.
        with pytest.raises(SystemExit):
            parser.parse_args(["lint", "--whole-program", "x.py"])
        capsys.readouterr()
        lint_parser = next(
            action.choices["lint"]
            for action in parser._actions
            if getattr(action, "choices", None) and "lint" in action.choices
        )
        flags = [
            action.option_strings[-1]
            for action in lint_parser._actions
            if action.option_strings and action.dest != "help"
        ]
        assert sorted(flags) == [
            "--graph-out", "--jobs", "--json", "--reference", "--rules",
        ]

    def test_whole_program_cli_fires_and_is_parallel_stable(
        self, capsys
    ):
        base = ["lint", "--json", str(WHOLE_PROGRAM)]
        assert main(base) == 1
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "4"]) == 1
        assert capsys.readouterr().out == serial
        payload = json.loads(serial)
        assert sorted(f["rule"] for f in payload["findings"]) == [
            "VL006", "VL008",
        ]

    def test_graph_out_writes_the_resolved_graph(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        main(["lint", "--graph-out", str(graph_file), str(WHOLE_PROGRAM)])
        capsys.readouterr()
        graph = json.loads(graph_file.read_text())
        assert "repro.deadpkg.impl" in graph["modules"]
        assert (
            graph["functions"]["repro.usedby.run"]["calls"]
            == ["repro.deadpkg.impl.used_fn"]
        )

    def test_graph_out_bytes_are_pinned(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.json"
        main(["lint", "--graph-out", str(graph_file), str(FIXTURES)])
        capsys.readouterr()
        digest = hashlib.sha256(graph_file.read_bytes()).hexdigest()
        assert digest == FIXTURE_GRAPH_SHA256


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
