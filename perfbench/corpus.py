"""The lint-corpus input: a frozen copy of the runtime's source and of the
symlint/symloc/symshare fixture twins.

The copy lives under ``perfbench/corpus/`` with a ``.pysrc`` suffix, so the
repository's lint gates and test collection never see it and later edits
to ``src/repro`` do not change the benchmark's input.  A run writes it out
as ``.py`` files under the checkout's ``.perfbench_out/`` and analyses the
same directory layout the repository has.

Maintenance commands, run from the repository root::

    python3 perfbench/corpus.py snapshot   # re-copy src/repro + fixtures
    python3 perfbench/corpus.py expected   # re-record corpus/expected.json
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: where benchmark runs write their files (ignored by git)
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")
STORE = os.path.join(HERE, "corpus")
EXPECTED = os.path.join(STORE, "expected.json")
SUFFIX = ".pysrc"

RUNTIME_GROUP = "src/repro"
FIXTURE_GROUPS = (
    "tests/fixtures/symlint",
    "tests/fixtures/symloc",
    "tests/fixtures/symshare",
)

#: each seeded fixture and the rule it was written to trigger
SEEDED_RULES = {
    "seeded_blocking.py": "blocking-sleep-in-handler",
    "seeded_deadlock.py": "lock-order-cycle",
    "seeded_kernel_block.py": "kernel-block-transitive",
    "seeded_protocol.py": "unhandled-kind",
    "seeded_race.py": "unguarded-write",
    "seeded_registry_lock.py": "registry-call-under-lock",
    "seeded_rpc_under_lock.py": "rpc-under-lock",
    "seeded_tracer_lock.py": "tracer-call-under-lock",
    "seeded_unbounded_retry.py": "unbounded-retry",
    "seeded_unserializable.py": "unserializable-attr",
    "seeded_async_opportunity.py": "sync-invoke-async-opportunity",
    "seeded_dropped_handle.py": "dropped-result-handle",
    "seeded_invoke_in_loop.py": "remote-invoke-in-loop",
    "seeded_large_arg.py": "large-arg-resend",
    "seeded_migrate_thrash.py": "migrate-in-loop",
    "seeded_handle_escape.py": "handle-escapes-unawaited",
    "seeded_live_resource.py": "live-resource-in-remote-arg",
    "seeded_mutate_after_send.py": "mutate-after-send",
    "seeded_oneway.py": "oneway-result-consumed",
    "seeded_stale_ref.py": "stale-ref-after-migrate",
}


def is_clean_twin(name: str) -> bool:
    """Fixtures that must raise nothing (``suppressed.py`` pragmas all of
    its findings away)."""
    return name.startswith("clean_") or name == "suppressed.py"


def stored_files() -> list[str]:
    """Corpus-relative paths (with ``.py``) of every stored file."""
    found = []
    for root, dirs, names in os.walk(STORE):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(SUFFIX):
                rel = os.path.relpath(os.path.join(root, name), STORE)
                found.append(rel[: -len(SUFFIX)] + ".py")
    return found


def materialize(root: str) -> int:
    """Write the corpus under ``root`` as ``.py`` files; returns the count."""
    files = stored_files()
    if not files:
        raise FileNotFoundError(f"no corpus files under {STORE}")
    for rel in files:
        target = os.path.join(root, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(STORE, rel[:-3] + SUFFIX), target)
    return len(files)


def report_rows(report, root: str) -> list[list]:
    """A report as sorted ``[path, rule]`` rows, paths relative to the
    corpus root.  Lines are left out: the line a ``lock-order-cycle``
    finding names depends on the interpreter's string-hash seed."""
    return sorted(
        [os.path.relpath(f.path, root), f.rule] for f in report.findings
    )


def project_rows(project, findings, root: str) -> list[list]:
    """What ``analyze_paths`` reports for ``findings`` on ``project``, as
    :func:`report_rows` gives it: suppression pragmas honoured, exact
    duplicates dropped."""
    by_path = {m.path: m for m in project.modules}
    kept = {
        f for f in findings
        if f.path not in by_path
        or not by_path[f.path].is_suppressed(f.rule, f.line)
    }
    return sorted([os.path.relpath(f.path, root), f.rule] for f in kept)


def load_expected() -> dict[str, list[list]]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["groups"]


def check_reports(reports: dict[str, list[list]],
                  expected: dict[str, list[list]]) -> list[str]:
    """Problems with one analysis of the corpus (empty when correct)."""
    problems = []
    for group, rows in reports.items():
        want = expected.get(group)
        if rows != want:
            extra = [r for r in rows if r not in (want or [])]
            missing = [r for r in (want or []) if r not in rows]
            problems.append(f"{group}: report differs from expected.json "
                            f"(extra {extra[:3]}, missing {missing[:3]})")
        if group == RUNTIME_GROUP:
            continue
        rules_by_file: dict[str, set[str]] = {}
        for path, rule in rows:
            rules_by_file.setdefault(os.path.basename(path), set()).add(rule)
        for rel in stored_files():
            if os.path.dirname(rel) != group:
                continue
            name = os.path.basename(rel)
            got = rules_by_file.get(name, set())
            if name in SEEDED_RULES and SEEDED_RULES[name] not in got:
                problems.append(f"{name} does not raise {SEEDED_RULES[name]}")
            if is_clean_twin(name) and got:
                problems.append(f"clean twin {name} raises {sorted(got)}")
    return problems


def snapshot(repo_root: str) -> int:
    """Replace the stored corpus with the repository's current files."""
    shutil.rmtree(STORE, ignore_errors=True)
    count = 0
    for group in (RUNTIME_GROUP,) + FIXTURE_GROUPS:
        source_root = os.path.join(repo_root, group)
        for root, dirs, names in os.walk(source_root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(root, name), repo_root)
                target = os.path.join(STORE, rel[:-3] + SUFFIX)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                shutil.copyfile(os.path.join(root, name), target)
                count += 1
    return count


def record_expected(repo_root: str) -> dict[str, list[list]]:
    """Analyse the stored corpus with the repository's analyzer and write
    the result to ``expected.json``."""
    sys.path.insert(0, os.path.join(repo_root, "src"))
    from repro.analysis import analyze_paths

    root = os.path.join(OUT_DIR, "corpus-expected")
    shutil.rmtree(root, ignore_errors=True)
    materialize(root)
    try:
        groups = {
            group: report_rows(analyze_paths([os.path.join(root, group)]),
                               root)
            for group in (RUNTIME_GROUP,) + FIXTURE_GROUPS
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    problems = check_reports(groups, groups)
    if problems:
        raise SystemExit("corpus fixtures do not behave:\n  "
                         + "\n  ".join(problems))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"groups": groups}, fh, indent=1)
        fh.write("\n")
    return groups


def main(argv: list[str]) -> int:
    repo_root = os.path.dirname(HERE)
    if argv == ["snapshot"]:
        print(f"stored {snapshot(repo_root)} files under {STORE}")
        return 0
    if argv == ["expected"]:
        groups = record_expected(repo_root)
        print(f"wrote {EXPECTED}: " + ", ".join(
            f"{g} {len(rows)} findings" for g, rows in groups.items()))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
