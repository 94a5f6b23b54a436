import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

AB_CASES = [
    "sphere-1280", "sphere-5120", "demo-wall", "demo-random", "build-demo",
    "main-first", "main-later", "catalog-load", "shard-meshes",
    "parse-eval-corrupted", "parse-dense-wall", "validate-eval-corrupted",
    "validate-dense-wall", "library-scan",
]


def test_ab_timing_runs_every_case_against_this_checkout():
    # The script stops with an error when the two sides' outcomes differ, so
    # exit 0 says that both copies of this checkout agreed on every case.
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_timing.py"), "--base", str(ROOT),
         "--reps", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[0] == "case"
    assert [row.split()[0] for row in rows] == AB_CASES
    for row in rows:
        fields = row.split()
        assert int(fields[1]) > 0
        assert fields[-1] in ("0/1", "1/1")
        assert float(fields[-2]) > 0
    hits = {row.split()[0]: row.split()[2:4] for row in rows}
    assert all(hits[c][1] == "hits" for c in AB_CASES[:4])
    assert hits["parse-eval-corrupted"][1] == hits["parse-dense-wall"][1] == "lines"


def _pinned(lines):
    """cli_digest.py's per-call lines ("digest exit-code label") without the
    graph mixed_p* calls, whose pose bytes follow LAPACK's SVD and so differ
    by BLAS kernel, and without the overall digest, which covers them."""
    return [line for line in lines
            if not line.startswith("overall ") and not line.split(" ", 2)[2].startswith(
                "graph mixed_p")]


def test_cli_digest_matches_the_recorded_lines():
    # The byte gate: every pinned call prints the digest recorded in
    # tests/cli_digest_lines.txt. A change that moves a line on purpose
    # updates the file.
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_digest.py")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    want = (ROOT / "tests" / "cli_digest_lines.txt").read_text().splitlines()
    assert _pinned(done.stdout.splitlines()) == want
