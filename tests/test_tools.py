"""Smoke tests of the scripts under tools/."""
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from cartanfinsler import cli

ROOT = Path(__file__).resolve().parents[1]


def test_report_digests_prints_one_digest_per_report():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), "--seeds", "1",
         "--requests", "2"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    lines = [line.split() for line in out.splitlines()]
    # the warm-up and two requests of each of the three workloads
    assert [(w, s, i) for w, s, i, _, _, _ in lines] == [
        (w, "1", i) for w in ("corpus", "bulk", "structure") for i in ("warmup", "0", "1")]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for *_, digest in lines)
    # the digests are the SHA-256 of the report texts that cli.emit_report
    # writes, the structured form and the tabular (CSV) one
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    request = workloads.warmup_request("structure", 1)
    report = cli.run(cli.parse_config(request.text))
    text, csv_text = (cli.emit_report(report, form) for form in ("structured", "tabular"))
    assert lines[6][3:] == [request.kind.name, hashlib.sha256(text.encode()).hexdigest(),
                            hashlib.sha256(csv_text.encode()).hexdigest()]
    assert json.loads(text)["task"] == request.config["task"]
