"""The byte-identity harness ``tools/identity.py``, on its small corpus.

The harness runs its corpus on this tree and on another one, once with one
BLAS thread and once with the default, and compares every record byte for
byte.  Against a directory it needs no git.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

from test_cli import FAILING_RUNS

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity.py"


def _identity(*args):
    run = subprocess.run([sys.executable, str(TOOL), "--small", *args], capture_output=True, text=True)
    return run.returncode, run.stdout


def test_the_tree_is_identical_to_itself():
    code, out = _identity("--against", str(ROOT))
    assert code == 0, out
    assert "OPENBLAS_NUM_THREADS=1: " in out and "default BLAS: " in out
    assert out.count(" records, 0 differ") == 2


def test_a_changed_output_is_named_and_fails_unless_expected(tmp_path):
    # the other tree prints its floats to 11 digits: every stdout that holds
    # one differs, and only apply's is expected
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "metaplectic" / "cli.py"
    text = cli.read_text()
    assert '"%.12g" % float(x)' in text
    cli.write_text(text.replace('"%.12g" % float(x)', '"%.11g" % float(x)'))
    code, out = _identity("--against", str(tmp_path), "--expect", "cli/apply-*/stdout")
    assert code == 1, out
    assert "expected [OPENBLAS_NUM_THREADS=1] cli/apply-J/stdout" in out
    assert "DIFFERS [default BLAS] cli/wigner-stft/stdout" in out
    assert "cli/apply-J/file-out.gf" not in out
    assert out.rstrip().endswith("2 unexpected differences")


def test_the_corpus_runs_every_failing_cli_run():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    assert identity.FAILING_RUNS == {case: argv for case, (argv, _) in FAILING_RUNS.items()}
    # the full corpus, which the tier-1 runs leave out, formats each argv
    used = {arg[1:-1] for argv in identity.FAILING_RUNS.values() for arg in argv if arg.startswith("{")}
    assert used <= set(identity._FAILING_FILES) | {"o", "t"}
