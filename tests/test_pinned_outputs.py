"""SHA-256 digests of the CLI's outputs on the bundled iris fixture.

A refactor that should not change what the program writes keeps these
digests; a declared format change updates them.  Each command runs in a
subprocess at one BLAS thread, so the digests do not depend on the thread
count; they were taken with numpy 2.4 and its bundled OpenBLAS on x86-64,
and another BLAS build may round the trainer's products differently.  The JSONL is hashed without its ``time_seconds`` fields and the
summary without ``seconds`` and ``run.stage_seconds``, the only fields
that hold times.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR

ROOT = Path(__file__).resolve().parent.parent
ORDERS = ("ascending", "descending-weight", "lex")

PINNED = {
    "model.json":
        "19fcaf75223a160b97721e0e93ecdedb45b48cc3faeb7b3f377aeff20e2b1e5a",
    "reject.json":
        "33e16bdc64b44ea5e7d0effce5fbae61eef041c9073aad501ff495e78a2f26af",
    "reject.json.metrics.json":
        "96654f1145bd101e7b4ad2016657a6f649cc8db6e304ab4574576911bfea23e9",
    "reject-wr0.1-steps7.json":
        "76b18e4f3424fb482345e2c153d76573b5c89a97e47a4afdb0b229dc4a5aac59",
    "reject-wr0.1-steps7.json.metrics.json":
        "140bc363c1d580e7febcc0befbe0b43278c950a78ede75e002cb849f62388c91",
    "ascending.jsonl":
        "5378460a3d37d40a230de8cee5d9ac0f77bd472c8168e2d1357b31be4cc01b63",
    "ascending.jsonl.summary.json":
        "551fb6b6abd1aaa3dd834fb0c5af8e7079196057e8ae0d460bee01b3278e451d",
    "descending-weight.jsonl":
        "25cf095c308d8562dc5d88610e542c87f9fecabc475cb2571327dd4900fc0184",
    "descending-weight.jsonl.summary.json":
        "74e82eac6a0592e8ff35841b974c3e72f1d92e4da7cc3687401170f31667a24c",
    "lex.jsonl":
        "3062ab0ae286de8fef91731363c0ca2cedd83a667ef292d67fc79437cd216bac",
    "lex.jsonl.summary.json":
        "c30289bc191ae1acfebef648cb854a52d6c3cebf31e2a5eb0b5a086fee63e629",
}


def run(*argv):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "svcreject.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def untimed(path: Path) -> bytes:
    """The file's bytes, without the fields that hold times."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        return re.sub(r', "time_seconds": [^}]+\}$', "}", text, flags=re.MULTILINE).encode()
    if path.name.endswith(".summary.json"):
        doc = json.loads(text)
        del doc["seconds"], doc["run"]["stage_seconds"]
        return (json.dumps(doc, indent=2) + "\n").encode()
    return text.encode()


def test_iris_outputs_match_their_digests(tmp_path):
    iris = DATA_DIR / "iris.csv"
    run("train", "--input", iris, "--label-column", "species", "--positive-label",
        "versicolor", "--model", tmp_path / "model.json")
    run("calibrate", "--input", iris, "--model", tmp_path / "model.json",
        "--output", tmp_path / "reject.json")
    run("calibrate", "--input", iris, "--model", tmp_path / "model.json",
        "--output", tmp_path / "reject-wr0.1-steps7.json", "--wr", "0.1", "--grid-steps", "7")
    for order in ORDERS:
        run("explain", "--input", iris, "--model", tmp_path / "reject.json", "--scope", "all",
            "--order", order, "--output", tmp_path / f"{order}.jsonl")
    digests = {name: hashlib.sha256(untimed(tmp_path / name)).hexdigest() for name in PINNED}
    assert digests == PINNED
