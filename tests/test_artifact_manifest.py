"""Every artifact and stdout of the pinned commands keeps its bytes.

``artifact_manifest.json`` holds the sha256 of each output of the 7
``reproduce`` targets (default seed) and of six ``stepsize`` runs on the
example-1 Laplacian, together with the numpy and BLAS builds that made
them.  The test regenerates every output in process and names each file
whose bytes differ.  A change that moves an output on purpose rewrites the
manifest with

    PYTHONPATH=src python tests/test_artifact_manifest.py

and lists the moved files in its change notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from opiniondyn import fixtures as fx
from opiniondyn.cli import REPRODUCE_NAMES, main
from opiniondyn.netcore import save_matrix_csv

MANIFEST = Path(__file__).with_name("artifact_manifest.json")

# Each stepsize run by its output directory name.
STEPSIZE_RUNS = {
    "direct": ["--method", "direct"],
    "direct-eps0.01": ["--method", "direct", "--eps", "0.01"],
    "corollary1-eps0.01": ["--method", "corollary1", "--eps", "0.01"],
    "cubic": ["--method", "cubic"],
    "cubic-paper": ["--method", "cubic-paper"],
    "hb-rho0.2": ["--method", "hb", "--rho", "0.2"],
}


def build() -> str:
    """The numpy and BLAS builds, which the floating-point results rest on."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, {blas.get('name', '?')} {blas.get('version', '?')}"


def _main(argv: list[str], stdout: Path) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    stdout.write_text(out.getvalue())


def generate(root: Path) -> dict[str, str]:
    """Write every pinned output under ``root``; the sha256 of each file by
    its path relative to ``root``."""
    for name in REPRODUCE_NAMES:
        _main(["reproduce", name, "--out-dir", str(root / "reproduce")],
              root / "reproduce" / f"{name}.stdout")
    lap = root / "example1-laplacian.csv"
    save_matrix_csv(lap, fx.EXAMPLE1_LAPLACIAN)
    for name, flags in STEPSIZE_RUNS.items():
        out = root / "stepsize" / name
        out.mkdir(parents=True)
        _main(["stepsize", "--laplacian", str(lap), "--out-dir", str(out), *flags],
              root / "stepsize" / f"{name}.stdout")
    lap.unlink()
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_every_pinned_output_keeps_its_bytes(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    got = generate(tmp_path)
    want = pinned["files"]
    differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    assert not differ, (
        f"{len(differ)} of {len(want)} pinned outputs differ: {', '.join(differ)}. "
        f"The manifest was made with {pinned['build']}; this run used {build()}."
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = generate(Path(tmp))
    MANIFEST.write_text(json.dumps({"build": build(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}", file=sys.stderr)
