"""The same report bytes under every OpenBLAS kernel.

Each case runs in a fresh interpreter under the default kernel,
OPENBLAS_CORETYPE=Haswell (the kernel an AVX2 machine runs) and
OPENBLAS_CORETYPE=Sandybridge (AVX, no FMA), and the three must print the
same digests of:

- haar_bases plus complement_bases, on stacks at (n, k) = (3, 1), (4, 2),
  (5, 2) and (10, 4), past the 8 terms from which numpy sums pairwise;
- a short `search-max --n 4 --k 2` report (Haar starts and the climb's
  re-orthonormalized proposals);
- a `sections --mode mc` report (SlabSum.mc's contraction and sums);
- `sections --mode exact` and `--mode sinc` reports (the CLI's norm of the
  normal).

With LAPACK's QR and BLAS's norm and products in those paths, the first two
digests moved with the kernel.  numpy's SIMD switch
(NPY_DISABLE_CPU_FEATURES) is left out: the Box-Muller np.log and np.cos in
randomness.normals still round differently on a CPU without AVX-512, so
every Haar draw would move with it until those are elementwise polynomials.
Other CPUs (aarch64) and other BLAS builds (MKL) are not covered here.
"""

import json
import os
import subprocess
import sys

import margbounds

_SCRIPT = r"""
import contextlib, hashlib, io, json, os, sys
import numpy as np
from margbounds import cli, grassmann

tmp = sys.argv[1]
digests = {}
h = hashlib.sha256()
for n, k, lanes in [(3, 1, 200), (4, 2, 300), (5, 2, 300), (10, 4, 64)]:
    bases = grassmann.haar_bases(n, k, 7, np.arange(lanes))
    h.update(bases.tobytes())
    h.update(grassmann.complement_bases(bases).tobytes())
digests["haar_bases+complement_bases"] = h.hexdigest()
subspace = os.path.join(tmp, "h.json")
with open(subspace, "w") as fh:
    json.dump({"n": 4, "k": 2, "basis_rows": [[0.7, -0.1], [-0.1, -0.7], [0.7, -0.1], [-0.1, -0.7]]}, fh)
runs = {
    "search-max": ["search-max", "--n", "4", "--k", "2", "--restarts", "1", "--steps", "24",
                   "--seed", "3"],
    "sections-mc": ["sections", "--mode", "mc", "--sides", "1,1.2,0.9,1.1",
                    "--subspace-file", subspace, "--samples", "20000", "--seed", "5"],
    "sections-exact": ["sections", "--mode", "exact", "--sides", "1,1.2,0.9,1.1,0.7",
                       "--normal", "0.3,0.7,-0.2,0.9,0.45"],
    "sections-sinc": ["sections", "--mode", "sinc", "--sides", "1,1,1",
                      "--normal", "0.6,0.64,0.48"],
}
for name, argv in runs.items():
    out = os.path.join(tmp, name + ".json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", out]) == 0
    with open(out, "rb") as fh:
        digests[name] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(digests))
"""

_KERNELS = (None, "Haswell", "Sandybridge")


def _digests(kernel, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(margbounds.__file__)))
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = src
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    work = tmp_path / (kernel or "default")
    work.mkdir()
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(work)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_reports_keep_their_bytes_under_every_openblas_kernel(tmp_path):
    digests = {kernel: _digests(kernel, tmp_path) for kernel in _KERNELS}
    want = digests[None]
    assert len(want) == 5
    for kernel in _KERNELS[1:]:
        moved = sorted(name for name in want if digests[kernel][name] != want[name])
        assert moved == [], f"OPENBLAS_CORETYPE={kernel} moved {moved}"
