"""Host speed, measured by two fixed kernels in a child process.

The 2-vCPU host the bounds were set on drifts between speed regimes that last
minutes: dcgan16_qce steps took 85 ms in one and 150 ms in another, so raw
medians of runs a few minutes apart spread by 0.30-0.37 of their median.
Two costs drift, and not together:

* ``compute``: numpy work in user space. Steps, eval points, set-up and
  checkpoint loads (page-cache reads, copies, model rebuild) follow it.
* ``write``: writing fresh pages into a file. Checkpoint saves follow it:
  over blocks of 150 dcgan16_qce saves in five processes, the median save
  moved by about 15% while its ratio to this kernel moved by about 4%, and
  the compute kernel did not follow it.

End-to-end times are therefore reported at the host speed at which each
kernel takes its ``REFERENCE_S`` entry; each time is scaled by the factor of
the cost it follows.

The kernels run in their own process, never call quatgan and allocate the
same arrays every time, so the program's heap, allocator and garbage-collector
state cannot move them. The child uses one BLAS thread and inherits the
caller's CPU affinity, which ``run.py`` narrows to one core: on the other vCPU
the compute kernel's times correlated 0.03-0.13 with dcgan16_qce step times,
on the same core 0.47-0.63. The caller asks for a sample at most once per
``PERIOD_S``, between operations, while it waits on the reply.

Run as a script with a directory argument, this module is the child: for each
line read from stdin it runs both kernels, writing its file in that directory,
and writes their seconds, until stdin closes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

REFERENCE_S = {"compute": 1e-2, "write": 2e-3}
PERIOD_S = 0.5


class HostSpeed:
    """Samples the kernel times in a child process that writes its file in
    ``work_dir``; use as a context manager so the child is stopped and waited
    for."""

    def __init__(self, work_dir):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(work_dir)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)
        self.samples: dict[str, list[float]] = {k: [] for k in REFERENCE_S}
        self._due = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def poll(self):
        """Take a sample if a period has passed since the last one."""
        if time.perf_counter() < self._due:
            return
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != len(REFERENCE_S):
            raise RuntimeError(f"host-speed child exited with code {self.proc.wait()}")
        for k, v in zip(REFERENCE_S, reply):
            self.samples[k].append(float(v))
        self._due = time.perf_counter() + PERIOD_S

    def factors(self) -> dict[str, float]:
        """Multipliers from measured seconds to seconds at the reference speed."""
        return {k: REFERENCE_S[k] / statistics.median(v) for k, v in self.samples.items()}


def main(work_dir: str):
    import numpy as np

    rng = np.random.default_rng(0)
    maps = rng.standard_normal((32, 16, 18, 18)).astype(np.float32)
    a = rng.standard_normal((32, 64, 64)).astype(np.float32)
    b = rng.standard_normal((32, 64, 144)).astype(np.float32)
    x = rng.standard_normal((2048, 144)).astype(np.float32)
    w = rng.standard_normal((144, 64)).astype(np.float32)
    e = rng.standard_normal(1 << 19).astype(np.float32)
    small = [rng.standard_normal((4, 16)).astype(np.float32) for _ in range(50)]
    pieces = np.split(rng.standard_normal(500_000).astype(np.float32), 100)
    path = os.path.join(work_dir, "hostspeed.bin")

    def compute():
        # the program's mix: im2col copies, einsum contractions, BLAS GEMM,
        # streaming elementwise work and many small-array operations
        np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(maps, (3, 3), axis=(2, 3)))
        np.einsum("bpo,bpi->oi", a, b)
        x @ w
        (e * 1.5 + 0.5).sum()
        acc = small[0]
        for s in small:
            acc = acc + s * 0.5

    def write():
        # a checkpoint save's pattern: a 2 MB blob built from 100 pieces,
        # then written over the previous file
        blob = bytearray()
        for p in pieces:
            blob += p.tobytes()
        with open(path, "wb") as fh:
            fh.write(bytes(blob))

    kernels = (compute, write)
    for k in kernels:
        k()
    for _ in sys.stdin:
        times = []
        for k in kernels:
            t0 = time.perf_counter()
            k()
            times.append(time.perf_counter() - t0)
        sys.stdout.write(" ".join(repr(t) for t in times) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])
