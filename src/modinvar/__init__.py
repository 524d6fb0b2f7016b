"""Workbench for modular invariants of glued matrix groups over finite fields."""

import os

# numpy's bundled OpenBLAS starts one worker thread per extra CPU at import,
# and that worker busy-waits about 0.1 s before it sleeps.  On the benchmark
# workloads and the stretch scenarios the worker did no other work, and the
# checks took as long with one thread as with two, so it only burns a second
# core: on 2 vCPUs, 50 ms of work right after import cost 97-102 ms of
# process CPU, and 50 ms with one thread.  Set before the first import of
# numpy below; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from modinvar.gfq import FieldSpec, Scalar, build_field, enumerate_field

__all__ = ["FieldSpec", "Scalar", "build_field", "enumerate_field"]

__version__ = "0.1.0"
