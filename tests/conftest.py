"""Suite-wide setup: run on the BLAS kernels the e2e benchmark runs on.

The decision path's bit-for-bit oracles (streamed probe blocks equal to
one whole-tensor forward pass, fingerprints) hold per BLAS kernel
configuration: a multi-threaded OpenBLAS splits a gemm's rows between
threads at points that depend on its height, which moves a few outputs
by an ulp.  ``benchmarks/e2e/run.py`` pins one thread; so does the
suite, unless the caller chose otherwise.  It must happen before numpy
first loads OpenBLAS, hence here and not in a fixture.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
