"""Process entry of ``python -m momentumrank`` and of the ``momentumrank`` script (``momentumrank.__main__:run``)."""
import os

# no module calls a BLAS routine, so OpenBLAS gets no worker thread to spin; this must precede numpy's import
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import run  # noqa: E402

if __name__ == "__main__":
    run()
