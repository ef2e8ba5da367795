"""The client ladder: what the client half costs per signature, in process.

The first rungs cover the local repository (paper §III-B), where every
downloaded page is stored:

* ``client.page_store_us`` — ``LocalRepository.append_from_server`` on
  one ``PAGE``-signature page, per signature, for an in-memory and a
  file-backed repository already holding ``SIZES`` signatures.  Each
  sample is one page; the pages follow each other, so the samples sit at
  ``size``, ``size + PAGE``, ...;
* ``client.reopen_ms`` — opening the file-backed repository at each
  size (recovering its log and parsing every signature).  A file-backed
  repository is reopened before each of its page samples.

Each row is the median of ``REPEATS`` samples with min..max, under an
environment fingerprint.  The sizes take turns sample by sample.  The signatures are the load generator's random
two-thread signatures (about 1 KB serialized), parsed fresh for every
repository so no cached hash carries over between rows.  The shape the
rows must show: a page costs O(page), so the file-backed per-signature
cost at the largest size stays within 2x of the smallest.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import time

from benchmarks.conftest import SMOKE, write_artifact
from repro.core.repository import LocalRepository
from repro.core.signature import DeadlockSignature
from repro.crypto.backend import get_backend
from repro.loadgen.signatures import random_signature

SIZES = (512, 2048) if SMOKE else (2048, 16384)
PAGE = 256
REPEATS = 7


def blobs(count: int) -> list[bytes]:
    rng = random.Random(20110627)
    return [random_signature(rng).to_bytes() for _ in range(count)]


def parsed(page: list[bytes]) -> list[DeadlockSignature]:
    """A page as the client hands it over: freshly parsed signatures."""
    return [DeadlockSignature.from_bytes(blob) for blob in page]


def filled(path, corpus: list[bytes], size: int) -> LocalRepository:
    repo = LocalRepository(path=path)
    for start in range(0, size, PAGE):
        repo.append_from_server(parsed(corpus[start:start + PAGE]))
    return repo


def timed(call) -> tuple[float, object]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def test_client_ladder(tmp_path, results_dir):
    corpus = blobs(max(SIZES) + REPEATS * PAGE)
    pages = corpus[max(SIZES):]  # sampled at every size: the same bytes
    rows = []
    for backing in ("memory", "file"):
        paths = {size: tmp_path / f"{backing}-{size}" if backing == "file"
                 else None for size in SIZES}
        repos = {size: filled(paths[size], corpus, size) for size in SIZES}
        reopen = {size: [] for size in SIZES}
        store = {size: [] for size in SIZES}
        # The sizes take turns, sample by sample, so a drift in the
        # machine's load (the file rows are mostly fsync) hits both alike.
        for k in range(REPEATS):
            for size in SIZES:
                if backing == "file":
                    repos[size].close()
                    elapsed, repos[size] = timed(
                        lambda: LocalRepository(path=paths[size]))
                    reopen[size].append(elapsed * 1e3)
                page = parsed(pages[k * PAGE:(k + 1) * PAGE])
                elapsed, _ = timed(lambda: repos[size].append_from_server(page))
                store[size].append(elapsed * 1e6 / PAGE)
        for size in SIZES:
            repos[size].close()
            if backing == "file":
                rows.append(("client.reopen_ms", backing, size, reopen[size],
                             "ms"))
            rows.append(("client.page_store_us", backing, size, store[size],
                         "us/signature"))

    lines = [
        "Client ladder — cost of the client half "
        f"(median of {REPEATS}, min..max; page = {PAGE} signatures)",
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"crypto_backend={get_backend().name}",
        "rung                  backing   size     median           min..max  unit",
    ]
    medians = {}
    for rung, backing, size, samples, unit in rows:
        median = medians[rung, backing, size] = statistics.median(samples)
        assert min(samples) > 0
        lines.append(f"{rung:<21s} {backing:<7s} {size:6d} {median:10.2f} "
                     f"{min(samples):10.2f}..{max(samples):<10.2f} {unit}")
    write_artifact(results_dir, "client_ladder.txt", lines)

    small, large = (medians["client.page_store_us", "file", size]
                    for size in SIZES)
    assert large < 2 * small, (small, large)
