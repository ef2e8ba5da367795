"""The layer ladder: what each module costs per request, in process.

Measured from outside, by timing calls into public functions on seeded
payloads, single-threaded, with no server child running.  The rungs are
the calls ``CommunixServer.process_add`` makes, in its order, so their
sum can be checked against the timed whole (``server.ladder_coverage``).

Spans: the parent ``server.process_add`` / ``server.process_get`` is a
real call on one server; its children are the same layer calls made
directly, on the same payload, against a twin server in the same state.
A layer's self time is parent − Σ children; the children do not nest in
wall-clock time inside the parent because they run right after it.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.server.protocol import (
    count_get_page,
    decode_add_signature,
    decode_request,
    encode_add_request,
    get_page_response_parts,
    pack_signature_record,
)
from repro.server.database import SignatureDatabase
from repro.server.server import CommunixServer, ServerConfig
from repro.store import SignatureStore
from repro.store.checkpoint import manifest_delta_path, manifest_path

from traffic import ADDS_PER_TOKEN, PAGE

#: Signatures a full ladder takes: four checkpoint intervals of 2048
#: for the store rungs.  Given fewer (the smoke test), every rung
#: shrinks in proportion.
BLOBS_NEEDED = 8192
ADD_PATH_SAMPLES = 3000
FSYNC_SAMPLES = 1000


class Spans:
    """In-memory span rows, written out when the benchmark ends."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> int:
        span_id = len(self.rows)
        self.rows.append({"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, **attrs})
        return span_id


def _us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


def _timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return value, started, time.perf_counter()


def _protocol(blobs: list[bytes], token: str) -> dict[str, float]:
    add_codec = []
    for blob in blobs[:ADD_PATH_SAMPLES]:
        started = time.perf_counter()
        request = decode_request(encode_add_request(blob, token))
        decode_add_signature(request)
        add_codec.append(time.perf_counter() - started)
    page = blobs[:PAGE]
    chunk = b"".join(pack_signature_record(blob) for blob in page)
    page_codec = []
    for _ in range(200):
        started = time.perf_counter()
        parts = get_page_response_parts(len(page), len(page), (chunk,), True)
        header_time = time.perf_counter() - started
        payload = b"".join(parts)  # the network's copy, not the codec's
        started = time.perf_counter()
        count_get_page(payload)
        page_codec.append(header_time + time.perf_counter() - started)
    return {"protocol.add_codec_us": _us(add_codec),
            "protocol.page_codec_us": _us(page_codec)}


def _crypto() -> dict[str, float]:
    authority = UserIdAuthority()
    issue, tokens = [], []
    for _ in range(2000):
        token, started, ended = _timed(authority.issue)
        tokens.append(token)
        issue.append(ended - started)
    decode = []
    for token in tokens:  # every token is new to the authority: cache-cold
        _, started, ended = _timed(authority.decode, token)
        decode.append(ended - started)
    return {"crypto.token_issue_us": _us(issue),
            "crypto.token_decode_us": _us(decode)}


def _request_path(blobs: list[bytes], spans: Spans) -> dict[str, float]:
    """``process_add``/``process_get`` on a real server, and the calls
    they make replayed one by one on its twin."""
    real = CommunixServer(ServerConfig())
    twin = CommunixServer(ServerConfig())
    totals = {"add": 0.0, "add_children": 0.0}
    samples: dict[str, list[float]] = {
        "process_add": [], "process_get": [], "parse": [], "hit": [],
        "miss": [], "append": [], "tail_get": [],
    }
    real_token = twin_token = ""
    for i, blob in enumerate(blobs[:ADD_PATH_SAMPLES]):
        fresh = i % ADDS_PER_TOKEN == 0
        if fresh:
            real_token = real.issue_user_token()
            twin_token = twin.issue_user_token()
        outcome, started, ended = _timed(real.process_add, blob, real_token)
        if not outcome.accepted:
            raise RuntimeError(f"ladder ADD rejected: {outcome.verdict}")
        parent = spans.add("server.process_add", started, ended, payload=i)
        samples["process_add"].append(ended - started)
        totals["add"] += ended - started

        signature, started, ended = _timed(DeadlockSignature.from_bytes, blob)
        spans.add("signature.parse", started, ended, parent)
        samples["parse"].append(ended - started)
        children = ended - started
        (_, uid), started, ended = _timed(
            twin.validator.check_add, signature, twin_token)
        spans.add("validation.check_add", started, ended, parent,
                  token_cache="miss" if fresh else "hit")
        samples["miss" if fresh else "hit"].append(ended - started)
        children += ended - started
        _, started, ended = _timed(twin.database.append, signature, blob, uid)
        spans.add("database.append", started, ended, parent)
        samples["append"].append(ended - started)
        totals["add_children"] += children + ended - started

        _, started, ended = _timed(real.process_get_wire, i, PAGE)
        parent = spans.add("server.process_get", started, ended, payload=i)
        samples["process_get"].append(ended - started)
        _, started, ended = _timed(twin.database.wire_from, i, PAGE)
        spans.add("database.wire_from", started, ended, parent)
        samples["tail_get"].append(ended - started)

    page_get = []
    for _ in range(2000):  # the same full page: a page-cache hit
        _, started, ended = _timed(twin.database.wire_from, 0, PAGE)
        page_get.append(ended - started)
    return {
        "signature.parse_us": _us(samples["parse"]),
        "validation.check_add_hit_us": _us(samples["hit"]),
        "validation.check_add_miss_us": _us(samples["miss"]),
        "database.append_us": _us(samples["append"]),
        "database.tail_get_us": _us(samples["tail_get"]),
        "database.page_get_us": _us(page_get),
        "server.process_add_us": _us(samples["process_add"]),
        "server.process_get_us": _us(samples["process_get"]),
        "server.ladder_coverage": totals["add_children"] / totals["add"],
    }


def _dir_bytes(data_dir: Path, suffix: str) -> int:
    return sum(entry.stat().st_size for entry in data_dir.iterdir()
               if entry.name.endswith(suffix))


def _store(blobs: list[bytes], tmp_dir: Path) -> dict[str, float]:
    parsed = [DeadlockSignature.from_bytes(blob) for blob in blobs]

    def append_all(store, lo, hi):
        samples = []
        for i in range(lo, hi):
            sig = parsed[i]
            _, started, ended = _timed(
                store.append, blobs[i], sig.sig_id, 1 + i // ADDS_PER_TOKEN,
                sig.top_frames)
            samples.append(ended - started)
        return samples

    interval = len(blobs) // 4  # records per checkpoint
    fsyncs = min(FSYNC_SAMPLES, interval)
    always_dir = tmp_dir / "ladder-always"
    store = SignatureStore(str(always_dir), fsync="always")
    try:
        always = append_all(store, 0, fsyncs)
        fsyncs_per_add = store.fsyncs_issued / fsyncs
    finally:
        store.close(final_checkpoint=False)

    # The path a durable server's ADD takes: the database staging the
    # record, the group-committed fsync, the publish.
    store = SignatureStore(str(tmp_dir / "ladder-database"), fsync="always")
    try:
        database = SignatureDatabase(store=store)
        durable = []
        for i in range(fsyncs):
            _, started, ended = _timed(
                database.append, parsed[i], blobs[i], 1 + i // ADDS_PER_TOKEN)
            durable.append(ended - started)
    finally:
        store.close(final_checkpoint=False)

    never_dir = tmp_dir / "ladder-never"
    store = SignatureStore(str(never_dir), fsync="never")
    try:
        never = append_all(store, 0, interval)
        store.checkpoint()  # the dir's first: a full manifest, not timed
        # What --checkpoint-every pays at steady state: a delta.
        checkpoints = []
        for lo in range(interval, 4 * interval, interval):
            never += append_all(store, lo, lo + interval)
            _, started, ended = _timed(store.checkpoint)
            checkpoints.append(ended - started)
        checkpoint_ms = statistics.median(checkpoints) * 1000.0
    finally:
        store.close(final_checkpoint=True)
    count = 4 * interval
    log_bytes = _dir_bytes(never_dir, ".cxlog")
    blob_bytes = sum(len(blob) for blob in blobs[:count])

    def reopen() -> float:
        started = time.perf_counter()
        reopened = SignatureStore(str(never_dir), fsync="never")
        try:
            recovered = len(reopened.recovered_entries())
            elapsed = time.perf_counter() - started
        finally:
            reopened.close(final_checkpoint=False)
        if recovered != count:
            raise RuntimeError(f"ladder store recovered {recovered}/{count}")
        return count / elapsed

    restart = reopen()
    for path in (manifest_path(str(never_dir)),
                 manifest_delta_path(str(never_dir))):
        if os.path.exists(path):
            os.unlink(path)
    replay = reopen()
    return {
        "database.append_durable_us": _us(durable),
        "store.append_always_us": _us(always),
        "store.append_never_us": _us(never),
        "store.fsyncs_per_add": fsyncs_per_add,
        "store.log_bytes_per_blob_byte": log_bytes / blob_bytes,
        "store.checkpoint_ms": checkpoint_ms,
        "store.replay_sigs_per_s": replay,
        "store.restart_sigs_per_s": restart,
    }


def measure(blobs: list[bytes], tmp_dir: Path, spans: Spans
            ) -> dict[str, float]:
    """Every in-process rung, on ``blobs`` (``BLOBS_NEEDED`` of them for
    a full reading)."""
    token = UserIdAuthority().issue()
    return {
        **_protocol(blobs, token),
        **_crypto(),
        **_request_path(blobs, spans),
        **_store(blobs, tmp_dir),
    }
