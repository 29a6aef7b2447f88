"""Run ``repro serve`` with spans around its layers, for traced runs.

Usage: ``python perfbench/traced_server.py SPAN_FILE serve --socket ...``

Wraps, at their import sites in the server process, the public
functions a binary query passes through — frame decode, column-wise
admission, the coalesced resolver pass, the grid kernel inside it,
and the result encoder — then hands the remaining arguments to the
unchanged ``repro`` command line.  When the server exits, the spans go
to ``SPAN_FILE`` (Chrome trace-event JSON) and per-layer self times
and counts to ``SPAN_FILE.self``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

from common import Tracer, use_source

use_source()

import repro.service.async_server as async_server  # noqa: E402
import repro.service.batch as batch  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.service import wire  # noqa: E402


def run(span_file: Path, argv: list[str]) -> int:
    tracer = Tracer()
    frames = itertools.count(1)
    decode, admit = wire.decode_query_payload, async_server.queries_from_arrays

    # a frame's decode and admission run back to back in one call of
    # the server's admission path: both spans carry the frame's number.
    # Resolution and encoding serve whole micro-batches and carry none.
    def decode_frame(payload):
        tracer.request_id = next(frames)
        return tracer.record("wire.decode", decode, payload)

    def admit_frame(*args, **kwargs):
        try:
            return tracer.record("resolver.admit", admit, *args, **kwargs)
        finally:
            tracer.request_id = None

    tracer.patch(wire, "decode_query_payload", decode_frame)
    tracer.patch(async_server, "queries_from_arrays", admit_frame)
    tracer.wrap(async_server, "resolve_queries", "resolver.resolve")
    tracer.wrap(batch, "multiphase_time_grid", "grid", count=lambda grid: grid.size)
    tracer.wrap(wire, "encode_results", "wire.encode")
    try:
        return main(argv)
    finally:
        tracer.unwrap()
        tracer.dump(span_file)
        Path(f"{span_file}.self").write_text(
            json.dumps({"self": tracer.self_times(), "counts": tracer.counts})
        )


if __name__ == "__main__":
    sys.exit(run(Path(sys.argv[1]), sys.argv[2:]))
