"""JSONL-over-TCP transport: the thinnest wire that can carry a dict.

One request per line, one response per line, correlated by a client
sequence number (``_seq``) the server echoes back — correlation must
survive even a request whose ``job_id`` is the corrupted field.
Responses stream back in *completion* order, not submission order;
the client resolves each to the right waiter by ``_seq``.

The transport adds nothing to the job model: :meth:`ServeClient.submit`
returns exactly the result dict :meth:`EncodingServer.submit` produces
(minus the transport's own ``_seq``), and handles shed responses with
the same wait-and-resubmit backpressure the in-process batch helper
uses.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ReproError


async def _handle_connection(server, reader, writer) -> None:
    """Per-connection pump: every line becomes a concurrent submit;
    responses are written under a lock as they complete."""
    write_lock = asyncio.Lock()
    inflight: set[asyncio.Task] = set()

    async def answer(seq, raw) -> None:
        result = await server.submit(raw)
        response = dict(result)
        response["_seq"] = seq
        async with write_lock:
            writer.write((json.dumps(response) + "\n").encode())
            await writer.drain()

    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                # Not even JSON: let validation produce the malformed
                # result (and keep whatever correlation we can't have).
                raw = {"_undecodable": line.decode("utf-8", "replace")}
            seq = raw.get("_seq") if isinstance(raw, dict) else None
            task = asyncio.ensure_future(answer(seq, raw))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)
    except asyncio.CancelledError:
        # Event-loop teardown cancelling an idle pump is a normal
        # shutdown, not an error worth a traceback.
        pass
    finally:
        for task in inflight:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_tcp_server(
    server, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose an :class:`~repro.serve.server.EncodingServer` on TCP.

    ``port=0`` picks a free port; read it back from
    ``tcp.sockets[0].getsockname()[1]``."""

    async def handler(reader, writer):
        await _handle_connection(server, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)


class ServeClient:
    """One tenant's connection to a serve endpoint."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._seq = 0
        self._pump: asyncio.Task | None = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._pump = asyncio.ensure_future(self._read_loop())
        return self

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except json.JSONDecodeError:
                    continue
                future = self._pending.pop(response.get("_seq"), None)
                if future is not None and not future.done():
                    response.pop("_seq", None)
                    future.set_result(response)
        finally:
            # Connection gone: fail every waiter instead of hanging.
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ReproError("serve connection closed mid-request")
                    )
            self._pending.clear()

    async def _roundtrip(self, request: dict) -> dict:
        if self._writer is None:
            raise ReproError("client not connected")
        self._seq += 1
        seq = self._seq
        wire = dict(request)
        wire["_seq"] = seq
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        self._writer.write((json.dumps(wire) + "\n").encode())
        await self._writer.drain()
        return await future

    async def submit(
        self, request: dict, max_shed_retries: int = 200
    ) -> dict:
        """Submit one job; waits out shed responses (bounded) and
        returns the final result dict."""
        response = await self._roundtrip(request)
        for _ in range(max_shed_retries):
            if response.get("outcome") != "shed":
                return response
            await asyncio.sleep(response.get("retry_after_s", 0.05))
            response = await self._roundtrip(request)
        return response

    async def close(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
            self._pump = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
