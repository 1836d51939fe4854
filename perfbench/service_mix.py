"""The service workload: one closed-loop client against ``repro serve --jobs 1``.

The server runs in this process on its own event-loop thread (as the
service's API tests run it), so the traced run can wrap server-side
functions while the process layout stays the same as in the untraced
run.  Completion is read from the job's SSE stream, not by polling.
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from perfbench.inputs import JobRequest
from perfbench.layers import LayerTrace, clock, service_tracing
from repro.service import client
from repro.service.api import serve

TERMINAL_STATES = ("done", "failed", "cancelled")


class InProcessServer:
    """One ``repro serve`` instance on its own event-loop thread."""

    def __init__(self, store_root: str):
        self.store_root = store_root
        self.base_url = ""
        self.manager: Any = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 60.0) -> "InProcessServer":
        """Start serving; returns once ``/healthz`` answers ``ok``."""
        ready = threading.Event()
        box: List[Any] = []

        def run_loop() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def main() -> None:
                served = asyncio.Event()
                self._task = loop.create_task(
                    serve(
                        host="127.0.0.1",
                        port=0,
                        store_root=self.store_root,
                        ledger_path=os.path.join(self.store_root, "ledger.jsonl"),
                        concurrency=1,
                        ready=served,
                        server_box=box,
                    )
                )
                waiter = loop.create_task(served.wait())
                await asyncio.wait({self._task, waiter}, return_when=asyncio.FIRST_COMPLETED)
                waiter.cancel()
                ready.set()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass

            try:
                loop.run_until_complete(main())
            finally:
                ready.set()
                loop.close()

        self._thread = threading.Thread(target=run_loop, name="perfbench-server")
        self._thread.start()
        if not ready.wait(timeout) or not box:
            self.stop()
            raise RuntimeError("service did not start")
        server = box[0]
        self.manager = server.manager
        self.base_url = f"http://{server.host}:{server.port}"
        deadline = clock() + timeout
        while client.get_health(self.base_url).get("status") != "ok":
            if clock() > deadline:
                self.stop()
                raise RuntimeError("service never reported healthy")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._task is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._task.cancel)
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("service thread did not stop")


@dataclass
class Completed:
    """A job that ended ``done``: what a later hit resubmits and expects."""

    kind: str
    spec: Dict[str, Any]
    job_id: str
    result: Dict[str, Any]


@dataclass
class JobOutcome:
    cls: str
    #: Submit to terminal state, as the client saw it.
    latency: float = 0.0
    failure: Optional[str] = None
    submit_s: float = 0.0
    result_s: float = 0.0
    #: Set for fresh jobs that ended done.
    completed: Optional[Completed] = None
    retries: int = 0
    refused: bool = False
    cache_hit: bool = False
    records: int = 0
    trace: Optional[LayerTrace] = None
    parts: Dict[str, float] = field(default_factory=dict)


def run_request(
    server: InProcessServer,
    request: JobRequest,
    completed: List[Completed],
    trace: Optional[LayerTrace] = None,
) -> JobOutcome:
    """Send one request, wait for its terminal state, check its result."""
    if trace is None:
        return _run_request(server, request, completed, None)
    with service_tracing(trace, server.manager):
        outcome = _run_request(server, request, completed, trace)
    outcome.trace = trace
    return outcome


def _run_request(
    server: InProcessServer,
    request: JobRequest,
    completed: List[Completed],
    trace: Optional[LayerTrace],
) -> JobOutcome:
    outcome = JobOutcome(request.cls)
    original: Optional[Completed] = None
    if request.cls == "hit":
        if not completed:
            outcome.failure = "no completed job to resubmit"
            return outcome
        original = completed[request.pick % len(completed)]
        kind, spec = original.kind, original.spec
    else:
        assert request.kind is not None and request.spec is not None
        kind, spec = request.kind, request.spec
    base = server.base_url

    start = clock()
    try:
        document = client.submit_job(base, kind, spec)
    except client.QueueFullError:
        outcome.refused = True
        outcome.failure = "refused with 429"
        return outcome
    outcome.submit_s = clock() - start
    state = document.get("state")
    attempt = int(document.get("attempt", 0))
    if state not in TERMINAL_STATES:
        for record in client.iter_events(base, document["id"], timeout=120):
            if record.get("type") != "state":
                continue
            attempt = int(record.get("attempt", attempt))
            state = record.get("state")
            if state in TERMINAL_STATES:
                break
    outcome.latency = clock() - start
    if trace is not None:
        admitted = trace.marks.get("jobs.admitted", start)
        exec_start = trace.marks.get("jobs.exec_start")
        queue_wait = exec_start - admitted if exec_start is not None else 0.0
        execute = trace.seconds["jobs.exec"]
        outcome.parts = {
            "queue_wait": queue_wait,
            "exec": execute,
            "overhead": outcome.latency - queue_wait - execute,
        }
    outcome.retries = max(0, attempt - 1)
    if state != "done":
        outcome.failure = f"job ended {state!r}"
        return outcome

    start = clock()
    result = client.get_result(base, document["id"])
    outcome.result_s = clock() - start
    outcome.records = sum(result.get("event_counts", {}).values())
    if original is not None:
        outcome.cache_hit = True
        if document["id"] != original.job_id:
            outcome.failure = "resubmission was not answered by the completed job"
        elif result != original.result:
            outcome.failure = "result document differs from the original job's"
        return outcome
    outcome.failure = fresh_job_failure(request.cls, result)
    if outcome.failure is None:
        outcome.completed = Completed(kind, spec, document["id"], result)
    return outcome


def fresh_job_failure(cls: str, result: Dict[str, Any]) -> Optional[str]:
    """Why a fresh job's result document is wrong, or ``None``."""
    if result.get("ok") is not True:
        return "job result is not ok"
    if cls == "sweep" and result.get("result", {}).get("all_recovered") is not True:
        return "chaos sweep did not recover from every strike"
    if cls == "quick" and result.get("result", {}).get("all_passed") is not True:
        return "quick run failed a check"
    return None


def setup(store_root: str) -> InProcessServer:
    """Server start until ``/healthz`` answers: the one-time set-up."""
    return InProcessServer(store_root).start()
