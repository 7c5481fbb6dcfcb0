"""Direct timed calls into single layers' public functions.

Each probe calls one public function ``ITERATIONS`` times on inputs taken
from a freshly built ``read_seed`` deployment that has served one
request, and reports microseconds per call.  The probes do not depend on
the workload being measured, so a traced run of any workload reports the
same nine numbers (up to host noise).
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict

from repro.core.config import ScenarioConfig
from repro.core.journal import DedupJournal
from repro.core.rescache import ResultCacheSpec, SemanticResultCache
from repro.core.system import WhisperSystem
from repro.p2p.advertisement import SemanticAdvertisement
from repro.simnet.environment import Environment
from repro.soap.envelope import Envelope

__all__ = ["ITERATIONS", "run_probes"]

ITERATIONS = 2000


def _time_us(call: Callable[[], object], iterations: int = ITERATIONS) -> float:
    started = time.perf_counter()
    for _ in range(iterations):
        call()
    return (time.perf_counter() - started) * 1e6 / iterations


def _journal_probe(journal: DedupJournal, prefix: str) -> Callable[[], None]:
    ids = itertools.count()

    def begin_complete() -> None:
        invocation_id = f"{prefix}#{next(ids)}"
        journal.begin(invocation_id)
        journal.complete(invocation_id, reply=None)

    return begin_complete


def run_probes() -> Dict[str, float]:
    system = WhisperSystem(ScenarioConfig(seed=0))
    service = system.deploy_student_service()
    system.settle()
    arguments = {"ID": "S00001"}
    value = system.run_process(service.invoke("StudentInformation", arguments)).value

    request = Envelope.call("StudentInformation", arguments)
    response = Envelope.result("StudentInformation", value)
    request_xml, response_xml = request.to_xml(), response.to_xml()

    proxy = service.proxy
    annotation = service.sws.annotation("StudentInformation")
    advertisements = proxy.discovery.get_local_advertisements(SemanticAdvertisement)
    advertisement = service.group.advertisement
    output = service.sws.operation("StudentInformation").outputs[0]
    element = output.element.split(":", 1)[-1]
    schema = service.sws.definitions.schema

    empty = DedupJournal()
    full = DedupJournal()
    fill = _journal_probe(full, "fill")
    for _ in range(full.capacity):
        fill()

    cache = SemanticResultCache(ResultCacheSpec())
    cache.store("probe", value, action=annotation.action, epoch=None,
                group_id=None, now=0.0)

    env = Environment()

    def timeout_event() -> None:
        env.timeout(0.001)
        env.step()

    return {
        "soap.encode_us": _time_us(lambda: (request.to_xml(), response.to_xml())),
        "soap.decode_us": _time_us(
            lambda: (Envelope.from_xml(request_xml), Envelope.from_xml(response_xml))
        ),
        "wsdl.validate_us": _time_us(lambda: schema.validate_element(element, value)),
        "ontology.match_us": _time_us(
            lambda: system.matcher.match_signature(
                annotation.action,
                annotation.inputs,
                annotation.outputs,
                advertisement.get_sem_action(),
                advertisement.get_sem_input(),
                advertisement.get_sem_output(),
            )
        ),
        "core.matching.find_best_us": _time_us(
            lambda: proxy.group_matcher.find_best(annotation, advertisements)
        ),
        # Below capacity for the whole probe: ITERATIONS < capacity.
        "core.journal.begin_complete_us_empty": _time_us(
            _journal_probe(empty, "probe")
        ),
        "core.journal.begin_complete_us_full": _time_us(
            _journal_probe(full, "probe")
        ),
        "core.rescache.lookup_us": _time_us(lambda: cache.lookup("probe", now=0.0)),
        "simnet.timeout_event_us": _time_us(timeout_event),
    }
