"""The proxy's per-group QoS profiles: one per group, a default until
the group has served, and what picks among equally matching groups."""

from repro.core import ScenarioConfig, WhisperSystem
from repro.core.bpeer_group import semantic_advertisement_for
from repro.wsdl.annotations import SemanticAnnotation

ANNOTATION = SemanticAnnotation(
    action="http://o#A", inputs=("http://o#In",), outputs=("http://o#Out",)
)


class TestProxyQosPrior:
    def test_unadvertised_group_gets_default_profile(self):
        system = WhisperSystem(ScenarioConfig(seed=31))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        advertisement = semantic_advertisement_for("grp-y", ANNOTATION, "http://onto")
        profile = service.proxy._profile_for(advertisement.key())
        assert profile.snapshot().reliability == 1.0

    def test_profile_persists_across_lookups(self):
        system = WhisperSystem(ScenarioConfig(seed=31))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        advertisement = semantic_advertisement_for("grp-z", ANNOTATION, "http://onto")
        first = service.proxy._profile_for(advertisement.key())
        first.record_success(0.123)
        second = service.proxy._profile_for(advertisement.key())
        assert second is first
        assert second.observations == 1

    def test_proxy_prefers_group_with_better_profile(self):
        """Two semantically identical groups; only the proxy's QoS
        estimate of each differs.  The proxy's choice is the better one."""
        from repro.backend import student_database, student_lookup_operational
        from repro.core.bpeer_group import deploy_bpeer_group

        system = WhisperSystem(ScenarioConfig(seed=37))
        service = system.deploy_student_service(system.config.replace(replicas=2))
        annotation = service.sws.annotation("StudentInformation")
        good = deploy_bpeer_group(
            system.network, system.rendezvous, "grp-good", annotation,
            [student_lookup_operational(student_database())],
            ontology_uri=system.ontology.uri,
        )
        bad = deploy_bpeer_group(
            system.network, system.rendezvous, "grp-bad", annotation,
            [student_lookup_operational(student_database())],
            ontology_uri=system.ontology.uri,
        )
        system.settle(8.0)
        proxy = service.proxy
        proxy._profile_for(good.advertisement.key()).record_success(0.002)
        proxy._profile_for(bad.advertisement.key()).record_success(0.5)
        proxy._profile_for(bad.advertisement.key()).record_failure()
        matches = proxy.group_matcher.find_all(
            annotation, [good.advertisement, bad.advertisement]
        )
        chosen = proxy._choose_group(matches)
        assert chosen.advertisement.name == "grp-good"
