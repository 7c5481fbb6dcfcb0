"""Digest pins: the message flow of the checker scenarios, frozen.

``RunResult.digest()`` covers violations, decision count, simulated end
time, probe/saga outcomes, applied effects and every fired fault op — so
a change on the proxy -> b-peer path that moves one message, timer or RNG
draw changes a digest here.  The table has two halves, so that a failure
says *which* flow moved:

* :data:`BASELINE` — the 15 fault-free runs.  Generated on the commit
  *before* the request-path fold of PR 14 (``core/bpeer.py`` /
  ``core/proxy.py``) and byte-for-byte unchanged since: the fault-free
  flow is frozen (Figure 4, ROADMAP item 4), and a PR passes these
  unedited or is not merged.
* :data:`FAULT_SCHEDULES` — the first three sampled fault schedules of
  each axis and seed, 45 runs.  A PR that *means* to change what is sent
  between a fault and the recovery from it regenerates this half, says so,
  and brings checker evidence (``python -m repro check`` on every axis) in
  place of bit-identity.  Last regenerated when a new coordinator came to
  get the group's journal from its takeover pull only (36 of the 45
  moved); before that when a failover came to cost one coordinator lookup
  (24 moved).

Regenerate with ``make digest-pins`` (``python -m tests.check.test_digest_pins``):
it prints both tables as they come out of this tree, ready to paste, and
one line saying which pins differ from the ones committed here.
"""

import functools
import itertools
import sys

import pytest

from repro.check.explorer import CheckScenario
from repro.check.saga import SagaCheckScenario

SCENARIOS = {
    "flat": CheckScenario(),
    "shards2": CheckScenario(shards=2),
    "regions2": CheckScenario(regions=2),
    "capacity": CheckScenario(capacity=True),
    "saga": SagaCheckScenario(),
}

#: ``axis/seed`` -> digest of the fault-free baseline run.
BASELINE = {
    "flat/7": "04f9a6ca4171bd7e2728fecb2d1ed75688bb8509cc6e991a935a129b30ddc838",
    "flat/11": "e428c723f25a33c566566495dca83fef8afa4efbbc4b097b9d65dec856aafa4e",
    "flat/42": "31e52e669a4f76c36cd9087878df1c9df15e1f8ec737b623b0bd1974b09a5860",
    "shards2/7": "46231c4e952f1f86ec0de155c5175b7b5f39bb1df9b450dc799f59286bcef89d",
    "shards2/11": "79135cedec214036e5e9d151767bddd4cfbcd8040cf37b4e55230fbf6c573ec0",
    "shards2/42": "821873c0bbb7fd27b2ab5a5f90186fee3e8cc0f3cf3ff6ebd9f5c2a24a96aa83",
    "regions2/7": "e674f6c8cce467efcaa3a80c3317fd6a320d03f1951b26875f8af05e997fc159",
    "regions2/11": "0192e3f741b43088cd4b9599dbe65839a1d97c0b965b447913d20fe0d986232d",
    "regions2/42": "6a776d075432f6921c3cf5220e3f0fc0771ffecd6efb057a2f7a2db67e02b0bd",
    "capacity/7": "a75931113bf6efbf6b345ed9537b5e11bc4cd7253ab5ed59bda053f37e7098f4",
    "capacity/11": "163c892aa96b61858570526fc1eaba63218def2fdf5e5adfd847cdef0d361045",
    "capacity/42": "35077a347ce68ce9cd9962d530b14b27d4468b1f8e9746d540174e7920fa41b2",
    "saga/7": "fa909616057b0f5245e3fd83675b61a9cd5231ed3616b47c0bf67d2faa7431af",
    "saga/11": "fa909616057b0f5245e3fd83675b61a9cd5231ed3616b47c0bf67d2faa7431af",
    "saga/42": "fa909616057b0f5245e3fd83675b61a9cd5231ed3616b47c0bf67d2faa7431af",
}

#: ``axis/seed`` -> digests of [sampled 0, sampled 1, sampled 2].
FAULT_SCHEDULES = {
    "flat/7": [
        "99fea5a8472155cbfa0e4d6284284900f6ada3e160f7c613766937562c87590f",
        "ac9b672f9c22d0fef31145605bb264dcad47a7b95f8206bd3eeac43f9cea4ea2",
        "3e2c14e6d2268ec0b36124b235ab4b52563c5bd5a7c99192a83d7a89c2119932",
    ],
    "flat/11": [
        "e4d0cf0e716322362eec9aa81e97455db7b8de8fbd23adc0c7f36aa6e179bcfd",
        "386e8bac37e32a21f60bbdfe82a0e04bd17e2eac5af0d961327c7789a9ba5687",
        "26920c2a2ade653bc34ceabddae94a6466b229d128bd0f8cf41200ba485a9276",
    ],
    "flat/42": [
        "c7804421513b9ca686fe741d8f351d75e2818aef1428aeddbef844f5f7b1062c",
        "052f1364a76a5422c6d6afba4f18633718a0958c676ee61a4759044bc2f6500c",
        "14a6f64f8eb29a60c4a4000b3e1e6f7b9c5f64c8c5eda83356ed74b7a63c2568",
    ],
    "shards2/7": [
        "df7c8923f48a0f9bbe20624797205d247599d53a90f6380794a8d9c3e105dacd",
        "2c9a24f1ad6f63dc504e19ad82a862142d4a4e8716507ed8e06c31953380657b",
        "ec03946d2912e9c891a1d7a02ce8efed5806b263ea4720ce1f9fe0bf0a90523f",
    ],
    "shards2/11": [
        "d21caf8cba6ca1022f666dc517b627b7f3ad7b078eb9baa95ca34d18fb66c75f",
        "552e255a761a90d8a0014fba87ea3fa6f27db0c58054a53e78ce0782936c7201",
        "7fcb7c0e4969b769edbe0b460763fd4335513949a691c09ffd17d3c41396c7ab",
    ],
    "shards2/42": [
        "079e6f7f17ee871942cf5c47412ea3bfcff058739c443313dcf7ea131eb13d2b",
        "061849cd880a71609d62413c938ab55db8e5c0ea8e0da5548c93169e440fa79d",
        "b39a018eed3dd108f5ac253ca0b38fe7f8aa7f3863873b8b4a4d3f3544fcbbe1",
    ],
    "regions2/7": [
        "6b8ba64962773765ef6ed8921875655076c39f2d826c75060617f58b22c71b27",
        "5504e7532563d615ebfd2a0853b5fa1ce78b4d5b8ce3f78d09a4095a20f91325",
        "2a2e6fa9c1c95744934b4b53c518243e683670f2cd9ed2f92df333260fcefd51",
    ],
    "regions2/11": [
        "0e997a6b81cec4e000ef3fc4fe0e04ded9934733f360a7fb8b43d9f9743a4532",
        "d0dfdb7abea29f380a02663a11440cd615b6a8a04c58f63a723600ae4d794cc9",
        "0fa81b883e3f4c82abc0f56f80762697324f14cead39b2892c6dc0489b763cc1",
    ],
    "regions2/42": [
        "f5bbcf0977305ca2b58b103953aec6c87a286c37799c0e3bd09e79f02c8c2d75",
        "64d6fe53580d5cc5e1e094a6e9e45c9407ae05ee4328149274a6a1080e7ef087",
        "7da42eb7d408e1dcfe1bae3712b0abf52ac6ef205950c176603cf7ce0b18e194",
    ],
    "capacity/7": [
        "d5ead6c1c14284cc5c50cb6771c5fb40476bbff247b8108408d42d80a4e98a96",
        "ae5acc862d76bb55cba5323763cd06cfdcf353a08d304a083c5fa74ee45723eb",
        "d81ce7f530964e61cc4126b3b4e7b10d351f7fda30c4ee7e903940f026604598",
    ],
    "capacity/11": [
        "11d0a38f7b884da78f4b79ddb120dc4ae750c8bb3993c940fda9e2f5cbbca78f",
        "e87e1c79a589f4c400901246ea94b478c9978b59fa136b2fa92bad254c03894e",
        "5fc1a1d004b229ebb0d5690c755d7c4c733a6dcb085f5b3562254a30b80772db",
    ],
    "capacity/42": [
        "7c6be7bbf42a20f8502357d3c20b185e6348f02873867a7855c94f4f71953a1b",
        "af6688e0426c674b41bff3ccb0ad8f5996578633ac92d4396760afe07f1691c0",
        "3c7e8ed5b885dee26c1c306b2284e05f81139673321c979ab674fb5c54261179",
    ],
    "saga/7": [
        "dd36298b562452b3d0066101c26d5590c73b074a13b37f954bb33f2cd609ab90",
        "2432497f4dd983f293a251d5cf76fad44d934fd8ccd6c2e2e23d828b14ae2bd6",
        "a1efefa21411630801ee2eb95cfd7a2c016e3597c8107b576d0402f45dd8ecf4",
    ],
    "saga/11": [
        "ebd27c06c28ae26dcae5819063351de90896363450b489f17a370ce0acff3c8f",
        "f61cd45cc17d1efbc4de33eb6c52a65a2a9edba5f8cb5a31864c22aa5b60c159",
        "062d038b8bd66ac5a2a28274114b08dc3ef50a62fe2895b5b59e93c20f6d21f8",
    ],
    "saga/42": [
        "a5c97c43e446f109349412a588e325388556de30641898cef5afe126357bba04",
        "30a80cba25083c30a5402191de4430f1eda0c11cbeee9f8cd97970ccee395058",
        "b4e3f4148288d04e5702d5d25c8e294fe268d25f01e69150fe05e5ef4509d936",
    ],
}


@functools.lru_cache(maxsize=None)
def _digests(pin):
    """Baseline + the first three sampled schedules (the explorer's own
    sampler, ``max_ops=4`` like ``python -m repro check``)."""
    axis, seed = pin.split("/")
    scenario = SCENARIOS[axis].replace(seed=int(seed))
    baseline = scenario.run(scenario.baseline_schedule())
    sampled = itertools.islice(scenario.schedules(baseline, 4), 3)
    return [baseline.digest()] + [scenario.run(s).digest() for s in sampled]


@pytest.mark.parametrize("pin", sorted(BASELINE))
def test_digests_match_the_pre_refactor_commit(pin):
    """The fault-free half: still the values PR 14's parent produced."""
    assert _digests(pin)[0] == BASELINE[pin]


@pytest.mark.parametrize("pin", sorted(FAULT_SCHEDULES))
def test_fault_schedule_digests_match_the_table(pin):
    assert _digests(pin)[1:] == FAULT_SCHEDULES[pin]


def main() -> int:
    """Print the tables this tree produces and which pins moved."""
    moved_baseline, moved_faults = [], []
    baseline_rows, fault_rows = [], []
    for pin in BASELINE:
        first, *sampled = _digests(pin)
        baseline_rows.append(f'    "{pin}": "{first}",')
        fault_rows.append(f'    "{pin}": [')
        fault_rows.extend(f'        "{digest}",' for digest in sampled)
        fault_rows.append("    ],")
        if first != BASELINE[pin]:
            moved_baseline.append(pin)
        moved_faults.extend(
            f"{pin}[{index}]"
            for index, (now, then) in enumerate(zip(sampled, FAULT_SCHEDULES[pin]))
            if now != then
        )
    print("\n".join(["BASELINE = {", *baseline_rows, "}", ""]))
    print("\n".join(["FAULT_SCHEDULES = {", *fault_rows, "}", ""]))

    def summary(half, pins, total):
        return f"{half}: {len(pins)} of {total} moved" + (
            f" ({', '.join(pins)})" if pins else ""
        )

    print(
        summary("baseline", moved_baseline, len(BASELINE))
        + "; "
        + summary("fault schedules", moved_faults, 3 * len(FAULT_SCHEDULES))
    )
    # A moved baseline is never a regeneration: it fails the command.
    return 1 if moved_baseline else 0


if __name__ == "__main__":
    sys.exit(main())
