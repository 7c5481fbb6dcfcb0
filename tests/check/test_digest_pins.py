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
  place of bit-identity.  Last regenerated in PR 22 (one coordinator
  lookup per failover: 24 of the 45 moved); before that, PR 14's values.

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
        "dbc36f733da065674165e72d5e58c8937ae8b9477414f53b0f157dcd7214c9c1",
        "60189b79a8b56bc6ee00a5f7ef83c160cdd729dd7b16bd718d4608d78a2e103a",
        "d9fd6b157481ee5dc437b22fb4e7695ea4ba8b3a43418d0136df37a605426acd",
    ],
    "flat/11": [
        "e4d0cf0e716322362eec9aa81e97455db7b8de8fbd23adc0c7f36aa6e179bcfd",
        "94c195a6cfc7ab2f5d1b375ce538eed0d969ad962672715fcf8ae8f10a5796da",
        "7cbebdc8104cdc16fdb6b83ba646314580bc6dcaf643c4881bc766852e511e0c",
    ],
    "flat/42": [
        "0671858c8e28ac0359b41ae0326cfcf52fad3ad2c014572d52a14ec06f43fd34",
        "3f5258ad6a011f9807643f214c7d46d62d2012a427ccb5062ee0cbd0da3e6b54",
        "d4277ca45aba20d86bd6727d8d3f847f5a050e115fd5f1ac594951ebe47c9bd1",
    ],
    "shards2/7": [
        "b4c83acba9a57cfba71bc7daaa375ea104698908dde32b901117514ed7ac973d",
        "4c4996958003c650ce2c5724f58e0276024417541c0c3d762b70ba6d13a1dc52",
        "a09206a8374f4997483e3216e4f354b1b43eecfd12776de29fce0d0e41c3802c",
    ],
    "shards2/11": [
        "d21caf8cba6ca1022f666dc517b627b7f3ad7b078eb9baa95ca34d18fb66c75f",
        "e8e8557318eda9d3253f26729a20d922ae7785c94901ceb6ef92eb8433e6d854",
        "644cd072a992e613c9009797b54acafe31597f87dfc664fbaf9b068496d37045",
    ],
    "shards2/42": [
        "079e6f7f17ee871942cf5c47412ea3bfcff058739c443313dcf7ea131eb13d2b",
        "9f37c2f48e2fb0ed89fe32d2411e5be0c79b7192ae7c12e7b744226880e9facf",
        "03d4d0c6bf4eb7d4225bff3a21d13dc5a38e78571bacef7afbac991a72928e05",
    ],
    "regions2/7": [
        "bac10e2758505fc9744b5781ebfc1acf0525b37d225bc16eac85d33ae6120d4d",
        "ca007ea4361a49432f159b906ccc0a4adaa2003c7570d5612b3152556f0e5a3c",
        "432f51af8172717b6c969132e1839c4b4458974ddf6ab07651d243c1b3e370bc",
    ],
    "regions2/11": [
        "0e997a6b81cec4e000ef3fc4fe0e04ded9934733f360a7fb8b43d9f9743a4532",
        "a44f8d204656e962c7e417c543ce84e12862d12cccacdadcd19d0d5328373ea3",
        "3124086345e3dac794052473c2dff7155c9eb5a8abc1d66db3b6e7cee53ec417",
    ],
    "regions2/42": [
        "4ba309912a3715ec314604104c44eb34255d0e6f2ebc71db252d12bf35762a8a",
        "5e1457c36065b721bea6a04c4722faa22ed589c79bd2c4bf639a862869e29e07",
        "b8494ccf39ff38acb20ff52feb6b949ac9acfdf2448f50fa24fcd606d42c5e3e",
    ],
    "capacity/7": [
        "6998cc657779aacffeb962599931ce316f56bd8bf6cdab3943e5aa22db3d7ae7",
        "0ed4b31dfa995e7b42433cf111e38a1dc4f9bdc144021e194042afa7574f73d8",
        "960d1f3576bca0a69bf8457e8be69e228743108a77d0e1855cbf002202724787",
    ],
    "capacity/11": [
        "11d0a38f7b884da78f4b79ddb120dc4ae750c8bb3993c940fda9e2f5cbbca78f",
        "e87e1c79a589f4c400901246ea94b478c9978b59fa136b2fa92bad254c03894e",
        "5fc1a1d004b229ebb0d5690c755d7c4c733a6dcb085f5b3562254a30b80772db",
    ],
    "capacity/42": [
        "d76096b591c9f40a79dd2e87b2387e521bc63267c65e1419a6a6e450b652e961",
        "b9647d6579627a46bb2b6c7d0e8832b5969f62d350f38a4a1138826b98ddd2e6",
        "0be33d76827baa6bc7d122ed9bd48a38f9786b0f4a353344b84dacc04bd0a19f",
    ],
    "saga/7": [
        "dd36298b562452b3d0066101c26d5590c73b074a13b37f954bb33f2cd609ab90",
        "08a75a9300e43f500a24d99bdf7f3116d2589fb13e72f233f65cda08c10fbeb6",
        "a4992d2648409d56b60701fcc299067dc1fd026928828963fc321a33c2662cde",
    ],
    "saga/11": [
        "92107c1dfea633011d3433beaba8edb5d7d9732ac9ab5d54a4be64477fba3d8e",
        "095db149ac573c2303560c4635775b7bb8b1e379fbb34cf2e08f1520bae49aec",
        "f91dea6876a039806694e0fcf99eccdf9dd38b2734841abd67d2bc0097587cc0",
    ],
    "saga/42": [
        "804cbae2594a6a25bc8b73886dbd68b99bce2e08e4f602812584bed1163508fc",
        "2a32933fccf447cd019069682ac43aafa381a0bce96befa12cde0497e327d139",
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
