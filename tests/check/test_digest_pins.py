"""Digest pins: the message flow of the checker scenarios, frozen.

Every value below was generated on the commit *before* the request-path
fold of PR 14 (``core/bpeer.py`` / ``core/proxy.py``) by running exactly
the code in :func:`_digests`.  ``RunResult.digest()`` covers violations,
decision count, simulated end time, probe/saga outcomes, applied effects
and every fired fault op — so a refactor of the proxy -> b-peer path that
moves one message, timer or RNG draw changes a digest here.  A PR that
*means* to change the flow regenerates the table and says so; a PR that
claims "not one message changed" must pass it unmodified.
"""

import itertools

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

#: ``axis/seed`` -> digests of [baseline, sampled 0, sampled 1, sampled 2].
PINS = {
    "flat/7": [
        "04f9a6ca4171bd7e2728fecb2d1ed75688bb8509cc6e991a935a129b30ddc838",
        "dbc36f733da065674165e72d5e58c8937ae8b9477414f53b0f157dcd7214c9c1",
        "e51c4a87dbbcd280b264ac9331351673be252f691e56f8d337e7f96d5b4be383",
        "c63f1499167be2551606b21f6891143817738ef07e482c43cb754103b29ad341",
    ],
    "flat/11": [
        "e428c723f25a33c566566495dca83fef8afa4efbbc4b097b9d65dec856aafa4e",
        "e4d0cf0e716322362eec9aa81e97455db7b8de8fbd23adc0c7f36aa6e179bcfd",
        "ce740a31c0bb282a1cbccb9fcd504a52567681c2c753846c2653919c2e29f163",
        "a9b0223f404f765d217ae656782380ff341ddfd59cb30233144243d2b0581f95",
    ],
    "flat/42": [
        "31e52e669a4f76c36cd9087878df1c9df15e1f8ec737b623b0bd1974b09a5860",
        "0671858c8e28ac0359b41ae0326cfcf52fad3ad2c014572d52a14ec06f43fd34",
        "176bd5202ae43b2de040bfbde75f43fcc1745a8f4ea00898911058207fba42f7",
        "917387c8d03e462c80170bae5516f5ca9039fa4de9216638bb2cb3206c4a0ebd",
    ],
    "shards2/7": [
        "46231c4e952f1f86ec0de155c5175b7b5f39bb1df9b450dc799f59286bcef89d",
        "b4c83acba9a57cfba71bc7daaa375ea104698908dde32b901117514ed7ac973d",
        "8f3b1b5500bb96b2a45ee242db5749354eb824bfef9d7f38b0b41bae6551dfee",
        "a49e58a74b8f9ae43453b294b4b6e578cabaf6ce8ee2b0560af7551b4e3e6bd6",
    ],
    "shards2/11": [
        "79135cedec214036e5e9d151767bddd4cfbcd8040cf37b4e55230fbf6c573ec0",
        "d21caf8cba6ca1022f666dc517b627b7f3ad7b078eb9baa95ca34d18fb66c75f",
        "c1548ad58dd17566117d96e763a6b8ec95bc6d078d61ebfc6527feda29cedd2a",
        "04fffc5d505e93e12b416f0ed8c557e450655c59c13173e99957f62b7c58998a",
    ],
    "shards2/42": [
        "821873c0bbb7fd27b2ab5a5f90186fee3e8cc0f3cf3ff6ebd9f5c2a24a96aa83",
        "079e6f7f17ee871942cf5c47412ea3bfcff058739c443313dcf7ea131eb13d2b",
        "9f37c2f48e2fb0ed89fe32d2411e5be0c79b7192ae7c12e7b744226880e9facf",
        "872b466dbbe2a231eb557c5efbe31d68ea04513b252ae4cb096e352c708e9f7b",
    ],
    "regions2/7": [
        "e674f6c8cce467efcaa3a80c3317fd6a320d03f1951b26875f8af05e997fc159",
        "8dac022460cd80fb470692c2e90fb6800728f9eabe004928bb26774f0008f736",
        "cd2c617a627f0872b59b923d41a84a9a6765c606a52a1b8ac779c5251abb6b9b",
        "c23f4eba0c8d912365ecf476affd66a053d231946450d3bd4510b1f138129499",
    ],
    "regions2/11": [
        "0192e3f741b43088cd4b9599dbe65839a1d97c0b965b447913d20fe0d986232d",
        "0e997a6b81cec4e000ef3fc4fe0e04ded9934733f360a7fb8b43d9f9743a4532",
        "d2a27036a047b07535b4f08e138bbdca855a37cf08ed5b469b9ad13a0e53470e",
        "3124086345e3dac794052473c2dff7155c9eb5a8abc1d66db3b6e7cee53ec417",
    ],
    "regions2/42": [
        "6a776d075432f6921c3cf5220e3f0fc0771ffecd6efb057a2f7a2db67e02b0bd",
        "4ba309912a3715ec314604104c44eb34255d0e6f2ebc71db252d12bf35762a8a",
        "5e1457c36065b721bea6a04c4722faa22ed589c79bd2c4bf639a862869e29e07",
        "539f239a482fe93401567509ac8a99377e95e0133aacfdacaa3d1b70c60abb99",
    ],
    "capacity/7": [
        "a75931113bf6efbf6b345ed9537b5e11bc4cd7253ab5ed59bda053f37e7098f4",
        "cfa333c9d51115b2141fbfad7c98d74d1a6f66bff2342d223ad067230f9bc3fe",
        "0245ec25afaaceb8f9c30435935cea7e35605870f2f021882c8f5f0bd3cbfa6b",
        "354a898f03e0e88571b86ab634ddbf5daba44ddff860c637976d65dc2b401da5",
    ],
    "capacity/11": [
        "163c892aa96b61858570526fc1eaba63218def2fdf5e5adfd847cdef0d361045",
        "11d0a38f7b884da78f4b79ddb120dc4ae750c8bb3993c940fda9e2f5cbbca78f",
        "e87e1c79a589f4c400901246ea94b478c9978b59fa136b2fa92bad254c03894e",
        "5fc1a1d004b229ebb0d5690c755d7c4c733a6dcb085f5b3562254a30b80772db",
    ],
    "capacity/42": [
        "35077a347ce68ce9cd9962d530b14b27d4468b1f8e9746d540174e7920fa41b2",
        "d76096b591c9f40a79dd2e87b2387e521bc63267c65e1419a6a6e450b652e961",
        "1f40fdf5b7fdb995a5a71a81b990ee2b136876e71f761299e8ddd199702488a6",
        "bc7a7b1edd7e7297f05d132cd4f6d1b621ffcb970fe2373088e84a7c37ae1d37",
    ],
    "saga/7": [
        "fa909616057b0f5245e3fd83675b61a9cd5231ed3616b47c0bf67d2faa7431af",
        "f376c9d76510e83d9d19d99303d8ba63687503d4c01483806e7465dab0ebfdff",
        "08a75a9300e43f500a24d99bdf7f3116d2589fb13e72f233f65cda08c10fbeb6",
        "a4992d2648409d56b60701fcc299067dc1fd026928828963fc321a33c2662cde",
    ],
    "saga/11": [
        "fa909616057b0f5245e3fd83675b61a9cd5231ed3616b47c0bf67d2faa7431af",
        "cd0707da865ce4696afd4d1e27884949a5d10c46e251603a7ffabaf809c7ca76",
        "095db149ac573c2303560c4635775b7bb8b1e379fbb34cf2e08f1520bae49aec",
        "f91dea6876a039806694e0fcf99eccdf9dd38b2734841abd67d2bc0097587cc0",
    ],
    "saga/42": [
        "fa909616057b0f5245e3fd83675b61a9cd5231ed3616b47c0bf67d2faa7431af",
        "c5b91fa9292afe0647d65ea91bbe3178c3034ac1d159adad7af51b900648614f",
        "2a32933fccf447cd019069682ac43aafa381a0bce96befa12cde0497e327d139",
        "b4e3f4148288d04e5702d5d25c8e294fe268d25f01e69150fe05e5ef4509d936",
    ],
}


def _digests(scenario):
    """Baseline + the first three sampled schedules (the explorer's own
    sampler, ``max_ops=4`` like ``python -m repro check``)."""
    baseline = scenario.run(scenario.baseline_schedule())
    sampled = itertools.islice(scenario.schedules(baseline, 4), 3)
    return [baseline.digest()] + [scenario.run(s).digest() for s in sampled]


@pytest.mark.parametrize("pin", sorted(PINS))
def test_digests_match_the_pre_refactor_commit(pin):
    axis, seed = pin.split("/")
    assert _digests(SCENARIOS[axis].replace(seed=int(seed))) == PINS[pin]
