"""Pinned sampled and interval results: every field, bit for bit.

The sampled and interval tiers share one window driver and one
estimator; any change to either must leave every result unchanged.
Each case below stores the sha256 of one full :class:`SimResult`
(cycles, instructions, issued, stalls, ``cycles_stderr``, the
``sample_*`` fields, sorted ``extra``, CPI stack and observer
histograms), taken before the tiers were merged:

* gcc and mcf at the small scale ``tests/test_interval.py`` uses, on
  every registered core, on both tiers, plain and with an observer
  (CPI stack plus metrics) attached;
* one lockstep-validated sampled run;
* one sampled run on an anchor-less trace (the fixed unit lattice);
* one trace short enough that each tier falls back to exact.

If a simulator change legitimately moves these numbers, re-pin with
``PYTHONPATH=src python tests/test_fidelity_pinned.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs import Observer
from repro.sim.registry import core_registry
from repro.sim.run import simulate
from repro.sim.sampling import SamplingConfig
from repro.validate import lockstep_simulate

CORES = {
    key: (descriptor.config_factory(8), descriptor.braided)
    for key, descriptor in core_registry().items()
}

#: case id -> sha256 of the sorted-key JSON of ``dataclasses.asdict``
PINNED = {
    "gcc-ooo-sampled-plain": "2dd18e30c9852087835a9c66afdce85bb890b172ab1694e46a3907b46ce3d207",
    "gcc-ooo-sampled-observed": "6d8e814454d2ef4f3bcc3f9e1b3cf15c96910fe7651e6d6791a292f03dbb2da0",
    "gcc-ooo-interval-plain": "9a4c7e30e2c48cd31a69693470d14799b66245092013de79865b4fcf510b6f69",
    "gcc-ooo-interval-observed": "296875a0539ef45209954b78e5c400769fbefdd8a85025efdc5cab9d50061619",
    "gcc-inorder-sampled-plain": "1b0e2e07efe7f6b2e37c0542c8270d8c81024ed6483fb883309196e027bf147a",
    "gcc-inorder-sampled-observed": "3f7d40c62c705070c13915cde9727a1503b6bdeff95284b7aff171d82addcd78",
    "gcc-inorder-interval-plain": "b1381491b5218ecb78361fc16b065f065f88e6023d003b0765f901ed180058e8",
    "gcc-inorder-interval-observed": "0df99eaabfc90dc0fd544cb28e167cd26cf8b3db239a6c856dbd3e9e99dcc163",
    "gcc-depsteer-sampled-plain": "6b9e33e344aba282519b900ec0e7f038361b175f181f7414cee039102a24aecd",
    "gcc-depsteer-sampled-observed": "4956be3a83b2c34f7933f7e55c31ac74ff3b3243cf0a26fb2b1d18cbfc45fb0e",
    "gcc-depsteer-interval-plain": "991d95f5b3b2893139a39d292ee61d969b6639bb6b04a89426578353b5f17501",
    "gcc-depsteer-interval-observed": "24ab27763610db35c087a727481517552133ae42b4a557bebff11ef2cd7d98b1",
    "gcc-braid-sampled-plain": "54fe9172ee7b0065ebe71d76fb33daab2cf1039f4693921d5a91b3a83d764e19",
    "gcc-braid-sampled-observed": "e4f46bcf181c9da4a59af1608bc23150cbae18e1d3a8c877e8b17df662a89c5d",
    "gcc-braid-interval-plain": "a4118ece634ac60e950aa72dc417bcfef0aa30de4754ffb9bd9cc48b87e71f68",
    "gcc-braid-interval-observed": "dc555dc96eaf3c23fc990c755abcd47b5a80f811ede73005194514a56b7af440",
    "gcc-blockooo-sampled-plain": "c845af1ad8d428c7cda9d72ae496aac4c8cbdf27677de52adede055d02e6a3f0",
    "gcc-blockooo-sampled-observed": "395f571f77f22e472acbe2f36b5c4de6c243de72558b39b38d3e9b96a2ae7310",
    "gcc-blockooo-interval-plain": "149b9d972e26d64b17a6d59a78eea58ad4a6f3b2556ff78d4ebca673bfa12e34",
    "gcc-blockooo-interval-observed": "e679518ca7e44526d034dd2a269ddad38b996926e33622b2dde74dcf64190221",
    "mcf-ooo-sampled-plain": "551477b5509ea2ad78a18795d40c2a512eef5600eac5190c1e33673bd2953af0",
    "mcf-ooo-sampled-observed": "cd023a467a4ddb7f210f62e9f070a1a300330125d285d9b489de6068d4ef1f19",
    "mcf-ooo-interval-plain": "626d2e3e015a58257d77b0500f9067a360abc6c92240dc8d32ff81c1472af599",
    "mcf-ooo-interval-observed": "47757dc65ebe55c967ce8be5edbd3230184b4f07fed3210ef3668329ead85874",
    "mcf-inorder-sampled-plain": "d045ba67c39a7d80def1ff402bff8c6f927a8b8a57dd60afbc3b7ccf42e55bb6",
    "mcf-inorder-sampled-observed": "8d1252d4a34b44d4e2a63e3fc9d554617b17ed2230b2815c8eb89e4a7089b25b",
    "mcf-inorder-interval-plain": "921cad111f1d8a0c35fa802d94995911591bc204487db7f99ff64faf5c284639",
    "mcf-inorder-interval-observed": "fd820c34b4a4da639a2284c5c69ca61f381106e0510081ee08b7674f4af59225",
    "mcf-depsteer-sampled-plain": "d6f33e154aa2af9795a52cb46ec94f679dbd3a6e8608bba6c90def3f6892aa0b",
    "mcf-depsteer-sampled-observed": "e3feb58c988ea4a49faf1d2f95ba03bbdd9c18769c50fb9c18c6bf8e3fef968e",
    "mcf-depsteer-interval-plain": "e22ed7e2c6372e28faf20eead4cb823127bac215a1cce1f65cfb3c2bbd675056",
    "mcf-depsteer-interval-observed": "ff62606d9e4f535d760fe3e9956f5105cffb31f5a5812053ffa4a9cba1f3d2a7",
    "mcf-braid-sampled-plain": "6fcd07eb2e99f19ec2c165cf1a6ce874ae92d2b0e14d857642cada56a0fa4690",
    "mcf-braid-sampled-observed": "f6919469ce0225e33823929e996f676665210be8a612371647f21e076e1e312f",
    "mcf-braid-interval-plain": "e105463fe66e8626c85efaf165f1b5b083f5714c61bbb0f258d7945a85d96416",
    "mcf-braid-interval-observed": "1cd57a023f6c02e94239b6e605bc4f92184053ffe8b1c853544ca8f41757b693",
    "mcf-blockooo-sampled-plain": "49a4c7fea29e61be9b86d0c18c439fb5592be6f17d290146967c602642c8da78",
    "mcf-blockooo-sampled-observed": "7276e64ed7ef947e27a816c8cce33fc329227412dbc9579b0bd5fe09e37da22a",
    "mcf-blockooo-interval-plain": "95f45842224e2bcda6e3aeef0d316e6a8d8b537e4dcd69134958527dc53620f6",
    "mcf-blockooo-interval-observed": "5e77538564ad280b7d7fb16e08b6dc8cc65872a4d47255179b1c077042a9dc8f",
    "lockstep-gcc-ooo-sampled": "34fdc6edba83405bb1867e3da6f51ab37524c8858a9543203e87b27b2e2a4bf0",
    "lattice-gcc-ooo-sampled": "b9194e558fab3b961c94481fad10070839f03f586e6fd60275a4db374aaf8890",
    "short-gcc-ooo-sampled": "984c4ceb9784c2d91b631e7d26f821e7b520141288047e4d4c7a6a254f74d11c",
    "short-gcc-ooo-interval": "6dc1527cfdf12d59be08f9a8ff4372b69452f16c2bc475d19fd77d44b802e7bd",
}


def digest(result) -> str:
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _context(**overrides) -> ExperimentContext:
    settings = dict(
        benchmarks=("gcc", "mcf"),
        max_instructions=200_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )
    settings.update(overrides)
    return ExperimentContext(**settings)


def _contexts():
    return {
        # the scale tests/test_interval.py uses: both planners engage
        "small": _context(scale=8),
        # default scale: gcc has no outer-loop anchors, so the sampled
        # planner falls back to the fixed lattice
        "lattice": _context(),
        # too short for either tier: both fall back to exact
        "short": _context(max_instructions=2_000),
    }


@pytest.fixture(scope="module")
def contexts():
    return _contexts()


GRID = [
    f"{name}-{core}-{tier}-{mode}"
    for name in ("gcc", "mcf")
    for core in CORES
    for tier in ("sampled", "interval")
    for mode in ("plain", "observed")
]

SPECIAL = [
    "lockstep-gcc-ooo-sampled",
    "lattice-gcc-ooo-sampled",
    "short-gcc-ooo-sampled",
    "short-gcc-ooo-interval",
]


def run_case(contexts, case: str):
    if case in SPECIAL:
        kind, name, core, tier = case.split("-")
    else:
        (name, core, tier, mode), kind = case.split("-"), "small"
    config, braided = CORES[core]
    workload = contexts[kind if kind != "lockstep" else "small"].workload(
        name, braided=braided
    )
    if kind == "lockstep":
        result, divergences = lockstep_simulate(
            workload, config, sampling=SamplingConfig(stride=4)
        )
        assert divergences == []
        return result
    observe = None
    if kind == "small" and mode == "observed":
        observe = Observer(cpi=True, metrics=True)
    return simulate(workload, config, fidelity=tier, observe=observe)


@pytest.mark.parametrize("case", GRID + SPECIAL)
def test_result_matches_pin(contexts, case):
    result = run_case(contexts, case)
    if case.startswith("lattice"):
        assert result.extra["sample_anchored"] == 0.0
    if case.startswith("short"):
        assert result.fidelity == "exact"
    assert digest(result) == PINNED[case], f"{case} moved"


if __name__ == "__main__":
    built = _contexts()
    for case in GRID + SPECIAL:
        print(f'    "{case}": "{digest(run_case(built, case))}",')
