"""Golden outputs: the six deterministic files of `flowtel run` are pinned by
sha256 for two presets. A digest change is a behaviour change; re-pin only
with a CHANGES.md entry that says why the outputs moved.

`manifest.json` is left out because it embeds the output path.
"""

import hashlib

import pytest

from flowtel.cli import main

GOLDEN = {
    "smoke": {
        "records.bin": "ecbe092e5061c40658e9b3c7ac24d0e044d311760fded12c00792876f9d7b208",
        "records.txt": "725fa5c69e7ac6e30e0f758d4c9c12dff44b4d426bea3fa8d0a95c07ef0a3cd9",
        "features.txt": "1c9fd4a6547aaff4fab9d2c9284109d8fbfb2e490d3b88a01f6777c684195bae",
        "outcomes.txt": "6a07514477379951cab8aef8717940184c6a3825bc4be262b751635811e240ad",
        "labels.txt": "b61649d75f52de6e36d41a69cf925ae8e801e45f8a280d9bf3cc4cb478414585",
        "metrics.txt": "3133ac684ba91a1b8734bf21ded64f6d12f20505d3b9bf491de916913e7651b1",
    },
    "burst_cost": {
        "records.bin": "43e930b1ed56e93d51b20beff4bbb36b717a38c9051b0fe5528f24510f86953e",
        "records.txt": "aa66f9e1d2f68e9e0f5f6ef4038ff8e1fea22051e68b1eb372833b6da7407d26",
        "features.txt": "556de562005c7dd0e2570b82d5504e8a43391c54bd628e9932d8b45b280ddc28",
        "outcomes.txt": "72ce2c1f1ace7481e96a8e59daaec63dd513c1c300d3877ce32f806a38457396",
        "labels.txt": "8e599b9dfb542dfd4e85bdffd2e085415951ace9a42bcc02531a574a928338e4",
        "metrics.txt": "90cbc06b9bea1191db803eebcde727729e39b08e223ef5940deddd850fdbe0f2",
    },
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(preset, tmp_path):
    out = tmp_path / preset
    assert main(["run", "--scenario", preset, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[preset]}
    assert got == GOLDEN[preset]
