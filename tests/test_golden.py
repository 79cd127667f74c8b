"""Golden outputs: the six deterministic files of `flowtel run` are pinned by
sha256 for two presets and one scenario file. A digest change is a behaviour
change; re-pin only with a CHANGES.md entry that says why the outputs moved.

`manifest.json` is left out because it embeds the output path.

Neither preset drops a packet, so `golden_drops.json` pins the PM drop
column: meter drops on two classes (one of them loses every packet in some
windows, a drop-only row), buffer overflow during two microbursts, and
overflow drops of an unmonitored flow that PM must not count.
"""

import hashlib
from pathlib import Path

import pytest

from flowtel.cli import main
from flowtel.scenarios import PRESETS

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
    "golden_drops.json": {
        "records.bin": "2cd9ed8c9a01e0468cc64c9d9d3bad5bd3ff808474f7c35ab42a88600198a6d1",
        "records.txt": "07763ec6832c58e5d4a7aaeef4869fc5f4d99dfab2087f752afe80cb8903c4cc",
        "features.txt": "66841147463a359051b95f120a2389aefc3723a1844183f389e77b153accfa7a",
        "outcomes.txt": "e2f9e2f2c98e7e4789b41b8b317b74b94a79ad69731cda614ea8e636c7bebd8f",
        "labels.txt": "b61649d75f52de6e36d41a69cf925ae8e801e45f8a280d9bf3cc4cb478414585",
        "metrics.txt": "aa2d9c25b5fc726a99e0c3e86f322a71292d71d551d5630d3bf4223f999a28e9",
    },
}


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_run_outputs_match_golden_digests(preset, tmp_path):
    out = tmp_path / preset
    scenario = preset if preset in PRESETS else str(Path(__file__).parent / preset)
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN[preset]}
    assert got == GOLDEN[preset]
