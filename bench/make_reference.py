"""Regenerate bench/reference.json from the sources in src/.

    python3 bench/make_reference.py

Stores, for every pivot table the workloads read, the quantile and its Monte
Carlo standard error at each level the reports use, and the canary report's
estimate, V and pivot. Run it only when a change is meant to move these
values, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from specnorm import cli  # noqa: E402
from specnorm.inference import mc_quantiles, mc_quantiles_joint, quantile_se  # noqa: E402
from workloads import (  # noqa: E402
    CANARY_CONFIG, COLD_TABLE, EXPONENTS, JOINT_PAIRS, LEVEL_ALPHA, WARM_TABLE, config_text, joint_key, law_key,
)

ALPHAS = (LEVEL_ALPHA / 2, 1 - LEVEL_ALPHA / 2, 1 - LEVEL_ALPHA)


def _levels(law) -> dict:
    return {str(a): [law.quantile(a), quantile_se(law, a)] for a in ALPHAS}


def main() -> None:
    laws = {}
    tables = [(fg, WARM_TABLE) for fg in sorted(set(EXPONENTS.values()))] + [((3, 2), COLD_TABLE)]
    for (f, g), (reps, steps) in tables:
        law = mc_quantiles(f, g, replications=reps, bm_steps=steps, threads=2, use_cache=False)
        laws[law_key(f, g, (reps, steps))] = _levels(law)
    joint = mc_quantiles_joint(JOINT_PAIRS, replications=COLD_TABLE[0], bm_steps=COLD_TABLE[1], threads=2)
    laws[joint_key(COLD_TABLE)] = _levels(joint)

    (BENCH / "out").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=BENCH / "out"))
    try:
        os.environ["SPECNORM_CACHE_DIR"] = str(tmp / "cache")
        cfg = tmp / "canary.cfg"
        cfg.write_text(config_text(**CANARY_CONFIG))
        out = tmp / "canary.json"
        if cli.main(["infer", "--config", str(cfg), "--out", str(out)]) != 0:
            raise SystemExit("canary report failed")
        report = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp)
    reference = {
        "canary": {k: report[k] for k in ("estimate", "V", "pivot")},
        "laws": laws,
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
