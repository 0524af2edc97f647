"""Regenerate the committed oracles under ``perfbench/oracle/``.

    python3 perfbench/gen_oracle.py des_figures
    python3 perfbench/gen_oracle.py model_paper [--des]

``des_figures.json`` holds every point's ``SimMetrics`` fields;
``model_paper.json`` holds every unit's ``Prediction`` fields and, under
``des_elapsed``, the simulated elapsed time the DES gives for the same
point.  Those DES runs take minutes each at paper scale, so they are
kept from the existing file unless ``--des`` asks to recompute them.
Regenerate only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]


def _write(name: str, data) -> None:
    from perfbench.harness import ORACLE_DIR

    ORACLE_DIR.mkdir(exist_ok=True)
    with open(ORACLE_DIR / f"{name}.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def des_figures() -> None:
    from perfbench.des_figures import build_units, point_fields, unit_key

    _write("des_figures", {unit_key(s): point_fields(s.run()) for s in build_units()})


def model_paper(recompute_des: bool) -> None:
    from perfbench.harness import ORACLE_DIR
    from perfbench.model_paper import build_units, prediction_fields
    from repro.experiments.harness import des_point
    from repro.model import predict_pattern

    path = ORACLE_DIR / "model_paper.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    units = build_units()
    kept = {} if recompute_des else old.get("des_elapsed", {})
    des = {key: kept[key] for key, *_ in units if key in kept}
    predictions = {
        key: prediction_fields(predict_pattern(pattern, method, kind, cfg))
        for key, pattern, method, kind, cfg in units
    }
    _write("model_paper", {"predictions": predictions, "des_elapsed": des})
    for key, pattern, method, kind, cfg in units:
        if key not in des:  # written point by point: each run takes minutes
            des[key] = des_point(pattern, method, kind, cfg).elapsed
            print(f"{key}: DES {des[key]:.6g} s", flush=True)
            _write("model_paper", {"predictions": predictions, "des_elapsed": des})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workload", choices=("des_figures", "model_paper"))
    p.add_argument("--des", action="store_true",
                   help="recompute the paper-scale DES references (slow)")
    args = p.parse_args(argv)
    if args.workload == "des_figures":
        des_figures()
    else:
        model_paper(args.des)
    return 0


if __name__ == "__main__":
    sys.exit(main())
