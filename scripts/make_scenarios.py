#!/usr/bin/env python3
"""Regenerate the packaged scenario JSON files from the builders."""

import json
from pathlib import Path

from colavmpc import config as cfgm
from colavmpc import scenarios


def main():
    out_dir = Path(__file__).resolve().parent.parent / "src" / "colavmpc" / "scenarios"
    out_dir.mkdir(exist_ok=True)
    for name in scenarios.SCENARIO_NAMES:
        data = scenarios.build_config_dict(name)
        cfgm.from_dict(data)  # validate before writing
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
