"""The ``sweep_service`` daemon process: one ``ServiceDaemon`` worker over a
result cache, driven by line commands on standard input.

    python3 perfbench/serve.py CACHE_DIR

Prints ``port N`` once the daemon listens.  Commands, each answered with
``ok``: ``profile on`` profiles the worker thread from the next job on;
``profile off PATH`` stops and writes the worker's cProfile stats to
``PATH``.  End of input stops the daemon and exits.
"""

from __future__ import annotations

import cProfile
import os
import sys
from pathlib import Path
from typing import Optional

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.service import ServiceDaemon  # noqa: E402
from repro.sweep import ResultCache  # noqa: E402


class ProfiledDaemon(ServiceDaemon):
    """The daemon, its worker thread profiled while :attr:`profile` is set
    (cProfile only sees the thread that enables it)."""

    profile: Optional[cProfile.Profile] = None

    def _run_job(self, job) -> None:
        prof = self.profile
        if prof is None:
            return super()._run_job(job)
        prof.enable()
        try:
            return super()._run_job(job)
        finally:
            prof.disable()


def main(argv) -> int:
    with open(os.devnull, "w") as log:
        daemon = ProfiledDaemon("127.0.0.1", 0, workers=1,
                                cache=ResultCache(argv[0]), log_stream=log)
        _host, port = daemon.start()
        try:
            print(f"port {port}", flush=True)
            for line in sys.stdin:
                words = line.split()
                if words[:2] == ["profile", "on"]:
                    daemon.profile = cProfile.Profile()
                elif words[:2] == ["profile", "off"]:
                    prof, daemon.profile = daemon.profile, None
                    prof.dump_stats(words[2])
                print("ok", flush=True)
        finally:
            daemon.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
