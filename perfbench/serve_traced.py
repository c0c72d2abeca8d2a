"""Daemon launcher for the traced serve-plate run.

Installs the span wrappers of :mod:`tracing`, then runs the same daemon
``python -m repro serve`` runs (:func:`repro.serving.daemon.run_daemon`,
its defaults, an ephemeral port), and writes the spans when it exits.

Usage: ``serve_traced.py SPANS_PATH``.
"""

from __future__ import annotations

import sys

from common import use_source_tree


def main() -> int:
    spans_path = sys.argv[1]
    use_source_tree()
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.serving.daemon import run_daemon

    try:
        return run_daemon(port=0)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
