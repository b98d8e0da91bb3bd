"""Line recorder of ``python -m benchmarks.census``.

The census puts this directory first on ``PYTHONPATH``, so every Python
process a lane starts — and every process those start: the ledger's runs,
the demos' daemons — imports this module before anything else.  With
``REPRO_CENSUS_OUT`` (a directory) and ``REPRO_CENSUS_ROOT`` (the package
directory to watch) set, it records which lines of which code objects
under the root run, and writes them to ``<out>/hits-<pid>-<token>.json``
when the process exits *or is sent SIGTERM* (the demos stop their daemons
with ``Popen.terminate()``).  Without those variables it does nothing.

A frame outside the root costs one dict lookup per call; a code object
stops being line-traced once every one of its lines has been seen.
"""

import os


def _install(out_dir: str, root: str) -> None:
    import atexit
    import json
    import signal
    import sys
    import threading

    root = os.path.join(os.path.realpath(root), "")
    token = os.urandom(4).hex()
    #: id(code) -> (code, path under the root or None, lines seen, lines
    #: still unseen, local tracer).  Keyed by id because equal code objects
    #: of different files compare equal; the entry keeps the code object
    #: alive so its id is never reused.
    watched: dict = {}

    def watch(code) -> tuple:
        filename = os.path.realpath(code.co_filename)
        if not filename.startswith(root):
            entry = (code, None, None, None, None)
        else:
            seen: set = set()
            unseen = {ln for _, _, ln in code.co_lines() if ln}

            def on_line(frame, event, arg):
                if event == "line":
                    seen.add(frame.f_lineno)
                    unseen.discard(frame.f_lineno)
                return on_line

            entry = (code, filename[len(root):], seen, unseen, on_line)
        watched[id(code)] = entry
        return entry

    def on_call(frame, event, arg):
        code = frame.f_code
        _, rel, seen, unseen, on_line = watched.get(id(code)) or watch(code)
        if rel is None:
            return None
        # the def line carries RESUME only: it gets a call, never a line event
        seen.add(frame.f_lineno)
        unseen.discard(frame.f_lineno)
        return on_line if unseen else None

    def flush() -> None:
        lines: dict = {}
        calls: dict = {}
        # list() of a dict's values / of a set of ints is one C call: atomic
        # under the GIL against the threads that are still recording
        for code, rel, seen, _, _ in list(watched.values()):
            if rel is not None:
                lines.setdefault(rel, set()).update(list(seen))
                calls.setdefault(rel, set()).add(code.co_firstlineno)
        path = os.path.join(out_dir, f"hits-{os.getpid()}-{token}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "lines": {k: sorted(v) for k, v in lines.items()},
                    "calls": {k: sorted(v) for k, v in calls.items()},
                },
                fh,
            )
        os.replace(path + ".tmp", path)

    def on_sigterm(signum, frame) -> None:
        flush()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    atexit.register(flush)
    # a program that installs its own SIGTERM handler replaces this one and
    # is then expected to exit through atexit
    signal.signal(signal.SIGTERM, on_sigterm)
    threading.settrace(on_call)
    sys.settrace(on_call)


if os.environ.get("REPRO_CENSUS_OUT") and os.environ.get("REPRO_CENSUS_ROOT"):
    _install(os.environ["REPRO_CENSUS_OUT"], os.environ["REPRO_CENSUS_ROOT"])
