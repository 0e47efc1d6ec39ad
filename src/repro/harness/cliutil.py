"""Shared CLI conventions for the ``python -m repro`` subcommands.

Every subcommand follows the same contract (documented in README):

* exit ``0`` on success,
* exit ``1`` when the requested check failed (regression over threshold,
  unhandled fault, trace mismatch, lint finding, ...),
* exit ``2`` for usage errors (argparse's own convention),
* accept ``--seed`` so invocations stay uniform across subcommands,
  even where the underlying computation is seed-independent;
* fan multi-task work out through :func:`fan_out`, which merges results
  in task order so ``--jobs 1`` and ``--jobs N`` write identical bytes.
"""

from __future__ import annotations

import argparse
from concurrent import futures
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, TypeVar)

from repro.analysis.diagnostics import WorkerCrashError

__all__ = ["EXIT_OK", "EXIT_FAILURE", "EXIT_USAGE", "MAX_RESTARTS",
           "add_seed_argument", "fan_out", "load_or_usage_error"]

T = TypeVar("T")

#: Success.
EXIT_OK = 0
#: The command ran but its check failed (regression, mismatch, finding).
EXIT_FAILURE = 1
#: Usage error — argparse exits with this on bad arguments.
EXIT_USAGE = 2


def add_seed_argument(parser: argparse.ArgumentParser,
                      default: int = 0,
                      help_suffix: str = "") -> None:
    """Attach the uniform ``--seed`` option to *parser*."""
    text = f"base RNG seed (default {default})"
    if help_suffix:
        text += f"; {help_suffix}"
    parser.add_argument("--seed", type=int, default=default, help=text)


def load_or_usage_error(parser: argparse.ArgumentParser,
                        load: Callable[[Any], T], path: Any,
                        what: str) -> T:
    """``load(path)``; an unreadable, non-JSON or wrong-shape file is a
    usage error (exit 2), never a traceback."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot load {what} {path}: {exc}")


#: Restarts granted per task before an injected worker crash propagates
#: (a crash budget beyond this is a plan bug, not a degradation scenario).
MAX_RESTARTS = 3


def fan_out(fn: Callable[..., T], tasks: Sequence[str], jobs: int,
            crash_budget: Optional[Mapping[str, int]] = None,
            notify: Optional[Callable[[str], None]] = None,
            done_line: Optional[Callable[[int, str, T], str]] = None,
            ) -> Tuple[List[T], Dict[str, int]]:
    """Run ``fn(task)`` for every task: inline when ``jobs <= 1`` or
    there is one task, across a process pool otherwise.

    A task owing injected crashes (``crash_budget``) runs as
    ``fn(task, crash=True)`` and is restarted, up to :data:`MAX_RESTARTS`
    times.  ``notify`` gets each restart notice and
    ``done_line(k, task, result)`` for the k-th completed task.  Returns
    results and per-task restart counts in *task* order.
    """
    say = notify if notify is not None else (lambda line: None)
    line = done_line if done_line is not None else (
        lambda k, task, result: f"[done] {task}")
    owed = dict(crash_budget or {})
    restarts: Dict[str, int] = {}
    results: List[Any] = [None] * len(tasks)

    def kwargs(task: str) -> Dict[str, bool]:
        return {"crash": True} if owed.get(task, 0) > 0 else {}

    def restart(task: str) -> bool:
        """Book a crash of ``task``; False once the cap is exceeded."""
        owed[task] = owed.get(task, 0) - 1
        n = restarts[task] = restarts.get(task, 0) + 1
        if n > MAX_RESTARTS:
            return False
        say(f"[restart] {task} worker crashed (injected); "
            f"restart {n}/{MAX_RESTARTS}")
        return True

    jobs = int(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        for i, task in enumerate(tasks):
            while True:
                try:
                    results[i] = fn(task, **kwargs(task))
                    break
                except WorkerCrashError:
                    if not restart(task):
                        raise
            say(line(i + 1, task, results[i]))
        return results, restarts

    workers = min(jobs, len(tasks))
    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futs = {pool.submit(fn, task, **kwargs(task)): i
                for i, task in enumerate(tasks)}
        done = 0
        while futs:
            fut = next(futures.as_completed(futs))
            i = futs.pop(fut)
            try:
                results[i] = fut.result()
            except WorkerCrashError:
                if not restart(tasks[i]):
                    raise
                futs[pool.submit(fn, tasks[i], **kwargs(tasks[i]))] = i
                continue
            done += 1
            say(line(done, tasks[i], results[i]))
    return results, restarts
