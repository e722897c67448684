"""The package's sole sanctioned accessor for the process environment.

Ambient ``os.environ`` access is a determinism and fork-safety hazard: a
read makes behaviour depend on invisible state, and an unscoped write from
a library call leaks into every later computation (and into forked
children) long after the caller returned.  This module is the single
choke point — the ``ENV001`` source rule (``tests/source_rules.py``) flags
direct ``os.environ`` use everywhere else in the package — with three
deliberate access shapes:

* :func:`read` / :func:`flag` — point reads, for configuration defaults
  resolved at use time (cache directories, feature flags);
* :func:`scoped_env` — set-and-restore for entry points that need to pass
  configuration to spawned/forked workers through inherited environments
  (the CLI's sweep commands), guaranteed not to clobber the caller's
  environment on exit;
* :func:`export` — an explicit process-lifetime write, for worker
  processes configuring *themselves* once after fork (the serve pool),
  where restore would be meaningless.

There is intentionally no general ``write``: a caller either wants the
scoped form or the named export form, and the distinction is what makes
environment mutations auditable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

__all__ = ["read", "flag", "export", "scoped_env"]


def read(name: str, default: Optional[str] = None) -> Optional[str]:
    """The environment variable ``name``, or ``default`` when unset."""
    return os.environ.get(name, default)


def flag(name: str) -> bool:
    """True when ``name`` is set to the literal string ``"1"``."""
    return os.environ.get(name, "") == "1"


def export(name: str, value: str) -> None:
    """Set ``name`` for the rest of this process's lifetime.

    For processes configuring themselves (a forked worker applying its
    :class:`~repro.serve.pool.WorkerSettings`); library code running on
    behalf of a caller should use :func:`scoped_env` instead.
    """
    os.environ[name] = value


@contextmanager
def scoped_env(updates: Mapping[str, Optional[str]]) -> Iterator[None]:
    """Apply environment ``updates`` for the duration of the ``with`` block.

    A value of ``None`` unsets the variable.  On exit — normal or via an
    exception — every touched variable is restored to its previous state,
    including "previously unset", so nested scopes and caller expectations
    compose.  Children spawned or forked *inside* the block inherit the
    updated environment, which is how the CLI hands cache configuration to
    sweep workers regardless of multiprocessing start method.
    """
    previous: Dict[str, Optional[str]] = {
        name: os.environ.get(name) for name in updates
    }
    try:
        for name, value in updates.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, old in previous.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old
