"""The memory a run may still allocate, as the platform reports it.

The mesh generator checks its arrays, the plate solver its band arrays,
the fuzzy sweep the solves and envelope it keeps, and the ``fuzzy-sweep``
and ``rod`` commands the tables they write, against
:func:`available_memory` before allocating them, so
that a run too large for the machine fails fast with ``MemoryError``
instead of being killed part way through.
"""

from __future__ import annotations


def check_memory(need: int, what: str) -> None:
    """Raise ``MemoryError`` when ``need`` bytes for ``what`` exceed the
    available memory."""
    available = available_memory()
    if available is not None and need > available:
        raise MemoryError(
            f"{what} needs {need} bytes ({need / 2**30:.3g} GiB), {available} available"
        )


def available_memory() -> int | None:
    """The smaller of ``MemAvailable`` and the cgroup headroom in bytes, or
    ``None`` where none is reported.

    The cgroup v2 headroom is ``memory.max`` minus ``memory.current``
    under ``/sys/fs/cgroup``, and likewise in the cgroup that the ``0::``
    line of ``/proc/self/cgroup`` names and in each of its ancestors, so
    that a limit on the process's own cgroup counts too; a ``memory.max``
    of ``max`` sets no limit.  The cgroup v1 headroom is
    ``memory.limit_in_bytes`` minus ``memory.usage_in_bytes`` of the
    memory cgroup that ``/proc/self/cgroup`` names, under
    ``/sys/fs/cgroup/memory``; an unlimited v1 cgroup reports about
    ``2**63`` and so sets no limit.
    """
    limits = []
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemAvailable:"):
            limits.append(_headroom(line.split()[1], "0", 1024))
    cgroups = [("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current")]
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        fields = line.split(":", 2)  # hierarchy id, controllers, path
        if len(fields) != 3:
            continue
        hierarchy, controllers, path = fields
        path = path.rstrip("/")
        if (hierarchy, controllers) == ("0", ""):  # v2
            while path:  # the cgroup and its ancestors; the root is listed above
                base = "/sys/fs/cgroup" + path
                cgroups.append((f"{base}/memory.max", f"{base}/memory.current"))
                path = path.rsplit("/", 1)[0]
        elif "memory" in controllers.split(","):
            base = "/sys/fs/cgroup/memory" + path
            cgroups.append((f"{base}/memory.limit_in_bytes", f"{base}/memory.usage_in_bytes"))
    for ceiling_path, used_path in cgroups:
        limits.append(_headroom(_read(ceiling_path), _read(used_path)))
    return min((limit for limit in limits if limit is not None), default=None)


def _headroom(ceiling: str | None, used: str | None, unit: int = 1) -> int | None:
    """``unit * (ceiling - used)``, at least 0, from two integers as text, or
    ``None`` where either is missing or no integer (such as a ceiling of
    ``max``), so that one unreadable file drops only its own limit."""
    try:
        return max(int(ceiling) - int(used), 0) * unit
    except (TypeError, ValueError):
        return None


def _read(path: str) -> str | None:
    """The text of ``path``, or ``None`` where it cannot be read."""
    try:
        with open(path, encoding="ascii") as f:
            return f.read()
    except (OSError, ValueError):
        return None
