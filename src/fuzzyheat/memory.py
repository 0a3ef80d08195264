"""The memory a run may still allocate, as the platform reports it.

The plate solver checks its band arrays, and the ``rod`` command its
kept states, against :func:`available_memory` before allocating them, so
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
    under ``/sys/fs/cgroup``; a ``memory.max`` of ``max`` sets no limit.
    The cgroup v1 headroom is ``memory.limit_in_bytes`` minus
    ``memory.usage_in_bytes`` of the memory cgroup that
    ``/proc/self/cgroup`` names, under ``/sys/fs/cgroup/memory``; an
    unlimited v1 cgroup reports about ``2**63`` and so sets no limit.
    """
    limits = []
    try:
        for line in (_read("/proc/meminfo") or "").splitlines():
            if line.startswith("MemAvailable:"):
                limits.append(int(line.split()[1]) * 1024)
        cgroups = [("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current")]
        for line in (_read("/proc/self/cgroup") or "").splitlines():
            fields = line.split(":", 2)  # hierarchy id, controllers, path
            if len(fields) == 3 and "memory" in fields[1].split(","):
                base = "/sys/fs/cgroup/memory" + fields[2].rstrip("/")
                cgroups.append((f"{base}/memory.limit_in_bytes", f"{base}/memory.usage_in_bytes"))
        for ceiling_path, used_path in cgroups:
            ceiling, used = _read(ceiling_path), _read(used_path)
            if ceiling and used and ceiling.strip() != "max":
                limits.append(max(int(ceiling) - int(used), 0))
    except ValueError:
        pass
    return min(limits, default=None)


def _read(path: str) -> str | None:
    """The text of ``path``, or ``None`` where it cannot be read."""
    try:
        with open(path, encoding="ascii") as f:
            return f.read()
    except (OSError, ValueError):
        return None
