"""The --out writer: where the path leads, and how it is written there.

:func:`trapcav.cli.run` imports this module only for a command line that
gives --out, so a run that writes to stdout compiles none of it.  A regular
file, or a new path, is replaced by a temporary file renamed onto it, so a
failed write leaves it as it was; a FIFO, a device or a terminal is written
in place, and a descriptor (/dev/stdout, /dev/fd/N) through that descriptor.
"""

import errno
import os
import stat


def _out_target(out: str) -> str | int:
    """Where --out writes: a descriptor for the caller to close, or a path.

    out's symlinks are followed one hop at a time, with the directories of
    each hop resolved, so a regular file is replaced at the end of its
    links and the links stay.  A hop into a descriptor table stops the
    walk: /proc/<pid>/fd/N links to the file that descriptor N has open,
    and replacing or truncating that file, a log that a shell appends to,
    say, would lose what it holds.  In this process's own table
    (/dev/stdout, /dev/fd/N) the walk gives a duplicate of N, which writes
    at N's offset and under its O_APPEND; in another's it opens the path
    for appending.
    """
    path = out
    for _ in range(40):  # Linux's limit on the links of one lookup
        directory = os.path.realpath(os.path.dirname(path))
        name = os.path.basename(path)
        table = directory == "/dev/fd" or directory.startswith("/proc/") and directory.endswith("/fd")
        if table and name.isdigit():
            if directory == "/dev/fd" or directory.split("/")[2] == str(os.getpid()):
                return os.dup(int(name))
            return os.open(os.path.join(directory, name), os.O_WRONLY | os.O_APPEND)
        path = os.path.join(directory, name)
        try:
            link = os.readlink(path)
        except OSError:  # not a link, or not there
            return path
        path = os.path.join(directory, link)
    raise OSError(errno.ELOOP, os.strerror(errno.ELOOP))


def write_out(payload: bytes, out: str) -> None:
    """Write ``payload`` to the --out path ``out``, as the module docstring says."""
    target = _out_target(out)
    if isinstance(target, int):
        with open(target, "wb") as f:
            f.write(payload)
        return
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # a FIFO, a device or a terminal is written in place, where a
        # rename would put a regular file in its stead
        with open(target, "wb") as f:
            f.write(payload)
        return
    # only a regular --out needs tempfile; the other runs skip its import
    import tempfile

    # the mode that open(out, "w") would give: a replaced file keeps its
    # own, a new one gets 0666 less the umask (mkstemp alone makes 0600)
    if mode is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".trapcav-tmp-")
    try:
        # a buffered file writes every byte or raises, where one os.write
        # may write fewer; its close closes fd
        with open(fd, "wb") as f:
            os.chmod(tmp, mode & 0o777)
            f.write(payload)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
