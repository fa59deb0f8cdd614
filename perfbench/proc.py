"""Run one child process to completion and never leave it behind.

A child that outlives its timeout, or whose parent is interrupted, is
killed and reaped before the exception propagates. Workers are started in
their own process group so that killing a worker also kills any `cwkit`
process it started.
"""

import os
import signal
import subprocess


def run(cmd, *, timeout, env=None, stdout=subprocess.PIPE, stderr=None, group=False):
    """Return (exit code, stdout bytes, stderr bytes) of `cmd`."""
    child = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=stderr,
                             start_new_session=group)
    try:
        out, err = child.communicate(timeout=timeout)
    finally:
        if child.poll() is None:
            if group:
                os.killpg(child.pid, signal.SIGKILL)
            else:
                child.kill()
            child.communicate()
    return child.returncode, out, err
