"""File plumbing shared by the command line and the archive format.

All JSON leaving this package is stable-key-ordered, and all writes land
atomically (write to a sibling temp file, then rename) so a crashed run
never leaves a half-written artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile

from .errors import ConfigError


def sha256_text(text: str) -> str:
    # Imported here: loading OpenSSL's hashes takes milliseconds, and
    # `validate` and `cases` never hash.
    import hashlib
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file mode 0600; give the artifact the mode
        # open() would, 0666 less the umask.
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _umask() -> int:
    # The umask can only be read by setting it: set the strictest one for
    # that instant, and put it straight back.
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text (byte "
                          f"{exc.start}: {exc.reason})") from exc
