"""pyproject.toml declares Python 3.10 as the floor. The modules that need
no third-party package (der, pem, names, oids, slhdsa) are run under each
interpreter from 3.10 to 3.13 found under ~/.pyenv or on PATH, other than
the one running this suite, in a child process in isolated mode and
without site-packages, so no installed package is seen. The child writes
no bytecode into the source tree: isolated mode ignores
PYTHONDONTWRITEBYTECODE, so it is told so by -B. An absent interpreter is
skipped."""

import glob
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import pqcli

from test_slhdsa import _REGRESSION_SIG_DIGESTS

_SRC = str(pathlib.Path(pqcli.__file__).resolve().parent.parent)

_SCRIPT = r'''
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from pqcli import der, names, oids, pem, slhdsa

value = der.seq(der.integer(2 ** 70), der.oid_value(oids.AT_COMMON_NAME), der.utf8("é"))
assert der.decode(der.encode(value)) == value
name = names.parse_name("CN=a\\,O=evil,C=DE")
assert names.DistinguishedName.from_der_value(der.decode(der.encode(name.to_der_value()))) == name

canonical = pem.encode_pem(pem.LABEL_CERTIFICATE, der.encode(value))
other = canonical.replace("\n", "\r\n")
assert pem._decode_canonical(canonical) and pem._decode_canonical(other) is None
assert pem.decode_pem(canonical) == pem.decode_pem(other) == [("CERTIFICATE", der.encode(value))]

ps = slhdsa.PARAMETER_SETS["128f"]
sk, _ = slhdsa.keygen(ps, hashlib.shake_256(b"128f").digest(ps.seed_size))
signature = slhdsa.sign(ps, b"parameter set shakedown", sk, deterministic=True)
print(hashlib.sha256(signature).hexdigest())
'''

def _interpreter(minor):
    """The newest pyenv build of 3.minor, else python3.minor on PATH: a
    pyenv shim on PATH names every version but runs only the selected one."""
    pyenv = sorted(glob.glob(os.path.expanduser(f"~/.pyenv/versions/3.{minor}.*/bin/python3")))
    return pyenv[-1] if pyenv else shutil.which(f"python3.{minor}")


def _bytecode(minor):
    """Each cpython-3minor bytecode file under the source tree, with its mtime."""
    return {path: path.stat().st_mtime_ns
            for path in pathlib.Path(_SRC).rglob(f"*.cpython-3{minor}.pyc")}


@pytest.mark.parametrize("minor", [m for m in (10, 11, 12, 13) if m != sys.version_info.minor])
def test_the_stdlib_modules_run_under_each_python_from_the_floor(minor):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"no Python 3.{minor} found")
    before = _bytecode(minor)
    result = subprocess.run([python, "-I", "-S", "-B", "-c", _SCRIPT, _SRC],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == _REGRESSION_SIG_DIGESTS["128f"] + "\n"
    assert _bytecode(minor) == before
