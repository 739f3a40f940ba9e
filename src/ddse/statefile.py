"""Encrypted-at-rest container for client state.

Client key material never touches disk in the clear: the pickled state
bundle is sealed with AES-GCM under a key derived from a passphrase via
scrypt with a per-file random salt.  The container is versioned so the
key-derivation parameters can change later without breaking old files.
A save that follows a load of the same file may reuse that file's salt
and derived key (``load_with_key``), drawing only a fresh nonce, so a
load-then-save pays for one scrypt derivation instead of two.

Layout: magic "DDSE" | version u8 | salt 16 | nonce 12 | AES-GCM box.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import GCM_TAG_LEN, NONCE_LEN
from .store import durable_replace

_MAGIC = b"DDSE"
# version 2: saved Bloom filters probe independent SHAKE128 positions,
# so a version-1 file's filters (double hashing) would probe wrong bits;
# version 3: one client record per keyword replaces version 2's
# per-keyword maps and placement chains
_VERSION = 3
_SALT_LEN = 16

# scrypt cost: 16 MiB, interactive-grade
_SCRYPT_N = 2 ** 14
_SCRYPT_R = 8
_SCRYPT_P = 1


class StateFileError(RuntimeError):
    pass


def _derive(passphrase: str, salt: bytes) -> bytes:
    if not passphrase:
        raise StateFileError("empty passphrase refused")
    return hashlib.scrypt(passphrase.encode(), salt=salt,
                          n=_SCRYPT_N, r=_SCRYPT_R, p=_SCRYPT_P,
                          maxmem=64 * 1024 * 1024, dklen=32)


def save(path: str, passphrase: str, bundle,
         key: tuple[bytes, bytes] | None = None) -> None:
    """Seal a picklable bundle to disk, replacing any previous file.

    ``key`` is the ``(salt, derived key)`` that ``load_with_key`` read
    from this file; without it a fresh salt is drawn and the key derived
    from ``passphrase``.  Either way the nonce is fresh.
    """
    if key is None:
        salt = os.urandom(_SALT_LEN)
        key = (salt, _derive(passphrase, salt))
    salt, derived = key
    nonce = os.urandom(NONCE_LEN)
    box = AESGCM(derived).encrypt(nonce, pickle.dumps(bundle), _MAGIC)
    blob = _MAGIC + bytes([_VERSION]) + salt + nonce + box
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    durable_replace(tmp, path)


def load(path: str, passphrase: str):
    return load_with_key(path, passphrase)[0]


def load_with_key(path: str, passphrase: str):
    """The bundle, and the ``(salt, derived key)`` that opened it for a
    later ``save`` of the same file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = len(_MAGIC) + 1 + _SALT_LEN + NONCE_LEN
    if len(blob) < head + GCM_TAG_LEN or not blob.startswith(_MAGIC):
        raise StateFileError(f"not a state file: {path}")
    version = blob[len(_MAGIC)]
    if version != _VERSION:
        raise StateFileError(
            f"{path} is a version {version} state file; this ddse reads "
            f"version {_VERSION} only, so set up a fresh store")
    salt = blob[5:5 + _SALT_LEN]
    nonce = blob[5 + _SALT_LEN:head]
    derived = _derive(passphrase, salt)
    try:
        data = AESGCM(derived).decrypt(nonce, blob[head:], _MAGIC)
    except InvalidTag:
        raise StateFileError(
            "cannot open state file: wrong passphrase or corrupted data")
    return pickle.loads(data), (salt, derived)
