"""Encrypted-at-rest container for client state.

Client key material never touches disk in the clear: the pickled state
bundle is sealed with AES-GCM under a key derived from a passphrase via
scrypt with a per-file random salt.  The container is versioned so the
key-derivation parameters can change later without breaking old files.

Layout: magic "DDSE" | version u8 | salt 16 | nonce 12 | AES-GCM box.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import GCM_TAG_LEN, NONCE_LEN

_MAGIC = b"DDSE"
# version 2: saved Bloom filters probe independent SHAKE128 positions,
# so a version-1 file's filters (double hashing) would probe wrong bits
_VERSION = 2
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


def save(path: str, passphrase: str, bundle) -> None:
    """Seal a picklable bundle to disk, replacing any previous file."""
    salt = os.urandom(_SALT_LEN)
    nonce = os.urandom(NONCE_LEN)
    key = _derive(passphrase, salt)
    box = AESGCM(key).encrypt(nonce, pickle.dumps(bundle), _MAGIC)
    blob = _MAGIC + bytes([_VERSION]) + salt + nonce + box
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load(path: str, passphrase: str):
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
    key = _derive(passphrase, salt)
    try:
        data = AESGCM(key).decrypt(nonce, blob[head:], _MAGIC)
    except InvalidTag:
        raise StateFileError(
            "cannot open state file: wrong passphrase or corrupted data")
    return pickle.loads(data)
