"""SHA-256 from CPython's built-in module, which loads no OpenSSL.

Where Python is built with OpenSSL, `hashlib.sha256` is OpenSSL's, and
importing hashlib maps libcrypto into the process: a few MB and a few ms
for a command that hashes short strings.  The digests are the same.
`random` loads its SHA-512 the same way.
"""

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

__all__ = ["sha256"]
