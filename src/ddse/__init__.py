"""Distinct dynamic searchable encryption (d-DSE) toolkit.

A d-DSE scheme answers "which distinct values are paired with this
keyword" over an encrypted, server-held table while hiding per-keyword
volumes and keeping updates forward-private.  The construction here
combines three pieces:

* a GGM-tree PRF with puncturing and range constraining (``ddse.ggm``),
* a Bloom filter used both as the client's distinct-state and as the
  revocation set of a symmetric revocable encryption layer
  (``ddse.bloom``, ``ddse.sre``),
* a forward-private append-only DSE for ciphertext placement
  (``ddse.fpdse``).

``ddse.client`` glues them into the update/search protocols,
``ddse.query`` maps an SQL-ish surface onto them (four operations:
search, join, insert, delete; five statement shapes, since a search is
SELECT or SELECT DISTINCT), and
``ddse.server``/``ddse.store`` host the encrypted database behind a
length-prefixed wire protocol.  ``ddse.audit`` replays workloads and
checks the leakage claims (volume hiding, forward privacy) against
recorded transcripts.
"""

__version__ = "0.1.0"
