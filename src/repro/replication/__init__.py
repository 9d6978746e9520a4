"""Durability and replication for the query server.

Two pieces turn the in-memory engine into a crash-safe, replicated
service (docs/ROBUSTNESS.md, "Durability & failover"):

* :class:`repro.replication.wal.WriteAheadLog` — every acknowledged
  mutation is journaled (LSN + CRC32 framing, group-commit batching,
  with its idempotency token: the server's dedup window survives
  crashes and follows the log to the standby) before the reply leaves
  the server, with periodic checkpoint-compaction into
  ``save_database`` snapshots and startup replay recovery through
  ``verify_database``.
* :class:`repro.replication.standby.StandbyServer` — a warm standby
  that bootstraps from a wire snapshot, tails the primary's journal
  over the line-delimited JSON protocol, serves read-only queries at a
  reported replication lag, and can be promoted on primary death.
"""

from repro.replication.wal import (  # noqa: F401
    WalRecord,
    WalRecovery,
    WriteAheadLog,
    mutation_kind,
)

#: standby names are re-exported lazily: standby.py needs QueryServer,
#: and the query server itself imports this package for the journal —
#: resolving on first attribute access breaks the cycle
_STANDBY_EXPORTS = ("StandbyServer", "parse_address", "wait_for_catchup")


def __getattr__(name: str):
    if name in _STANDBY_EXPORTS:
        from repro.replication import standby

        return getattr(standby, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
