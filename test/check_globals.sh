#!/bin/sh
# Guard against hidden toplevel mutable state in the libraries whose code
# runs on pool domains (the directories given as arguments).
#
# The parallel engine shares these libraries across domains: any
# module-level ref/Hashtbl/Buffer/Bytes/Array binding is shared mutable
# state that would race under Pool.map and silently break the
# byte-identical-output guarantee.  Per-compile state belongs in the
# per-task contexts (Driver, Regalloc, Cse, Labels, Code_buffer);
# process-wide counters must be Atomic.t (which this check permits).
#
# The check is textual on purpose: it runs with no build products and
# flags the binding the moment it is written, not when a determinism
# test happens to catch the race.
#
# Sanctioned domain-safe toplevel state (NOT matched by the forbidden
# pattern, listed here so the whitelist is explicit):
#   - Atomic.make          lock-free counters/flags (the tables_cache
#                          temp-file counter, Metrics/Trace enabled flags)
#   - Mutex.create         guards for registry mutation (Metrics/Trace
#                          per-domain buffer registries)
#   - Domain.DLS.new_key   per-domain buffers; never shared between
#                          domains, merged only at quiescence
#   - Metrics.sum / Metrics.high_water   counter registration: the
#                          returned handle is an immutable index into
#                          the DLS-buffered registry (covers the codegen
#                          counters: driver.*, including
#                          driver.prepared_tokens, loader.*, emit.*)
#   - immutable sentinel records/constructors (Driver.bottom,
#                          Code_buffer.dummy_item): never mutated, used
#                          only to pre-fill growable arrays
#   - Targets.all          the per-target registry (lib/machine) is a
#                          plain immutable association list consulted
#                          from pool domains; adding a backend adds a
#                          row, never a mutation.  The opcode tables in
#                          Insn (Hashtbl.t lookups) are populated once
#                          at module initialization, before any domain
#                          is spawned, and are read-only afterwards.

set -eu

[ "$#" -gt 0 ] || set -- lib/core

status=0
pattern='^let [a-zA-Z_0-9]+ *(: *[^=]*)?= *(ref |Hashtbl\.create|Buffer\.create|Bytes\.create|Bytes\.make|Array\.make|Array\.create|Queue\.create|Stack\.create)'

for dir in "$@"; do
  for f in "$dir"/*.ml; do
    hits=$(grep -nE "$pattern" "$f" || true)
    if [ -n "$hits" ]; then
      echo "toplevel mutable state in $f (use a per-compile context or Atomic.t):" >&2
      echo "$hits" >&2
      status=1
    fi
  done
  if [ "$status" -eq 0 ]; then
    echo "check_globals: no toplevel mutable bindings in $dir"
  fi
done
exit "$status"
