// Package trace is a lock-free per-CPU ring-buffer event tracer — the
// flight recorder for the whole machine. Each (tenant, member)
// magazine partition gets its own ring of fixed-size binary records;
// emission claims a slot with one fetch-add and commits it with a
// per-slot sequence stamp (a seqlock in miniature), so the hot path is
// a handful of uncontended atomic stores, takes no locks, and never
// blocks. Overwrite-oldest semantics make every ring a bounded window
// onto the most recent past: exactly what you want when a p999 gate or
// a torture auditor trips and the question is "what just happened".
// Unpinned emitters (range manager, RCU grace periods, reclaim, page cache,
// tenant accounting) share a trailing auxiliary ring (AuxCPU). The event kinds
// and their arguments are the Type constants, append-only because their
// numbers are the dump format.
//
// Arming follows the same compiled-in discipline as internal/fail:
// call sites are permanent, and a disarmed tracer costs one atomic
// pointer load and a nil check per Emit. Readers (Snapshot, the dump
// writer) run concurrently with writers and validate each record's
// sequence stamp before and after copying the payload, discarding torn
// or overwritten slots instead of locking writers out. bench/ reports
// the disarmed site's cost as trace.emit_disarmed_ns and the armed
// tracer's as bench.trace_overhead_pct.
//
// # Capture and inspection
//
// cmd/torture -trace arms the tracer and -trace-dump <dir> writes the
// rings on any violation or p999-gate failure (-trace-dump-always on
// every run); the auditor emits EvViolation the moment an invariant
// breaks, so the dump shows what every CPU was doing then. cmd/vmtrace
// decodes a dump: it pairs enter/exit events into spans (faults, map
// ops, grace periods, reclaim scans; orphans from overwritten slots are
// counted, not mispaired), annotates the slowest spans with the range
// guards held and grace periods in flight while each ran, filters with
// -print -type, and writes Chrome trace_event JSON with -chrome for
// chrome://tracing or Perfetto.
package trace
