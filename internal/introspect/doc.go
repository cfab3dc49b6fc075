// Package introspect is the live half of the observability story: an
// embeddable HTTP server exposing a vm.Host while it runs, plus the
// snapshot-delta engine cmd/torture's -vmstat line and cmd/vmtop share.
// cmd/torture -http addr serves one per design's machine while it runs;
// the lock-contention profiler (internal/contention) arms when a server
// starts and disarms when it stops. /metrics, /proc/meminfo, /proc/rcu
// and /snapshot.json each render one Snapshot (Read) their handler
// took. The endpoints:
//
//   - /metrics: Prometheus text exposition of the machine's counters and
//     gauges, latency summaries, per-tenant series and the top contended
//     sites;
//   - /proc/meminfo: the frame pool, reclaim watermarks and OOM kills,
//     then a limit/RSS/faults block per tenant;
//   - /proc/<tenant>/smaps: per-VMA extent, protection, RSS, the
//     private/COW and shared/file split, dirty pages;
//   - /proc/locks: each range manager's held guards and waiter queues;
//   - /proc/rcu: RCU domain counters, the grace period in flight, its
//     latency's p50/p99/max (the histogram vm_gp_latency_ns also
//     reports) and each shard's callback backlog;
//   - /debug/contention: top lock sites by cumulative contended wait
//     (?format=json for tooling);
//   - /snapshot.json: the snapshot and the contention list, which vmtop
//     scrapes; its rate columns and torture's -vmstat come from one
//     DeltaEngine, so the two views cannot drift.
//
// # Metric naming
//
// Enforced by the exposition tests, ParseExposition and cmd/promcheck
// (testdata/metrics.golden pins the output):
//
//   - every family is vm_-prefixed;
//   - every family is declared once (HELP, then TYPE) and its samples
//     follow as one group, unbroken by another family's lines; a family
//     with no sample is not declared;
//   - counters end in _total and never decrease while their series
//     exists: a closing member folds into its family's vm.Rollup, and a
//     retiring tenant's final rollup into the machine's, in the critical
//     section that drops it, so counts are monotonic across churn;
//   - gauges never end in _total;
//   - latency percentiles are summaries in nanoseconds: a _ns family
//     with quantile labels plus a _ns_count sample. Summary counts are
//     not typed as counters. A fault summary's quantiles come from the
//     timed sample and its _count is the exact fault counter;
//     vm_fault_latency_samples_total is the sample size;
//   - per-tenant series carry a tenant label and disappear when the
//     tenant departs; contention series carry site (and range) labels
//     and cover the top contended sites only, to bound cardinality.
//
// # Locks
//
// Every inspection path takes only read-side or already-existing locks:
// RCU read sections and lock-free PTE walks for smaps, the whole-space
// range lock (or the mmap_sem read side) for the region list, each
// manager's own mutex for the lock table (its ages are read under it,
// so none is negative), the contention profile's leaf mutex for the
// contended sites, and the machine's tenant mutex and each family's
// member mutex for the rollup. Nothing here introduces a lock level
// above the reclaim scan lock, so an operator scraping a wedged machine
// cannot deadlock against the paths being diagnosed. With no server
// attached the whole plane is disarmed: the only residue on hot paths
// is the contention profiler's one atomic load, and that sits on
// already-contended slow paths only (the range-lock queue wait, the
// page-cache mutex, the reclaim scan lock).
package introspect
