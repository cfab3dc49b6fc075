// Package stats holds what the hot paths count in and what the figures
// are drawn with.
//
// # Counters and histograms
//
// PerCPU is one value per CPU on cache lines of its own, written by its
// CPU and folded on read; Counter is a PerCPU of atomic cells, summed on
// read. They let a path that knows its CPU (a vm.CPU, an allocator
// magazine, a mapping operation's slot) count without writing a line
// another CPU writes, which is what §5.3's fault path needs.
//
// LatencyHist is a lock-free log-bucketed histogram, 16 sub-buckets per
// octave (≤ ~6% relative error) in bounded memory, recorded always,
// traced or not: fault latency (one per fault CPU, fed by a 1-in-16
// sample, or every fault while the tracer is armed), mapping-operation
// latency per address space, contended range-lock waits per manager,
// and the machine's grace periods and reclaim scans. Its Stats are
// p50/p99/p999/max; introspect.Read and bench/'s traced runs report
// them.
//
// Every count the VM keeps is a field of vm.Counts, in the space's
// PerCPU rows (one per fault CPU and per operation slot). Stats is one
// space's fold; a closing member folds into its family's vm.Rollup, a
// retiring tenant's final Rollup into the machine's departed totals, and
// Counts.Add is the only merge on the way. introspect.Snapshot embeds the
// tenants' and the machine's Counts, and /metrics, /proc, vmtop and the
// torture report all read those fields, so every count covers every
// member a tenant had and every tenant the machine had
// (TestTHPCountersSurviveRetirement, TestTenantRSSCountsEveryMemberOnce).
// A histogram's own count is its number of samples; the fault count is
// the exact counter.
//
// # Figures
//
// Series (with its CSV and ASCII line chart), Table, Mean and Percentile
// render the paper's figures in a terminal for internal/sim and
// cmd/asplos12.
package stats
