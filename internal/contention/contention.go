// Package contention is the lock-wait attribution profiler behind the
// live introspection plane: per-site accounting of how long lock
// acquirers waited, keyed by a site name plus an optional address
// range, so /debug/contention can answer "which ranges, which files,
// which lock" instead of only "how much" (the histogram's view).
//
// Like the flight recorder (internal/trace) it follows the arm/disarm
// discipline: a single atomic pointer gates every hook, so a machine
// with no introspection server attached pays one pointer load and a
// nil check — no clock reads, no table writes — on the paths that
// carry a hook. The hooks themselves sit only on already-contended
// slow paths (a range lock that had to queue, a mutex TryLock that
// failed), never on uncontended acquires.
//
// The table is a map from (site, range) to its accumulated waits under
// one mutex, a leaf: Note takes it after the wait it records and takes
// no other lock under it, so it may be called holding any lock (Lock's
// callers hold the mutex they just acquired). The table keeps at most
// maxSites rows; a wait at a new site beyond that is counted in Dropped
// rather than given a row. Top-N by cumulative wait is the product; a
// drop loses a sample, not the run.
package contention

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSites bounds the table's rows, and so the profiler's memory.
const maxSites = 1024

// key is one row of the table: a site and its range.
type key struct {
	site   string
	lo, hi uint64
}

type profile struct {
	mu      sync.Mutex
	sites   map[key]*SiteStats
	dropped uint64
}

// active is the armed profile; nil means disarmed. Every hook loads it
// exactly once.
var active atomic.Pointer[profile]

// Arm installs a fresh, empty profile; hooks start accounting
// immediately. Re-arming while armed resets the table.
func Arm() { active.Store(&profile{sites: make(map[key]*SiteStats)}) }

// Disarm removes the profile; hooks return to the one-load nil check.
func Disarm() { active.Store(nil) }

// Armed reports whether a profile is armed.
func Armed() bool { return active.Load() != nil }

// Note records one contended wait against (site, [lo, hi)). Sites
// without a meaningful range pass lo = hi = 0. Disarmed it is one
// atomic load. Safe from any goroutine, including under other locks:
// the profile's mutex is a leaf, and the first wait at a site allocates
// its row.
func Note(site string, lo, hi uint64, wait time.Duration) {
	p := active.Load()
	if p == nil {
		return
	}
	ns := wait.Nanoseconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	k := key{site, lo, hi}
	s := p.sites[k]
	if s == nil {
		if len(p.sites) >= maxSites {
			p.dropped++
			return
		}
		s = &SiteStats{Site: site, Lo: lo, Hi: hi}
		p.sites[k] = s
	}
	s.Waits++
	s.TotalWaitNs += ns
	s.MaxWaitNs = max(s.MaxWaitNs, ns)
}

// Lock acquires mu, attributing any contended wait to site. Disarmed
// it is one atomic load on top of the plain Lock; armed, an
// uncontended acquire is a TryLock and a contended one pays two clock
// reads — both off the fast path by definition.
func Lock(mu *sync.Mutex, site string) {
	if active.Load() == nil {
		mu.Lock()
		return
	}
	if mu.TryLock() {
		return
	}
	start := time.Now()
	mu.Lock()
	Note(site, 0, 0, time.Since(start))
}

// SiteStats is one site's accumulated contention.
type SiteStats struct {
	Site string `json:"site"`
	// Lo, Hi bound the contended range; both zero for plain mutexes.
	Lo uint64 `json:"lo,omitempty"`
	Hi uint64 `json:"hi,omitempty"`
	// Waits counts contended acquisitions attributed here.
	Waits uint64 `json:"waits"`
	// TotalWaitNs is the cumulative wait — the ranking key.
	TotalWaitNs int64 `json:"total_wait_ns"`
	// MaxWaitNs is the worst single wait.
	MaxWaitNs int64 `json:"max_wait_ns"`
}

// Snapshot returns every populated site sorted by cumulative wait,
// worst first. Nil when disarmed.
func Snapshot() []SiteStats {
	p := active.Load()
	if p == nil {
		return nil
	}
	var out []SiteStats
	p.mu.Lock()
	for _, s := range p.sites {
		out = append(out, *s)
	}
	p.mu.Unlock()
	slices.SortFunc(out, func(a, b SiteStats) int {
		return cmp.Or(cmp.Compare(b.TotalWaitNs, a.TotalWaitNs),
			strings.Compare(a.Site, b.Site), cmp.Compare(a.Lo, b.Lo))
	})
	return out
}

// Top returns the n most contended sites by cumulative wait.
func Top(n int) []SiteStats {
	all := Snapshot()
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Dropped returns the samples lost to the site cap since arming.
func Dropped() uint64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}
