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
// The table is fixed-size and lossy: sites hash into a small
// open-addressed table and collisions past the probe limit are counted
// in Dropped rather than allocated. Top-N by cumulative wait is the
// product; an unlucky drop loses a sample, not the run.
package contention

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	tableSize  = 1024 // power of two
	tableMask  = tableSize - 1
	probeLimit = 16
)

// entry states: empty → claiming → ready. Site/lo/hi are written
// exactly once, before the ready store; readers check ready first.
const (
	slotEmpty = iota
	slotClaiming
	slotReady
)

type entry struct {
	state  atomic.Uint32
	site   string
	lo, hi uint64

	waits   atomic.Uint64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

type profile struct {
	entries [tableSize]entry
	dropped atomic.Uint64
}

// active is the armed profile; nil means disarmed. Every hook loads it
// exactly once.
var active atomic.Pointer[profile]

// Arm installs a fresh, empty profile; hooks start accounting
// immediately. Re-arming while armed resets the table.
func Arm() { active.Store(&profile{}) }

// Disarm removes the profile; hooks return to the one-load nil check.
func Disarm() { active.Store(nil) }

// Armed reports whether a profile is armed.
func Armed() bool { return active.Load() != nil }

// Note records one contended wait against (site, [lo, hi)). Sites
// without a meaningful range pass lo = hi = 0. Disarmed it is one
// atomic load. Safe from any goroutine, including under other locks:
// it takes none and allocates nothing.
func Note(site string, lo, hi uint64, wait time.Duration) {
	p := active.Load()
	if p == nil {
		return
	}
	p.note(site, lo, hi, wait.Nanoseconds())
}

func (p *profile) note(site string, lo, hi uint64, ns int64) {
	h := hash(site, lo, hi)
	for i := uint64(0); i < probeLimit; i++ {
		e := &p.entries[(h+i)&tableMask]
		switch e.state.Load() {
		case slotEmpty:
			if e.state.CompareAndSwap(slotEmpty, slotClaiming) {
				e.site, e.lo, e.hi = site, lo, hi
				e.state.Store(slotReady)
			} else {
				// Lost the claim race; re-check this slot.
				i--
				continue
			}
		case slotClaiming:
			// The owner is mid-publish, and may be publishing this very
			// key: moving on would claim a second row for it. It holds no
			// lock and is three stores from ready, so wait, then
			// re-check this slot.
			runtime.Gosched()
			i--
			continue
		}
		if e.site != site || e.lo != lo || e.hi != hi {
			continue
		}
		e.waits.Add(1)
		e.totalNs.Add(ns)
		for {
			max := e.maxNs.Load()
			if ns <= max || e.maxNs.CompareAndSwap(max, ns) {
				break
			}
		}
		return
	}
	p.dropped.Add(1)
}

// hash is FNV-1a over the site string and range bounds.
func hash(site string, lo, hi uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * prime
	}
	for _, w := range [2]uint64{lo, hi} {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (w >> s & 0xff)) * prime
		}
	}
	return h
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
	for i := range p.entries {
		e := &p.entries[i]
		if e.state.Load() != slotReady {
			continue
		}
		out = append(out, SiteStats{
			Site:        e.site,
			Lo:          e.lo,
			Hi:          e.hi,
			Waits:       e.waits.Load(),
			TotalWaitNs: e.totalNs.Load(),
			MaxWaitNs:   e.maxNs.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalWaitNs != out[j].TotalWaitNs {
			return out[i].TotalWaitNs > out[j].TotalWaitNs
		}
		return out[i].Site < out[j].Site
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

// Dropped returns the samples lost to table collisions since arming.
func Dropped() uint64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	return p.dropped.Load()
}
