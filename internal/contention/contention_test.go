package contention

import (
	"sync"
	"testing"
	"time"
)

func TestDisarmedNoteIsNoOp(t *testing.T) {
	Disarm()
	Note("x", 0, 0, time.Millisecond)
	if got := Snapshot(); got != nil {
		t.Fatalf("disarmed Snapshot = %v, want nil", got)
	}
	if Armed() {
		t.Fatal("Armed() = true after Disarm")
	}
}

func TestNoteAccumulatesPerSite(t *testing.T) {
	Arm()
	defer Disarm()
	Note("range", 0x1000, 0x2000, 3*time.Millisecond)
	Note("range", 0x1000, 0x2000, time.Millisecond)
	Note("range", 0x3000, 0x4000, 2*time.Millisecond)
	Note("scan", 0, 0, 5*time.Millisecond)

	got := Snapshot()
	if len(got) != 3 {
		t.Fatalf("got %d sites, want 3: %+v", len(got), got)
	}
	// Sorted by cumulative wait: scan (5ms), range[1000,2000) (4ms),
	// range[3000,4000) (2ms).
	if got[0].Site != "scan" || got[0].TotalWaitNs != 5e6 || got[0].Waits != 1 {
		t.Fatalf("top site = %+v, want scan 5ms", got[0])
	}
	if got[1].Lo != 0x1000 || got[1].TotalWaitNs != 4e6 || got[1].Waits != 2 {
		t.Fatalf("second site = %+v, want range[0x1000,...) 4ms x2", got[1])
	}
	if got[1].MaxWaitNs != 3e6 {
		t.Fatalf("max wait = %d, want 3ms", got[1].MaxWaitNs)
	}
	if top := Top(1); len(top) != 1 || top[0].Site != "scan" {
		t.Fatalf("Top(1) = %+v", top)
	}
}

func TestRearmResets(t *testing.T) {
	Arm()
	defer Disarm()
	Note("a", 0, 0, time.Millisecond)
	Arm()
	if got := Snapshot(); len(got) != 0 {
		t.Fatalf("Snapshot after re-arm = %+v, want empty", got)
	}
}

func TestLockAttributesContendedWait(t *testing.T) {
	Arm()
	defer Disarm()
	var mu sync.Mutex
	mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Lock(&mu, "test.mu")
		mu.Unlock()
	}()
	time.Sleep(5 * time.Millisecond)
	mu.Unlock()
	<-done

	for _, s := range Snapshot() {
		if s.Site == "test.mu" {
			if s.Waits == 0 || s.TotalWaitNs <= 0 {
				t.Fatalf("contended Lock recorded %+v", s)
			}
			return
		}
	}
	t.Fatal("contended Lock left no test.mu site")
}

func TestLockUncontendedRecordsNothing(t *testing.T) {
	Arm()
	defer Disarm()
	var mu sync.Mutex
	Lock(&mu, "quiet.mu")
	mu.Unlock()
	for _, s := range Snapshot() {
		if s.Site == "quiet.mu" {
			t.Fatalf("uncontended Lock recorded %+v", s)
		}
	}
}

func TestConcurrentNotes(t *testing.T) {
	Arm()
	defer Disarm()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Note("shared", 0x10, 0x20, time.Microsecond)
				Note("own", uint64(w)<<12, uint64(w+1)<<12, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	var shared uint64
	for _, s := range Snapshot() {
		if s.Site == "shared" {
			shared = s.Waits
		}
	}
	if shared != workers*per {
		t.Fatalf("shared waits = %d, want %d", shared, workers*per)
	}
}

// TestSnapshotKeysUnique: noters racing to claim the same fresh keys at
// once must share one row per (site, lo, hi). A noter that found a slot
// mid-claim used to move on and claim a second row for the same key, so
// Snapshot reported it twice, each row holding part of its waits.
func TestSnapshotKeysUnique(t *testing.T) {
	defer Disarm()
	const rounds, workers, keys = 200, 4, 8
	type key struct {
		site   string
		lo, hi uint64
	}
	for r := 0; r < rounds; r++ {
		Arm()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := uint64(0); k < keys; k++ {
					Note("race", k<<12, (k+1)<<12, time.Microsecond)
				}
			}()
		}
		close(start)
		wg.Wait()
		seen := make(map[key]uint64)
		for _, s := range Snapshot() {
			k := key{s.Site, s.Lo, s.Hi}
			if _, dup := seen[k]; dup {
				t.Fatalf("round %d: Snapshot has two rows for %+v", r, k)
			}
			seen[k] = s.Waits
		}
		for k, waits := range seen {
			if waits != workers {
				t.Fatalf("round %d: %+v has %d waits, want %d", r, k, waits, workers)
			}
		}
		if len(seen) != keys {
			t.Fatalf("round %d: %d rows, want %d", r, len(seen), keys)
		}
	}
}

// TestSiteCap: the table keeps maxSites rows; a wait at a new site
// beyond them is counted in Dropped, while the sites it has keep
// accumulating.
func TestSiteCap(t *testing.T) {
	Arm()
	defer Disarm()
	for i := uint64(0); i <= maxSites; i++ {
		Note("cap", i<<12, (i+1)<<12, time.Microsecond)
	}
	Note("cap", 0, 1<<12, time.Microsecond)
	if got := Snapshot(); len(got) != maxSites {
		t.Fatalf("%d rows, want %d", len(got), maxSites)
	}
	if d := Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
	for _, s := range Snapshot() {
		if s.Lo == 0 && s.Waits != 2 {
			t.Fatalf("first site has %d waits after the cap, want 2", s.Waits)
		}
	}
}
