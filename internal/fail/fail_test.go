package fail

import (
	"sync"
	"testing"
	"time"
)

func reset(t *testing.T) {
	t.Helper()
	t.Cleanup(DisableAll)
}

func TestDisarmedNeverFires(t *testing.T) {
	reset(t)
	p := NewPoint("test.disarmed")
	for i := 0; i < 1000; i++ {
		if p.Fire() {
			t.Fatal("disarmed point fired")
		}
	}
	if p.Hits() != 0 {
		t.Fatalf("disarmed point counted %d hits, want 0", p.Hits())
	}
}

func TestOneInRateAndDeterminism(t *testing.T) {
	reset(t)
	p := NewPoint("test.oneIn")
	const n = 100000
	run := func(seed uint64) []bool {
		p.arm(seed, Config{OneIn: 10})
		out := make([]bool, n)
		for i := range out {
			out[i] = p.Fire()
		}
		return out
	}
	a := run(42)
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	// ~1/10 of n, with generous slack for the hash.
	if fires < n/20 || fires > n/5 {
		t.Fatalf("OneIn=10 fired %d/%d times", fires, n)
	}
	// Same seed: identical verdict at every hit index.
	b := run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at hit %d", i)
		}
	}
	// Different seed: some verdict differs.
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
}

func TestAfterAndTimes(t *testing.T) {
	reset(t)
	p := NewPoint("test.afterTimes")
	p.arm(1, Config{After: 5, Times: 3})
	var fires []int
	for i := 1; i <= 20; i++ {
		if p.Fire() {
			fires = append(fires, i)
		}
	}
	// OneIn 0 fires on every eligible hit: exactly hits 6, 7, 8.
	if len(fires) != 3 || fires[0] != 6 || fires[2] != 8 {
		t.Fatalf("fires at hits %v, want [6 7 8]", fires)
	}
	if p.Fires() != 3 {
		t.Fatalf("Fires = %d, want 3", p.Fires())
	}
}

func TestFireDelay(t *testing.T) {
	reset(t)
	p := NewPoint("test.delay")
	if d := p.FireDelay(); d != 0 {
		t.Fatalf("disarmed FireDelay = %v", d)
	}
	p.arm(1, Config{Delay: time.Millisecond})
	if d := p.FireDelay(); d != time.Millisecond {
		t.Fatalf("FireDelay = %v, want 1ms", d)
	}
	p.arm(1, Config{}) // armed but no delay: stall site degrades to no-op
	if d := p.FireDelay(); d != 0 {
		t.Fatalf("no-delay FireDelay = %v, want 0", d)
	}
}

func TestYieldParks(t *testing.T) {
	reset(t)
	p := NewPoint("test.yield")
	var parked []*Point
	park := func(q *Point) { parked = append(parked, q) }
	p.Yield() // disarmed
	p.arm(1, Config{})
	p.Yield() // armed without a Park action
	if len(parked) != 0 || p.Hits() != 0 {
		t.Fatalf("Yield without a Park action parked %d times, counted %d hits", len(parked), p.Hits())
	}
	p.arm(1, Config{Park: park})
	p.Yield()
	p.Yield()
	if len(parked) != 2 || parked[0] != p || p.Hits() != 2 {
		t.Fatalf("armed Yield parked %d times, counted %d hits; want 2 and 2", len(parked), p.Hits())
	}
}

func TestEnableSnapshotLifecycle(t *testing.T) {
	reset(t)
	NewPoint("test.lifecycle")
	if err := Enable(7, "test.lifecycle", Config{OneIn: 2}); err != nil {
		t.Fatal(err)
	}
	if err := Enable(7, "test.noSuchPoint", Config{}); err == nil {
		t.Fatal("Enable of unknown point succeeded")
	}
	p := Lookup("test.lifecycle")
	for i := 0; i < 100; i++ {
		p.Fire()
	}
	found := false
	for _, st := range Snapshot() {
		if st.Name == "test.lifecycle" {
			found = true
			if !st.Armed || st.Hits != 100 || st.Fires == 0 {
				t.Fatalf("snapshot %+v", st)
			}
		}
	}
	if !found {
		t.Fatal("lifecycle point missing from snapshot")
	}
	Disable("test.lifecycle")
	if p.Fire() {
		t.Fatal("disabled point fired")
	}
}

func TestConcurrentFireIsRaceFree(t *testing.T) {
	reset(t)
	p := NewPoint("test.concurrent")
	p.arm(9, Config{OneIn: 3, Times: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				p.Fire()
			}
		}()
	}
	wg.Wait()
	if p.Hits() != 80000 {
		t.Fatalf("Hits = %d, want 80000", p.Hits())
	}
	if p.Fires() > 1000 {
		t.Fatalf("Times=1000 exceeded: %d fires", p.Fires())
	}
}
