package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSynchronizeWaitsForActiveReader(t *testing.T) {
	d := NewDomain(Options{})
	r := d.Register()

	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		r.Lock()
		close(entered)
		<-release
		r.Unlock()
	}()
	<-entered

	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Synchronize returned while a pre-existing reader was active")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Synchronize never returned after reader exited")
	}
}

func TestSynchronizeIgnoresLaterReaders(t *testing.T) {
	// A reader that starts after Synchronize begins must not block it.
	d := NewDomain(Options{})
	r := d.Register()

	syncStarted := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(syncStarted)
		d.Synchronize()
		close(done)
	}()
	<-syncStarted
	// This reader may start before or after the epoch advance; either
	// way Synchronize must complete while the reader stays in its
	// critical section *if* it started after the advance. To make the
	// test deterministic, wait for the epoch to move first.
	for d.epoch.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	r.Lock()
	defer r.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Synchronize blocked on a reader that started after it")
	}
}

func TestDeferRunsAfterGracePeriod(t *testing.T) {
	d := NewDomain(Options{BatchSize: -1})
	r := d.Register()

	var freed atomic.Bool
	r.Lock()
	d.Defer(func() { freed.Store(true) })
	if freed.Load() {
		t.Fatal("callback ran before any grace period")
	}
	r.Unlock()
	d.Synchronize()
	if !freed.Load() {
		t.Fatal("callback did not run after Synchronize")
	}
}

func TestDeferredCallbackNeverRunsDuringProtectingReader(t *testing.T) {
	// The core RCU property: a callback queued while reader R is inside
	// a critical section must not run until R exits.
	d := NewDomain(Options{BatchSize: -1})
	r := d.Register()

	var readerInside atomic.Bool
	var violation atomic.Bool

	readerInside.Store(true)
	r.Lock()
	d.Defer(func() {
		if readerInside.Load() {
			violation.Store(true)
		}
	})

	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	readerInside.Store(false)
	r.Unlock()
	<-done
	if violation.Load() {
		t.Fatal("deferred callback ran while the protecting reader was active")
	}
}

func TestNestedReadSections(t *testing.T) {
	d := NewDomain(Options{})
	r := d.Register()
	r.Lock()
	r.Lock()
	r.Unlock()
	if !r.Active() {
		t.Fatal("reader became quiescent while still nested")
	}
	r.Unlock()
	if r.Active() {
		t.Fatal("reader still active after outermost Unlock")
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock without Lock did not panic")
		}
	}()
	d := NewDomain(Options{})
	r := d.Register()
	r.Unlock()
}

func TestUnregisterActiveReaderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unregister of active reader did not panic")
		}
	}()
	d := NewDomain(Options{})
	r := d.Register()
	r.Lock()
	d.Unregister(r)
}

func TestUnregisterRemovesReader(t *testing.T) {
	d := NewDomain(Options{})
	r := d.Register()
	if d.Stats().Readers != 1 {
		t.Fatal("reader not registered")
	}
	d.Unregister(r)
	if d.Stats().Readers != 0 {
		t.Fatal("reader not unregistered")
	}
	// Synchronize must not wait on an unregistered reader.
	done := make(chan struct{})
	go func() { d.Synchronize(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Synchronize blocked on unregistered reader")
	}
}

func TestBatchDrain(t *testing.T) {
	// Callbacks up to the batch never make their caller advance: the
	// background poller must drain every one without any blocking call
	// from here.
	d := newDomain(8, 1)
	defer d.Close()
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		d.Defer(func() { ran.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("the poller drained %d callbacks, want 8", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStatsCounters(t *testing.T) {
	d := NewDomain(Options{BatchSize: -1})
	d.Defer(func() {})
	d.Defer(func() {})
	st := d.Stats()
	if st.Defers != 2 || st.Pending != 2 || st.Ran != 0 {
		t.Fatalf("stats before barrier = %+v", st)
	}
	d.Synchronize()
	st = d.Stats()
	if st.Ran != 2 || st.Pending != 0 || st.GracePeriods == 0 {
		t.Fatalf("stats after barrier = %+v", st)
	}
}

func TestManyReadersStress(t *testing.T) {
	d := NewDomain(Options{BatchSize: 64})
	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// A shared "object graph": writers retire objects and mark them dead
	// only after a grace period; readers must never observe a dead
	// object through the published pointer.
	type obj struct{ dead atomic.Bool }
	cur := atomic.Pointer[obj]{}
	cur.Store(&obj{})

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := d.Register()
			defer d.Unregister(r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Lock()
				o := cur.Load()
				if o.dead.Load() {
					t.Error("reader observed a reclaimed object")
					r.Unlock()
					return
				}
				r.Unlock()
			}
		}()
	}

	for i := 0; i < 300; i++ {
		old := cur.Swap(&obj{})
		d.Defer(func() { old.dead.Store(true) })
	}
	d.Synchronize()
	close(stop)
	wg.Wait()
}
