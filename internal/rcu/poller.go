package rcu

import "time"

// drainInterval is how often the poller re-checks for pending callbacks
// while work is flowing: it bounds how long a trickle of retires below
// the batch, which never makes its caller advance, can sit queued.
const drainInterval = time.Millisecond

// idleInterval is the re-check cadence after several empty passes, so
// an idle domain's poller costs next to nothing but still notices a
// trickle promptly.
const idleInterval = 20 * time.Millisecond

// poller is the background goroutine for trickles, the analogue of the
// kernel's softirq processing of call_rcu callbacks. On each tick with
// anything pending it makes the retiring callers' attempt — advance
// once, drain what has expired, every shard — and never waits for a
// reader: a lagging one is met again at the next tick. A
// tick with nothing pending restamps the epoch's publication instead,
// so the first advance after an idle spell records how long callbacks
// waited for it, not how long nothing did.
func (d *Domain) poller() {
	defer close(d.exited)
	timer := time.NewTimer(drainInterval)
	defer timer.Stop()
	idle := 0
	for {
		select {
		case <-d.stopc:
			// Final flush happens in Close after the poller exits.
			return
		case <-timer.C:
		}
		pending := d.pendingTotal() > 0
		if pending {
			d.tryAdvance()
			d.drainAll()
		} else {
			d.published.Store(int64(now()))
		}
		switch {
		case pending:
			idle = 0
		case idle < 8:
			idle++
		}
		if idle >= 8 {
			timer.Reset(idleInterval)
		} else {
			timer.Reset(drainInterval)
		}
	}
}
