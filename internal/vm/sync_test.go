package vm

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bonsai/internal/fail"
	"bonsai/internal/vma"
)

// TestSyncSeam keeps the synchronization seam a seam: outside sync.go no
// non-test file of this package may name a lock of the policy's lock
// set, or decide anything by comparing the configured design to a
// design constant. (Passing the design along — trace.Emit's design
// number, Design() — is not a decision, and neither are Design's own
// methods, which compare their receiver.)
func TestSyncSeam(t *testing.T) {
	lockSet := map[string]bool{"mmapSem": true, "faultSem": true, "treeSem": true, "rl": true}
	designs := map[string]bool{"RWLock": true, "FaultLock": true, "Hybrid": true, "PureRCU": true}
	isConfiguredDesign := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Design"
	}
	isDesignConst := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && designs[id.Name]
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if name == "sync.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if lockSet[n.Name] {
					t.Errorf("%s: names %s; the lock set belongs to sync.go", fset.Position(n.Pos()), n.Name)
				}
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) &&
					(isConfiguredDesign(n.X) && isDesignConst(n.Y) || isConfiguredDesign(n.Y) && isDesignConst(n.X)) {
					t.Errorf("%s: branches on the design; ask the policy in sync.go", fset.Position(n.Pos()))
				}
			case *ast.SwitchStmt:
				if n.Tag != nil && isConfiguredDesign(n.Tag) {
					t.Errorf("%s: switches on the design; ask the policy in sync.go", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	if checked < 10 {
		t.Fatalf("checked only %d files: is the test running in internal/vm?", checked)
	}
}

// lockOp is one operation running on a goroutine of its own, so a test
// holding a lock can see whether the operation waits for it: the
// goroutine's wait reason, read from the goroutine dump (waitReasons).
type lockOp struct {
	what string
	goid int64
	done chan error
}

func startOp(what string, fn func() error) *lockOp {
	op := &lockOp{what: what, done: make(chan error, 1)}
	id := make(chan int64)
	go func() {
		id <- goid()
		op.done <- fn()
	}()
	op.goid = <-id
	return op
}

// waits fails t unless op comes to wait on a sync.RWMutex while held
// names what the test holds.
func (op *lockOp) waits(t *testing.T, held string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		select {
		case err := <-op.done:
			t.Fatalf("%s returned (%v) while %s: it should wait", op.what, err, held)
		default:
		}
		if strings.HasPrefix(waitReasons()[op.goid], "sync.RWMutex.") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s neither waited nor returned within 10s while %s", op.what, held)
		}
	}
}

// finishes waits for op to return and returns its error; it fails t if
// op stays blocked on another goroutine (a lock, a channel) while held
// names what the test holds. A wait read in 20 dumps in a row is taken
// as one that lasts.
func (op *lockOp) finishes(t *testing.T, held string) error {
	t.Helper()
	blocked := 0
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		select {
		case err := <-op.done:
			return err
		default:
		}
		state := waitReasons()[op.goid]
		if blockedReason(state) {
			blocked++
		} else {
			blocked = 0
		}
		if blocked == 20 {
			t.Fatalf("%s waits (%s) while %s: it should finish", op.what, state, held)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not return within 10s while %s", op.what, held)
		}
	}
}

// TestDesignLockTable shows sync.go's design table by what each design's
// operations wait for. For each semaphore the table names, a first-touch
// fault on a mapped page waits while the test write-holds it, and a
// munmap waits while the test read-holds it — a pin on the global
// semaphore, FaultLock's fault lock against its mutation phase, Hybrid's
// tree lock against the index edit — and each finishes once it is
// released. Each also finishes while the test write-holds every other
// semaphore, and a PureRCU or Hybrid fault while it holds the whole-space
// range lock too (§5.3: no fault takes a lock of the address space).
// Last, Figure 2's writer preference: under RWLock, a fault parked inside
// its read hold keeps a munmap waiting, and a second fault queues behind
// the munmap instead of overtaking it, so it finds the page unmapped.
func TestDesignLockTable(t *testing.T) {
	const (
		mmapSem  = "mmapSem"
		faultSem = "faultSem"
		treeSem  = "treeSem"
	)
	table := map[Design]struct{ fault, unmap []string }{
		RWLock:    {fault: []string{mmapSem}, unmap: []string{mmapSem}},
		FaultLock: {fault: []string{faultSem}, unmap: []string{mmapSem, faultSem}},
		Hybrid:    {fault: []string{treeSem}, unmap: []string{treeSem}},
		PureRCU:   {},
	}
	for _, d := range Designs {
		t.Run(d.String(), func(t *testing.T) {
			as, err := New(exploreConfig(d))
			if err != nil {
				t.Fatal(err)
			}
			sems := map[string]*sync.RWMutex{mmapSem: &as.sy.mmapSem, faultSem: &as.sy.faultSem, treeSem: &as.sy.treeSem}
			// others write-holds every semaphore not in names and returns
			// what it holds, and the release.
			others := func(names []string) (string, func()) {
				var held []string
				for _, n := range []string{mmapSem, faultSem, treeSem} {
					if !slices.Contains(names, n) {
						sems[n].Lock()
						held = append(held, n)
					}
				}
				return strings.Join(held, ", ") + " write-held", func() {
					for _, n := range held {
						sems[n].Unlock()
					}
				}
			}
			cpu := as.NewCPU(0)
			const pages = 16 // too short to be huge-eligible
			base := mustMmap(t, as, 0, pages*PageSize, vma.ProtRead|vma.ProtWrite, 0)
			next := base
			fault := func() *lockOp {
				p := next
				next += PageSize
				return startOp("a fault", func() error { return cpu.Fault(p, true) })
			}
			// Each munmap cuts a page out of the middle of a VMA: a split,
			// whose index edit inserts the top part. Cutting a VMA's last
			// page would only store its new end, and edit nothing.
			cut := mustMmap(t, as, 0, pages*PageSize, vma.ProtRead, 0)
			unmap := func() *lockOp {
				cut += 2 * PageSize
				p := cut
				return startOp("a munmap", func() error { return as.Munmap(p, PageSize) })
			}
			// row runs start while the test holds each semaphore of waitsOn
			// in turn (write mode, or read mode with read set), then once
			// more while it write-holds all the others.
			row := func(start func() *lockOp, waitsOn []string, read bool) {
				t.Helper()
				for _, n := range waitsOn {
					lock, unlock, mode := sems[n].Lock, sems[n].Unlock, " write-held"
					if read {
						lock, unlock, mode = sems[n].RLock, sems[n].RUnlock, " read-held"
					}
					lock()
					op := start()
					op.waits(t, n+mode)
					unlock()
					if err := op.finishes(t, "nothing held"); err != nil {
						t.Fatal(err)
					}
				}
				held, release := others(waitsOn)
				if !read && as.sy.rl != nil {
					g := as.sy.rl.Lock(0, MaxAddress)
					held += ", and the whole-space range lock held"
					defer g.Unlock()
				}
				defer release()
				if err := start().finishes(t, held); err != nil {
					t.Fatal(err)
				}
			}
			row(fault, table[d].fault, false)
			row(unmap, table[d].unmap, true)
			if err := as.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("writer preference", func(t *testing.T) {
		as, err := New(exploreConfig(RWLock))
		if err != nil {
			t.Fatal(err)
		}
		const pages = 16
		base := mustMmap(t, as, 0, pages*PageSize, vma.ProtRead|vma.ProtWrite, 0)
		var hits atomic.Int32
		parked, resume := make(chan struct{}), make(chan struct{})
		err = fail.Enable(0, faultFillPoint.Name(), fail.Config{Park: func(*fail.Point) {
			if hits.Add(1) == 1 {
				close(parked)
				<-resume
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer fail.Disable(faultFillPoint.Name())
		c0, c1 := as.NewCPU(0), as.NewCPU(1)
		first := startOp("the parked fault", func() error { return c0.Fault(base, true) })
		<-parked
		unmap := startOp("a munmap", func() error { return as.Munmap(base, pages*PageSize) })
		unmap.waits(t, "a fault parked inside its mmapSem read hold")
		second := startOp("a second fault", func() error { return c1.Fault(base+PageSize, true) })
		second.waits(t, "a munmap waits for mmapSem")
		close(resume)
		if err := first.finishes(t, "nothing held"); err != nil {
			t.Fatal(err)
		}
		if err := unmap.finishes(t, "nothing held"); err != nil {
			t.Fatal(err)
		}
		if err := second.finishes(t, "nothing held"); !errors.Is(err, ErrSegv) {
			t.Fatalf("the second fault returned %v, want ErrSegv: it overtook the waiting munmap", err)
		}
		if err := as.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRetryReasons pins how a fast-path outcome becomes a retry
// statistic — by where the retry arose, identically under every policy:
// a lookup miss, a fill that lost a race (the §5.2 double check or a
// racing huge promotion, which fillPage reports the same way), or a
// copy-on-write break the read side may not do in place. Anything else
// is the fault's final answer.
func TestRetryReasons(t *testing.T) {
	outcomes := []struct {
		name    string
		outcome error
		counter func(Stats) uint64 // nil: not retried
	}{
		{"mapped", nil, nil},
		{"segv", ErrSegv, nil},
		{"protection", ErrAccess, nil},
		{"frame shortage", ErrFrameShortage, nil},
		{"lookup miss", retryMiss, func(s Stats) uint64 { return s.RetriesMiss }},
		{"fill race", retryFillRace, func(s Stats) uint64 { return s.RetriesFillRace }},
		{"copy-on-write", retryCow, func(s Stats) uint64 { return s.RetriesCow }},
	}
	forEachDesign(t, Config{CPUs: 1}, func(t *testing.T, as *AddressSpace) {
		cpu := as.NewCPU(0)
		base := mustMmap(t, as, 0, PageSize, vma.ProtRead|vma.ProtWrite, 0)
		for _, o := range outcomes {
			reason, retried := o.outcome.(retryReason)
			if retried != (o.counter != nil) {
				t.Fatalf("%s: retried = %v", o.name, retried)
			}
			if !retried {
				continue
			}
			before := as.Stats()
			if err := cpu.faultSlow(base, true, reason); err != nil {
				t.Fatalf("%s: retry with the page pinned: %v", o.name, err)
			}
			after := as.Stats()
			if got := o.counter(after) - o.counter(before); got != 1 || after.Retries()-before.Retries() != 1 {
				t.Errorf("%s: its counter moved by %d and Retries() by %d, want 1 and 1",
					o.name, got, after.Retries()-before.Retries())
			}
		}

		// End to end, the one outcome every policy reaches on demand: a
		// fault outside any mapping is a miss, retried once, then SIGSEGV.
		before := as.Stats()
		if err := cpu.Fault(base+64*PageSize, false); !errors.Is(err, ErrSegv) {
			t.Fatalf("unmapped fault = %v, want ErrSegv", err)
		}
		after := as.Stats()
		if after.RetriesMiss-before.RetriesMiss != 1 || after.Retries()-before.Retries() != 1 {
			t.Errorf("unmapped fault: RetriesMiss +%d of Retries() +%d, want 1 of 1",
				after.RetriesMiss-before.RetriesMiss, after.Retries()-before.Retries())
		}
	})
}
