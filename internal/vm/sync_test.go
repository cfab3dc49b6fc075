package vm

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

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
