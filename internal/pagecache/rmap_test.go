package pagecache

import (
	"math/rand/v2"
	"testing"

	"bonsai/internal/tlb"
)

// nopOwner is a MappingOwner with identity only: rmap tests never
// revoke through it.
type nopOwner struct{ id int }

func (*nopOwner) EvictPTE(*tlb.Gather, uint64, Incarnation) bool { return false }

// runRmapOps decodes ops two bytes at a time into operations on one
// page's reverse map over owners × two vaddrs — AddMapping (a fresh
// generation, replacing any incarnation of the slot), RemoveMapping,
// the scan's delete-if-generation-matches with the current or a stale
// generation, and MappedBy — and checks the page against a plain map
// after every step: the same entries with the same generations,
// Mapped equal to its size, no overflow map while it would be empty.
// It returns the largest size the set reached.
func runRmapOps(t *testing.T, owners int, ops []byte) (peak int) {
	t.Helper()
	own := make([]MappingOwner, owners)
	for i := range own {
		own[i] = &nopOwner{i}
	}
	pg := &Page{}
	oracle := map[mapping]uint64{}
	for i := 0; i+1 < len(ops); i += 2 {
		k := int(ops[i+1])
		m := mapping{own[k%owners], uint64(1+(k/owners)%2) << 12}
		switch ops[i] % 5 {
		case 0, 1:
			if !pg.AddMapping(m.owner, m.vaddr) {
				t.Fatalf("op %d: AddMapping refused on a live page", i/2)
			}
			oracle[m] = pg.rmapGen
		case 2:
			pg.RemoveMapping(m.owner, m.vaddr)
			delete(oracle, m)
		case 3:
			cur, ok := oracle[m]
			gen := cur
			if ops[i]&0x80 != 0 {
				gen-- // a stale incarnation: the current one must stay
			}
			if !ok || gen == 0 {
				break // no incarnation to name (0 would mean "any")
			}
			pg.rmapMu.Lock()
			pg.rmap.remove(m, gen)
			pg.rmapMu.Unlock()
			if cur == gen {
				delete(oracle, m)
			}
		default:
			if _, want := oracle[m]; pg.MappedBy(m.owner, m.vaddr) != want {
				t.Fatalf("op %d: MappedBy(%d, %#x) = %v, want %v", i/2, k%owners, m.vaddr, !want, want)
			}
		}
		if got := pg.Mapped(); got != len(oracle) {
			t.Fatalf("op %d: Mapped() = %d, oracle has %d", i/2, got, len(oracle))
		}
		if pg.rmap.more != nil && len(pg.rmap.more) == 0 {
			t.Fatalf("op %d: empty overflow map kept", i/2)
		}
		seen := map[mapping]bool{}
		for _, e := range pg.rmap.appendTo(nil) {
			if seen[e.m] {
				t.Fatalf("op %d: mapping %#x listed twice", i/2, e.m.vaddr)
			}
			seen[e.m] = true
			if want, ok := oracle[e.m]; !ok || want != e.gen {
				t.Fatalf("op %d: entry %#x gen %d, oracle gen %d (present %v)", i/2, e.m.vaddr, e.gen, want, ok)
			}
		}
		peak = max(peak, len(oracle))
	}
	return peak
}

// TestRmapSetMatchesMap is the seeded property test of the inline
// reverse map: random operation sequences over one to five owners
// against a map oracle, reaching the overflow map and reusing freed
// inline slots along the way.
func TestRmapSetMatchesMap(t *testing.T) {
	overflowed := 0
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 23))
		ops := make([]byte, 2*400)
		for i := range ops {
			ops[i] = byte(r.Uint32())
		}
		if runRmapOps(t, 1+int(seed%5), ops) > len(rmapSet{}.inline) {
			overflowed++
		}
	}
	if overflowed == 0 {
		t.Fatal("no sequence reached the overflow map")
	}
}

// TestRmapSetSlotReuse pins the layout: two mappings stay inline, a
// third spills, a freed inline slot is reused before the overflow map
// grows, re-adding a spilled mapping updates it in place rather than
// duplicating it inline, and the overflow map goes once it empties.
func TestRmapSetSlotReuse(t *testing.T) {
	a, b, c, d := &nopOwner{0}, &nopOwner{1}, &nopOwner{2}, &nopOwner{3}
	pg := &Page{}
	for _, o := range []MappingOwner{a, b} {
		pg.AddMapping(o, 0x1000)
	}
	if pg.rmap.more != nil {
		t.Fatal("two mappings made an overflow map")
	}
	pg.AddMapping(c, 0x1000)
	if len(pg.rmap.more) != 1 {
		t.Fatalf("third mapping: overflow holds %d, want 1", len(pg.rmap.more))
	}
	pg.RemoveMapping(a, 0x1000)
	pg.AddMapping(d, 0x1000)
	if len(pg.rmap.more) != 1 || pg.rmap.inline[0].m.owner != d {
		t.Fatal("a freed inline slot was not reused")
	}
	pg.RemoveMapping(d, 0x1000)
	pg.AddMapping(c, 0x1000) // c lives in the overflow map; slot 0 is free
	if len(pg.rmap.more) != 1 || pg.rmap.inline[0].gen != 0 || pg.Mapped() != 2 {
		t.Fatalf("re-adding a spilled mapping moved or duplicated it (Mapped %d)", pg.Mapped())
	}
	pg.RemoveMapping(c, 0x1000)
	if pg.rmap.more != nil || pg.Mapped() != 1 || !pg.MappedBy(b, 0x1000) {
		t.Fatal("emptied overflow map kept, or the wrong mapping removed")
	}
}

// FuzzPageRmap drives one page's reverse map with a byte-decoded
// operation stream (see runRmapOps) against the map oracle; the first
// byte picks the owner count, one to five.
func FuzzPageRmap(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 2, 0, 3, 0})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 2, 1, 0, 5, 3, 2, 0x83, 3, 4, 4})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runRmapOps(t, 1+int(data[0])%5, data[1:])
	})
}
