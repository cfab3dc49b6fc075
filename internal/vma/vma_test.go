package vma

import (
	"testing"

	"bonsai/internal/physmem"
)

func TestBasics(t *testing.T) {
	v := New(0x1000, 0x5000, ProtRead|ProtWrite, Anon, nil, 0)
	if v.Start() != 0x1000 || v.End() != 0x5000 || v.Len() != 0x4000 {
		t.Fatalf("bounds wrong: %v", v)
	}
	if !v.Contains(0x1000) || !v.Contains(0x4fff) {
		t.Fatal("Contains misses interior")
	}
	if v.Contains(0xfff) || v.Contains(0x5000) {
		t.Fatal("Contains includes exterior")
	}
	if !v.Overlaps(0, 0x1001) || !v.Overlaps(0x4fff, 0x10000) {
		t.Fatal("Overlaps misses")
	}
	if v.Overlaps(0, 0x1000) || v.Overlaps(0x5000, 0x6000) {
		t.Fatal("Overlaps includes adjacent")
	}
}

func TestInvalidBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with start >= end did not panic")
		}
	}()
	New(0x2000, 0x2000, ProtRead, Anon, nil, 0)
}

func TestDeleted(t *testing.T) {
	v := New(0x1000, 0x2000, ProtRead, Anon, nil, 0)
	if v.Deleted() {
		t.Fatal("fresh VMA deleted")
	}
	v.MarkDeleted()
	if !v.Deleted() {
		t.Fatal("MarkDeleted did not stick")
	}
	if v.Contains(0x1800) {
		t.Fatal("deleted VMA still Contains")
	}
}

func TestBoundAdjust(t *testing.T) {
	v := New(0x1000, 0x5000, ProtRead, Anon, nil, 0)
	v.SetEnd(0x3000)
	if v.End() != 0x3000 || v.Contains(0x3000) {
		t.Fatal("SetEnd did not take effect")
	}
	v.SetStart(0x2000)
	if v.Start() != 0x2000 || v.Contains(0x1fff) {
		t.Fatal("SetStart did not take effect")
	}
}

func TestSetEndPanicsOnInversion(t *testing.T) {
	v := New(0x1000, 0x5000, ProtRead, Anon, nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetEnd below start did not panic")
		}
	}()
	v.SetEnd(0x1000)
}

func TestFileOffset(t *testing.T) {
	f := &File{Name: "lib.so", Seed: 7}
	v := New(0x10000, 0x20000, ProtRead, Private, f, 0x3000)
	if off := v.FileOffset(0x10000); off != 0x3000 {
		t.Fatalf("FileOffset(start) = %#x", off)
	}
	if off := v.FileOffset(0x11000); off != 0x4000 {
		t.Fatalf("FileOffset(start+page) = %#x", off)
	}
}

func TestFilePageByteDeterministic(t *testing.T) {
	f := &File{Seed: 42}
	if f.PageByte(0) != f.PageByte(0) {
		t.Fatal("PageByte not deterministic")
	}
	// Different offsets should usually differ (hash quality smoke test).
	same := 0
	for off := uint64(0); off < 256; off++ {
		if f.PageByte(off*4096) == f.PageByte((off+1)*4096) {
			same++
		}
	}
	if same > 32 {
		t.Fatalf("PageByte too uniform: %d/256 adjacent collisions", same)
	}
}

// TestFillPageEveryByte: the doubling fill must reach every byte of the
// page and write nothing but PageByte.
func TestFillPageEveryByte(t *testing.T) {
	f := &File{Seed: 9}
	for _, off := range []uint64{0, 7 << 12, 1 << 40} {
		var page [physmem.PageSize]byte
		for i := range page {
			page[i] = ^f.PageByte(off)
		}
		f.FillPage(&page, off)
		for i, b := range page {
			if b != f.PageByte(off) {
				t.Fatalf("off %#x: byte %d = %#x, want %#x", off, i, b, f.PageByte(off))
			}
		}
	}
}

func TestCanMerge(t *testing.T) {
	v := New(0x1000, 0x2000, ProtRead|ProtWrite, Anon, nil, 0)
	if !v.CanMerge(ProtRead|ProtWrite, Anon, nil, 0) {
		t.Fatal("identical anon mapping cannot merge")
	}
	if !v.CanMerge(ProtRead|ProtWrite, Anon|Fixed, nil, 0) {
		t.Fatal("Fixed flag should not block merging")
	}
	if v.CanMerge(ProtRead, Anon, nil, 0) {
		t.Fatal("different prot merged")
	}
	if v.CanMerge(ProtRead|ProtWrite, Anon|Stack, nil, 0) {
		t.Fatal("different flags merged")
	}
	f := &File{Name: "f"}
	if v.CanMerge(ProtRead|ProtWrite, Anon, f, 0) {
		t.Fatal("anon merged with file-backed")
	}
	v.MarkDeleted()
	if v.CanMerge(ProtRead|ProtWrite, Anon, nil, 0) {
		t.Fatal("deleted VMA merged")
	}

	fv := New(0x10000, 0x20000, ProtRead, Private, f, 0)
	if !fv.CanMerge(ProtRead, Private, f, 0x10000) {
		t.Fatal("file-contiguous mapping cannot merge")
	}
	if fv.CanMerge(ProtRead, Private, f, 0x8000) {
		t.Fatal("file-discontiguous mapping merged")
	}
}

func TestStrings(t *testing.T) {
	v := New(0x1000, 0x2000, ProtRead|ProtExec, Private, &File{Name: "x"}, 0)
	if v.String() == "" || v.Prot().String() != "r-x" {
		t.Fatalf("String: %v prot %q", v, v.Prot().String())
	}
	if (Anon | Stack).String() != "anon|stack" {
		t.Fatalf("Flags.String = %q", (Anon | Stack).String())
	}
	if Flags(0).String() != "0" {
		t.Fatal("zero Flags string")
	}
}
