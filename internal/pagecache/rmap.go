package pagecache

// mapping is one rmap key: a PTE slot identified by its address space
// and virtual address.
type mapping struct {
	owner MappingOwner
	vaddr uint64
}

// rmapEntry is one incarnation of a reverse mapping: the PTE slot and
// the generation at which it was added. Generations start at 1, so a
// zero gen marks an empty inline slot.
type rmapEntry struct {
	m   mapping
	gen uint64
}

// rmapSet is a page's reverse map: the PTEs mapping it, each stamped
// with the generation that added it. Almost every page is mapped by one
// or two PTEs — one space, or the two spaces sharing a file — so those
// live in two inline slots that are compared, never hashed; a third
// simultaneous mapping spills into an overflow map, made only then and
// dropped again when it empties, so the common paths never touch a map
// at all. The zero value is empty. The owning page's rmap mutex guards
// it.
type rmapSet struct {
	inline [2]rmapEntry
	more   map[mapping]uint64 // nil unless it holds an entry
}

// len returns the number of mappings in the set.
func (s *rmapSet) len() int {
	n := len(s.more)
	for i := range s.inline {
		if s.inline[i].gen != 0 {
			n++
		}
	}
	return n
}

// get returns m's generation, or 0 if m is not in the set.
func (s *rmapSet) get(m mapping) uint64 {
	for i := range s.inline {
		if e := &s.inline[i]; e.gen != 0 && e.m == m {
			return e.gen
		}
	}
	if s.more != nil {
		return s.more[m]
	}
	return 0
}

// set records m at generation gen, replacing any incarnation of m the
// set already holds (a refault re-adding a slot the scan revoked but has
// not yet deleted). A free inline slot is preferred to the overflow map.
func (s *rmapSet) set(m mapping, gen uint64) {
	free := -1
	for i := range s.inline {
		e := &s.inline[i]
		if e.gen == 0 {
			if free < 0 {
				free = i
			}
		} else if e.m == m {
			e.gen = gen
			return
		}
	}
	if s.more != nil {
		if _, ok := s.more[m]; ok {
			s.more[m] = gen
			return
		}
	}
	if free >= 0 {
		s.inline[free] = rmapEntry{m, gen}
		return
	}
	if s.more == nil {
		s.more = make(map[mapping]uint64)
	}
	s.more[m] = gen
}

// remove deletes m when gen is 0 (the zap paths' unconditional removal)
// or equals m's generation (the scan deleting exactly the incarnation it
// snapshotted; a newer one stays).
func (s *rmapSet) remove(m mapping, gen uint64) {
	for i := range s.inline {
		if e := &s.inline[i]; e.gen != 0 && e.m == m {
			if gen == 0 || e.gen == gen {
				*e = rmapEntry{} // drops the owner reference too
			}
			return
		}
	}
	if s.more == nil {
		return
	}
	if cur, ok := s.more[m]; ok && (gen == 0 || cur == gen) {
		delete(s.more, m)
		if len(s.more) == 0 {
			s.more = nil
		}
	}
}

// appendTo appends every entry of the set to dst and returns it.
func (s *rmapSet) appendTo(dst []rmapEntry) []rmapEntry {
	for _, e := range s.inline {
		if e.gen != 0 {
			dst = append(dst, e)
		}
	}
	for m, gen := range s.more {
		dst = append(dst, rmapEntry{m, gen})
	}
	return dst
}
