package mem

import "sort"

// A recovery replaces a dead process's address space with a new one of
// the same layout: a restore recreates the regions a checkpoint names at
// their original addresses (MapAt), and a fresh build maps its arenas
// where the first build did (Mmap places by the live regions alone). So
// the new space can take the dead one's slabs instead of making its own,
// as a restarted process maps each saved region back at its original
// address.

// Inherit takes dead's slabs into s, region by region. Every slab dead
// holds — its live regions' and the spares it inherited and never used —
// is given to s: a region of s, mapped already or later (MapAt, Mmap,
// MapBounce), that has the start, size and kind of a region whose slab s
// was given and holds no slab of its own takes that slab, cleared, so it
// reads zero wherever nothing loads or writes it and PeekPage reports its
// pages unwritten, as a fresh region's. A slab no region matches stays
// with s, a spare, until a region takes it or s itself is inherited.
//
// dead is emptied: it keeps no region, so a later access to it fails
// with ErrUnmapped (an MPI delivery into it is dropped) and no write
// meant for dead reaches s. A region of dead someone still holds is left
// unmapped and unprotected; until s takes its slab it still holds it,
// and the slab is cleared when s does. A phantom s takes no slab. dead is
// never used again; Inherit(nil) and Inherit(s) do nothing.
func (s *AddressSpace) Inherit(dead *AddressSpace) {
	if dead == nil || dead == s {
		return
	}
	dead.settle()
	s.settle()
	// A slab no region of s takes now goes to the front of dead's own
	// region list, which becomes s's spares, and dead's list header
	// becomes s's: a restore that maps its layout first allocates nothing.
	given := dead.regions[:0]
	for _, r := range dead.regions {
		r.wp, r.silent, r.armed, r.dead = nil, nil, false, true
		dead.mapEvent(r, false)
		switch {
		case r.slab == nil || s.cfg.Phantom:
			r.slab = nil
		case !s.take(r):
			given = append(given, r)
		}
	}
	clear(dead.regions[len(given):])
	list := dead.spares
	if list != nil && !s.cfg.Phantom {
		for _, r := range *list {
			if !s.take(r) {
				given = append(given, r)
			}
		}
	}
	dead.regions, dead.spares, dead.lastHit = nil, nil, nil
	switch {
	case len(given) == 0:
	case s.spares != nil:
		*s.spares = append(*s.spares, given...)
	default:
		if list == nil {
			list = new([]*Region)
		}
		*list, s.spares = given, list
	}
}

// take gives the region of s at sp's start, if it has sp's size and kind
// and holds no slab, sp's slab, cleared, and reports whether it did.
func (s *AddressSpace) take(sp *Region) bool {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].start >= sp.start })
	if i == len(s.regions) {
		return false
	}
	r := s.regions[i]
	if r.start != sp.start || r.size != sp.size || r.kind != sp.kind || r.slab != nil {
		return false
	}
	r.takeSlab(sp)
	return true
}

// takeSlab moves sp's slab to r, cleared.
func (r *Region) takeSlab(sp *Region) {
	r.slab, sp.slab = sp.slab, nil
	clear(r.slab)
}

// adopt gives r, a region just mapped in s, the slab of a spare with r's
// start, size and kind, cleared, if s holds one.
func (s *AddressSpace) adopt(r *Region) {
	spares := *s.spares
	for i, sp := range spares {
		if sp.start == r.start && sp.size == r.size && sp.kind == r.kind {
			r.takeSlab(sp)
			last := len(spares) - 1
			spares[i], spares[last] = spares[last], nil
			*s.spares = spares[:last]
			return
		}
	}
}
