package sim

import (
	"sync"
)

// Slab hands out the elements of one array, one at a time (Take) or a
// run at a time (TakeN), and new ones once the array is used up. An
// owner that knows how many of a kind it will build reserves them at
// once, so building them costs one array, not one object each. The
// array lives while any element of it is named; an owner's slabs hold
// only what it builds, so they go with it.
type Slab[T any] struct{ free []T }

// Reserve sets aside an array of n elements, replacing what is left of
// the previous one.
func (s *Slab[T]) Reserve(n int) { s.free = make([]T, n) }

// Take returns the next element, zero.
func (s *Slab[T]) Take() *T {
	if len(s.free) == 0 {
		return new(T)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}

// TakeN returns the next n elements, zero, as a slice whose capacity is
// n: an append to it moves it off the slab.
func (s *Slab[T]) TakeN(n int) []T {
	if len(s.free) < n {
		return make([]T, n)
	}
	v := s.free[:n:n]
	s.free = s.free[n:]
	return v
}

// Capacity counts what a world builds on an engine: its links, its
// resources, and the paths it may take with their hops in all.
type Capacity struct {
	Links, Resources, Paths, Hops int
}

// Plus returns the counts of c and d together.
func (c Capacity) Plus(d Capacity) Capacity {
	return Capacity{c.Links + d.Links, c.Resources + d.Resources, c.Paths + d.Paths, c.Hops + d.Hops}
}

// Reserve sets aside one array for each kind c counts, and room for the
// links in Links: NewLink, NewResource and NewPath take from them until
// they are used up, and build single objects after. Links keep their
// creation order and ids whichever way they are built.
func (e *Engine) Reserve(c Capacity) {
	// append to a made slice, not slices.Grow: the race build makes a
	// temporary for the latter.
	e.links = append(make([]*Link, 0, len(e.links)+c.Links), e.links...)
	e.linkSlab.Reserve(c.Links)
	e.resSlab.Reserve(c.Resources)
	e.pathSlab.Reserve(c.Paths)
	e.hopSlab.Reserve(c.Hops)
}

// tableShelf keeps the tables of finished engines for the next ones,
// as the carrier shelf keeps coroutines: an engine takes a set when it
// is made and shelves it, emptied, when Run ends, so a simulation after
// another grows none of them again. An Event holds no pointer, and the
// other tables are cleared before they are shelved, so a shelved set
// names nothing of any engine. The shelf never holds more sets than
// engines have held at once: a new one is made only when the shelf is
// empty. A mutex guards it, and nothing drops a set from it.
var tableShelf struct {
	sync.Mutex
	sets []tables
}

// takeTables returns the newest shelved set of tables, or an empty one.
func takeTables() tables {
	s := &tableShelf
	s.Lock()
	defer s.Unlock()
	n := len(s.sets)
	if n == 0 {
		return tables{}
	}
	t := s.sets[n-1]
	s.sets[n-1] = tables{}
	s.sets = s.sets[:n-1]
	return t
}

// shelveTables empties t and puts its arrays on the shelf, leaving t
// empty.
func shelveTables(t *tables) {
	if cap(t.queue.s) == 0 {
		return // it never ran an event, so it grew nothing
	}
	e := tables{
		queue: evQueue{s: t.queue.s[:0]},
		procs: t.procs.emptied(),
		calls: t.calls.emptied(),
		puts:  t.puts.emptied(),
	}
	*t = tables{}
	s := &tableShelf
	s.Lock()
	s.sets = append(s.sets, e)
	s.Unlock()
}
