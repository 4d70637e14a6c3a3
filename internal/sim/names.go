package sim

import (
	"strconv"
	"strings"
	"sync"
)

// Names formats the names an owner gives its links, resources, processes
// and mailboxes — prefix followed by each part — into one string, and
// stores each name, a substring of it, in dst[i]. An owner naming many
// things then costs one allocation, not one per name:
//
//	var n [2]string
//	Names(n[:], "ib3", ".tx", ".rx") // n = ["ib3.tx" "ib3.rx"]
//
// dst must have room for every part.
func Names(dst []string, prefix string, parts ...string) {
	size := 0
	for _, part := range parts {
		size += len(prefix) + len(part)
	}
	var b strings.Builder
	b.Grow(size)
	for _, part := range parts {
		b.WriteString(prefix)
		b.WriteString(part)
	}
	s := b.String()
	for i, part := range parts {
		n := len(prefix) + len(part)
		dst[i], s = s[:n], s[n:]
	}
}

// NameSet is the names one kind of owner — a node, a GPU slot, a rank —
// gives its links, resources, processes and mailboxes. They are a pure
// function of the owner's ids (at most two): stems[0], the first id,
// stems[1], the second, and then each part. A set formats the names of
// one owner on the first call for it (with Names, so one string) into
// the process-wide name table, and every later world takes them from
// there, so building a world makes no name:
//
//	var slot = NewNameSet([]string{"node", ".gpu"}, ".tx", ".rx")
//	slot.Of(3, 1) // ["node3.gpu1.tx" "node3.gpu1.rx"]
//
// The table only grows, and holds strings alone: it names nothing of any
// world.
type NameSet struct {
	stems []string
	parts []string
}

// NewNameSet returns the set of names stems and parts describe.
func NewNameSet(stems []string, parts ...string) *NameSet {
	if len(stems) == 0 || len(stems) > 2 {
		panic("sim: a name set takes one or two ids")
	}
	return &NameSet{stems: stems, parts: parts}
}

// nameKey is a row of the name table: a set and an owner's ids.
type nameKey struct {
	set  *NameSet
	a, b int
}

// nameTable is the one process-wide table of names, by set and owner. A
// mutex guards it: worlds are built on many goroutines at once.
var nameTable struct {
	sync.Mutex
	rows map[nameKey][]string
}

// Of returns the names of the owner with the given ids, one per part, in
// order. The caller must not modify the slice.
func (s *NameSet) Of(ids ...int) []string {
	if len(ids) != len(s.stems) {
		panic("sim: name set " + s.stems[0] + " takes " + strconv.Itoa(len(s.stems)) + " ids")
	}
	k := nameKey{set: s, a: ids[0]}
	if len(ids) > 1 {
		k.b = ids[1]
	}
	t := &nameTable
	t.Lock()
	defer t.Unlock()
	if row, ok := t.rows[k]; ok {
		return row
	}
	prefix := s.stems[0] + strconv.Itoa(k.a)
	if len(ids) > 1 {
		prefix += s.stems[1] + strconv.Itoa(k.b)
	}
	row := make([]string, len(s.parts))
	Names(row, prefix, s.parts...)
	if t.rows == nil {
		t.rows = make(map[nameKey][]string)
	}
	t.rows[k] = row
	return row
}
