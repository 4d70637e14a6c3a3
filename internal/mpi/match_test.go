package mpi

import (
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/sim"
)

// TestMatchedEntriesLeaveNoPointer: removing a matched entry from the
// unexpected-arrival list or the posted-receive list leaves no pointer in
// the list's backing array, so a consumed *rtsMsg (its whole sender
// record) or a completed receive (its whole record, process included) is
// not kept reachable by a stale slot. Both lists are filled two deep and
// drained from the front, the order that leaves the most behind.
func TestMatchedEntriesLeaveNoPointer(t *testing.T) {
	dt := datatype.Contiguous(64, datatype.Byte)
	var unexp, posted, capUnexp, capPosted int
	w := NewWorld(twoRanksSameGPU())
	w.Run(func(m *Rank) {
		buf := m.MallocHost(64)
		if m.Rank() == 0 {
			m.Send(buf, dt, 1, 1, 0) // unexpected at rank 1
			m.Send(buf, dt, 1, 1, 1)
			m.Proc().Sleep(100 * sim.Microsecond)
			m.Send(buf, dt, 1, 1, 2) // posted for at rank 1
			m.Send(buf, dt, 1, 1, 3)
			return
		}
		m.Proc().Sleep(50 * sim.Microsecond)
		if len(m.unexp) != 2 {
			t.Errorf("%d unexpected arrivals before the receives, want 2", len(m.unexp))
		}
		m.Recv(buf, dt, 1, 0, 0)
		m.Recv(buf, dt, 1, 0, 1)
		unexp, capUnexp = pointersIn(m.unexp[:cap(m.unexp)]), cap(m.unexp)
		m.WaitAll(m.Irecv(buf, dt, 1, 0, 2), m.Irecv(buf, dt, 1, 0, 3))
		posted, capPosted = pointersIn(m.posted[:cap(m.posted)]), cap(m.posted)
	})
	w.Close()
	if capUnexp < 2 || capPosted < 2 {
		t.Fatalf("backing arrays of %d and %d, want both lists to have been two deep", capUnexp, capPosted)
	}
	if unexp != 0 || posted != 0 {
		t.Errorf("after matching, %d of %d unexpected-list slots and %d of %d posted-list slots still hold a pointer, want none",
			unexp, capUnexp, posted, capPosted)
	}
}

// pointersIn counts the non-nil pointers in s.
func pointersIn[T any](s []*T) int {
	n := 0
	for _, p := range s {
		if p != nil {
			n++
		}
	}
	return n
}
