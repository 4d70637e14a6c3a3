package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestEventHeapOrder: whatever the queue does inside, it must yield
// exactly the evLess order. Timestamps are drawn from a handful of
// values so most comparisons fall through to pri, and pushes, pops and
// holds interleave so sift-up and sift-down run at every depth. A hold
// is what the engines do: peek the minimum, push zero to three events
// while the root is open — half of them at the running event's own
// instant, with a pri that may fall below or above what is queued
// there — then settle. The reference is a plain slice scanned for its
// minimum, in which the running event stays until the first push
// replaces it or settle removes it, so Len must equal its length at
// every step.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 17, 64, 1000} {
		var h evQueue
		var ref []Event
		check := func(step string) {
			t.Helper()
			if h.Len() != len(ref) {
				t.Fatalf("n=%d: Len %d after %s, reference holds %d", n, h.Len(), step, len(ref))
			}
		}
		random := func() Event {
			return Event{At: Time(rng.Intn(4)), pri: rng.Uint64(), To: ActorID(rng.Int31()), A: rng.Int63(), Sig: rng.Uint64()}
		}
		hold := func(pushes int) {
			t.Helper()
			m := 0
			for i := range ref {
				if evLess(ref[i], ref[m]) {
					m = i
				}
			}
			run := h.peek()
			if run != ref[m] {
				t.Fatalf("n=%d: peeked %+v, minimum is %+v", n, run, ref[m])
			}
			check("peek")
			for k := 0; k < pushes; k++ {
				ev := random()
				if rng.Intn(2) == 0 {
					ev.At = run.At
				}
				h.push(ev)
				if k == 0 {
					ref[m] = ev
				} else {
					ref = append(ref, ev)
				}
				check("a push into the hold")
			}
			h.settle()
			if pushes == 0 {
				ref = append(ref[:m], ref[m+1:]...)
			}
			check("settle")
		}
		for i := 0; i < n; i++ {
			ev := random()
			h.push(ev)
			ref = append(ref, ev)
			check("push")
			if i%3 == 2 {
				hold(rng.Intn(4))
			}
		}
		for i := 0; i < 2*n && len(ref) > 0; i++ {
			hold(rng.Intn(4))
		}
		for len(ref) > 0 {
			hold(0)
		}
		if h.open {
			t.Fatalf("n=%d: drained queue left its root open", n)
		}
	}
}

// TestEvLessBitIsEvLess: the branch-free comparison evPop selects
// children with is the same order as evLess, including equal
// timestamps, equal events, negative timestamps and pri above 1<<63.
func TestEvLessBitIsEvLess(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ats := []Time{-timeMax, -1, 0, 1, 2, timeMax}
	pris := []uint64{0, 1, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 20000; i++ {
		a := Event{At: ats[rng.Intn(len(ats))], pri: pris[rng.Intn(len(pris))]}
		b := Event{At: ats[rng.Intn(len(ats))], pri: pris[rng.Intn(len(pris))]}
		if i%2 == 0 {
			a.At, b.At = Time(rng.Int63()), Time(rng.Int63())
			a.pri, b.pri = rng.Uint64(), rng.Uint64()
		}
		if got, want := evLessBit(&a, &b) == 1, evLess(a, b); got != want {
			t.Fatalf("evLessBit(%+v, %+v) = %v, evLess = %v", a, b, got, want)
		}
	}
}

// BenchmarkShardedHeap is the hold model: a heap kept at a fixed depth,
// the minimum answered by one push of a later event per operation, the
// way the engines do it (peek, then push into the open root). 16 and 64
// are depths of the real engine's queue, 1024 that of the flat modelled
// arms at 1024 ranks, 16384 that of the megascale sweep.
func BenchmarkShardedHeap(b *testing.B) {
	for _, depth := range []int{16, 64, 1024, 16384} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var h evQueue
			for i := 0; i < depth; i++ {
				h.push(Event{At: Time(rng.Intn(1000)), pri: uint64(i + 1)})
			}
			delays := make([]Time, 4096)
			for i := range delays {
				delays[i] = Time(rng.Intn(1000))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := h.peek()
				ev.At += delays[i%len(delays)]
				ev.pri = uint64(depth + i + 1)
				h.push(ev)
			}
		})
	}
}
