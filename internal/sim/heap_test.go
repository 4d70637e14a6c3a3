package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestEventHeapOrder: whatever the heap does inside, evPop must yield
// exactly the evLess order. Timestamps are drawn from a handful of
// values so most comparisons fall through to pri, and pushes and pops
// interleave so sift-up and sift-down run at every depth. The
// reference is a plain slice scanned for its minimum.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 17, 64, 1000} {
		var h, ref []Event
		popMin := func() {
			m := 0
			for i := range ref {
				if evLess(ref[i], ref[m]) {
					m = i
				}
			}
			if got := evPop(&h); got != ref[m] {
				t.Fatalf("n=%d: popped %+v, minimum is %+v", n, got, ref[m])
			}
			ref = append(ref[:m], ref[m+1:]...)
		}
		for i := 0; i < n; i++ {
			ev := Event{At: Time(rng.Intn(4)), pri: rng.Uint64(), To: ActorID(i), A: rng.Int63(), Sig: rng.Uint64()}
			evPush(&h, ev)
			ref = append(ref, ev)
			if i%3 == 2 {
				popMin()
			}
		}
		for len(ref) > 0 {
			popMin()
		}
		if len(h) != 0 {
			t.Fatalf("n=%d: %d events left in the heap", n, len(h))
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
// one pop and one push of a later event per operation. 1024 is the
// depth of the flat modelled arms at 1024 ranks, 16384 that of the
// megascale sweep.
func BenchmarkShardedHeap(b *testing.B) {
	for _, depth := range []int{1024, 16384} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var h []Event
			for i := 0; i < depth; i++ {
				evPush(&h, Event{At: Time(rng.Intn(1000)), pri: uint64(i + 1)})
			}
			delays := make([]Time, 4096)
			for i := range delays {
				delays[i] = Time(rng.Intn(1000))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := evPop(&h)
				ev.At += delays[i%len(delays)]
				ev.pri = uint64(depth + i + 1)
				evPush(&h, ev)
			}
		})
	}
}
