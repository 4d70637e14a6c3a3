package workload

import (
	"runtime"
	"runtime/debug"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

// TestCanonicalBuildCost pins what a strided type costs to build now
// that it is born canonical (datatype/canon.go): its constructors
// compose the six-integer form and never flatten. The transpose of a
// 2048 × 2048 matrix and its plan, a list of 4 Mi blocks when flattened,
// allocate at most 4 KiB; the twelve faces of a 3-D stencil's box of 16
// and their plans at most 96 objects (the flattening constructors made
// 300). And nothing a stencil job of app_stencil's size or a
// Transpose(512) ping-pong does ever asks a canonical type for its
// list: the memory profile, sampling every allocation, shows none made
// by the list's builder.
func TestCanonicalBuildCost(t *testing.T) {
	var ms runtime.MemStats
	gc := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	tr := shapes.Transpose(2048)
	tr.Plan()
	runtime.ReadMemStats(&ms)
	debug.SetGCPercent(gc)
	if got := ms.TotalAlloc - before; got > 4<<10 || tr.Plan().Canonical() == nil {
		t.Errorf("Transpose(2048) and its plan allocated %d B (canonical %v), want at most 4 KiB", got, tr.Plan().Canonical())
	}

	padded := []int{18, 18, 18}
	faces := testing.AllocsPerRun(10, func() {
		for d := range padded {
			for _, idx := range []int{0, 1, padded[d] - 2, padded[d] - 1} {
				shapes.HaloFace(padded, d, idx).Plan()
			}
		}
	})
	if faces > 96 {
		t.Errorf("the 12 faces of a box of 16 and their plans made %.0f objects, want at most 96", faces)
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	built := listsBuilt()
	spec := cluster.Scale(16, 4, 4, 2)
	ranks := make([]int, spec.Size())
	for i := range ranks {
		ranks[i] = i
	}
	st := Stencil{Procs: []int{4, 4, 4}, Box: []int{16, 16, 16}, Iters: 6}
	if _, _, err := Run(spec.Config(), []JobSpec{{Name: "stencil", W: st, Seed: 1, Ranks: ranks}}, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	pingPongTranspose(t, 512)
	if got := listsBuilt() - built; got != 0 {
		t.Errorf("a stencil job and a transpose ping-pong built %d canonical types' lists, want none", got)
	}
}

// pingPongTranspose sends Transpose(n) between two GPUs and back, as
// p2p_bw's TR.2gpu point does, and checks the image that comes back.
func pingPongTranspose(t *testing.T, n int) {
	dt := shapes.Transpose(n)
	w := mpi.NewWorld(cluster.TwoGPU().Config())
	defer w.Close()
	want := make([]byte, dt.Span(1))
	for i := range want {
		want[i] = byte(i * 7)
	}
	var back []byte
	w.Run(func(m *mpi.Rank) {
		buf := m.Malloc(dt.Span(1))
		peer := 1 - m.Rank()
		if m.Rank() == 0 {
			copy(buf.Bytes(), want)
			m.Send(buf, dt, 1, peer, 0)
			clear(buf.Bytes())
			m.Recv(buf, dt, 1, peer, 1)
			back = datatype.PackImage(dt, 1, buf.Bytes())
			return
		}
		m.Recv(buf, dt, 1, peer, 0)
		m.Send(buf, dt, 1, peer, 1)
	})
	if string(back) != string(datatype.PackImage(dt, 1, want)) {
		t.Fatalf("Transpose(%d) came back changed", n)
	}
}

// listsBuilt returns how many objects the memory profile has seen
// allocated by the builder of a canonical type's list.
func listsBuilt() int64 {
	for range 3 { // the profile publishes a cycle's allocations two collections late
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "gpuddt/internal/datatype.(*CanonVec).blocks" {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
