package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gpuddt/internal/sim"
)

// transfersByScan is Transfers as it was first written: for every
// message, rescan every span of every track, clip it to the message's
// window and merge what is left. Quadratic, and the reference the
// merged-once implementation must equal.
func transfersByScan(r *sim.Recorder) []Transfer {
	var out []Transfer
	for _, t := range r.Tracks() {
		for i := range t.Spans {
			sp := &t.Spans[i]
			if sp.Name == "mpi.recv" && sp.Depth == 0 {
				out = append(out, Transfer{Label: sp.Detail, Bytes: sp.Bytes, Start: sp.Begin, End: sp.End})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	for ti := range out {
		tr := &out[ti]
		busy := map[string][][2]sim.Time{}
		for _, tk := range r.Tracks() {
			for i := range tk.Spans {
				sp := &tk.Spans[i]
				ph := phaseOf(tk.Name, sp.Name)
				if ph == "" {
					continue
				}
				b, e := max(sp.Begin, tr.Start), min(sp.End, tr.End)
				if e > b {
					busy[ph] = append(busy[ph], [2]sim.Time{b, e})
				}
			}
		}
		cover := func(iv [][2]sim.Time) sim.Time { return sumIntervals(mergeIntervals(iv)) }
		all := append(append(append([][2]sim.Time{}, busy["pack"]...), busy["wire"]...), busy["unpack"]...)
		tr.Pack, tr.Wire, tr.Unpack = cover(busy["pack"]), cover(busy["wire"]), cover(busy["unpack"])
		tr.Idle = tr.Duration() - cover(all)
	}
	return out
}

// TestTransfersMatchPerMessageScan compares Transfers with the scan on
// random recordings: several processes (one a host bus, whose xfer
// spans are no phase), spans of every phase name, nested mpi.recv
// (only the outer one is a message), zero-length spans, and phase spans
// that begin before a message's window or end after it.
func TestTransfersMatchPerMessageScan(t *testing.T) {
	names := []string{"mpi.recv", "pack", "frag.pack", "unpack", "frag.consume", "unpack.drain",
		"cuda.memcpy2d.d2h", "cuda.memcpy2d.h2d", "xfer", "hold", "ib.send"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		rec := sim.NewRecorder(e)
		for _, track := range []string{"rank0", "rank1", "rank2", "link.ib.0", "node0.hostbus"} {
			steps := 20 + rng.Intn(40)
			e.Spawn(track, func(p *sim.Proc) {
				var open []sim.SpanHandle
				for i := 0; i < steps; i++ {
					switch k := rng.Intn(4); {
					case k == 0 && len(open) > 0:
						open[len(open)-1].End()
						open = open[:len(open)-1]
					case k == 1 && len(open) < 3:
						open = append(open, p.BeginBytes(names[rng.Intn(len(names))], int64(i)))
					case k == 2:
						p.Sleep(sim.Time(rng.Intn(30)))
					default: // zero-length
						p.Begin(names[rng.Intn(len(names))]).End()
					}
				}
				for len(open) > 0 {
					open[len(open)-1].End()
					open = open[:len(open)-1]
				}
			})
		}
		e.Run()
		if err := rec.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, want := Transfers(rec), transfersByScan(rec)
		if len(want) == 0 {
			t.Fatalf("seed %d: recording has no message", seed)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: Transfers differs from the per-message scan\n got %v\nwant %v", seed, got, want)
		}
	}
}
