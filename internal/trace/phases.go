package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gpuddt/internal/sim"
)

// PhaseStat aggregates every span of one name across all tracks.
type PhaseStat struct {
	Name  string
	Count int
	Bytes int64
	Total sim.Time
}

// Phases aggregates the recorded spans by name, sorted by descending
// total time (ties by name).
func Phases(r *sim.Recorder) []PhaseStat {
	agg := make(map[string]*PhaseStat)
	var order []string
	for _, t := range r.Tracks() {
		for i := range t.Spans {
			sp := &t.Spans[i]
			st, ok := agg[sp.Name]
			if !ok {
				st = &PhaseStat{Name: sp.Name}
				agg[sp.Name] = st
				order = append(order, sp.Name)
			}
			st.Count++
			st.Bytes += sp.Bytes
			st.Total += sp.Duration()
		}
	}
	out := make([]PhaseStat, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Transfer is the phase attribution of one received message: how much of
// its lifetime overlapped pack activity, wire occupancy, and unpack
// activity anywhere in the simulation. In a pipelined protocol the three
// overlap each other by design, so they need not sum to the duration;
// Idle is the portion covered by none of them.
type Transfer struct {
	Label      string // strategy or "eager"
	Bytes      int64
	Start, End sim.Time
	Pack       sim.Time
	Wire       sim.Time
	Unpack     sim.Time
	Idle       sim.Time
}

// Duration returns the message lifetime (match to delivery).
func (t *Transfer) Duration() sim.Time { return t.End - t.Start }

// phaseOf classifies a span into a pipeline phase, or "" for spans that
// either belong to no phase or would double-count one (e.g. "ib.send"
// wraps the link's own "xfer" occupancy; the host bus is charged inside
// CPU pack/unpack spans).
func phaseOf(trackName, spanName string) string {
	switch spanName {
	case "pack", "frag.pack":
		return "pack"
	case "unpack", "frag.consume", "unpack.drain":
		return "unpack"
	// The MVAPICH baseline realizes pack/unpack as staging memcpy2Ds:
	// device->host gathers to wire format, host->device scatters from it.
	case "cuda.memcpy2d.d2h":
		return "pack"
	case "cuda.memcpy2d.h2d":
		return "unpack"
	case "xfer", "hold":
		if strings.Contains(trackName, "hostbus") {
			return ""
		}
		return "wire"
	}
	return ""
}

// Transfers computes the per-message phase attribution: one entry per
// top-level "mpi.recv" span, in start order.
func Transfers(r *sim.Recorder) []Transfer {
	var out []Transfer
	busy := map[string][][2]sim.Time{}
	for _, t := range r.Tracks() {
		for i := range t.Spans {
			sp := &t.Spans[i]
			if sp.Name == "mpi.recv" && sp.Depth == 0 {
				out = append(out, Transfer{
					Label: sp.Detail,
					Bytes: sp.Bytes,
					Start: sp.Begin,
					End:   sp.End,
				})
			}
			if ph := phaseOf(t.Name, sp.Name); ph != "" && sp.End > sp.Begin {
				busy[ph] = append(busy[ph], [2]sim.Time{sp.Begin, sp.End})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	// Per-phase busy intervals of the whole run, merged so concurrent
	// same-phase spans (several links, several procs) do not count
	// twice, and the union of the three. Clipping a merged list to a
	// message's window covers what merging the clipped spans would.
	pack, wire, unpack := mergeIntervals(busy["pack"]), mergeIntervals(busy["wire"]), mergeIntervals(busy["unpack"])
	all := mergeIntervals(append(append(append([][2]sim.Time{}, pack...), wire...), unpack...))
	for ti := range out {
		tr := &out[ti]
		tr.Pack = clipped(pack, tr.Start, tr.End)
		tr.Wire = clipped(wire, tr.Start, tr.End)
		tr.Unpack = clipped(unpack, tr.Start, tr.End)
		tr.Idle = tr.Duration() - clipped(all, tr.Start, tr.End)
	}
	return out
}

// clipped returns the time a disjoint ascending interval list covers
// inside the window [lo, hi).
func clipped(iv [][2]sim.Time, lo, hi sim.Time) sim.Time {
	var total sim.Time
	for _, x := range iv[sort.Search(len(iv), func(i int) bool { return iv[i][1] > lo }):] {
		if x[0] >= hi {
			break
		}
		total += min(x[1], hi) - max(x[0], lo)
	}
	return total
}

// WritePhases prints the per-message phase attribution followed by the
// aggregate per-phase table and counters.
func WritePhases(w io.Writer, r *sim.Recorder) {
	trs := Transfers(r)
	if len(trs) > 0 {
		fmt.Fprintln(w, "per-message phase attribution (phases overlap when pipelined):")
		fmt.Fprintf(w, "  %-10s %12s %12s %12s %12s %12s %12s\n",
			"message", "bytes", "duration", "pack", "wire", "unpack", "idle")
		for i, tr := range trs {
			label := tr.Label
			if label == "" {
				label = "msg"
			}
			fmt.Fprintf(w, "  %-10s %12d %12v %12v %12v %12v %12v\n",
				fmt.Sprintf("#%d %s", i, label), tr.Bytes, tr.Duration(), tr.Pack, tr.Wire, tr.Unpack, tr.Idle)
		}
	}
	if ov := ComputeOverlap(r); ov.Compute > 0 && ov.Wire > 0 {
		fmt.Fprintf(w, "overlap: wire %v, compute %v, hidden %v (%.0f%% of wire time behind compute)\n",
			ov.Wire, ov.Compute, ov.Hidden, 100*ov.HiddenFrac())
	}
	fmt.Fprintln(w, "time per span name:")
	fmt.Fprintf(w, "  %-24s %8s %14s %12s\n", "span", "count", "bytes", "total")
	for _, st := range Phases(r) {
		fmt.Fprintf(w, "  %-24s %8d %14d %12v\n", st.Name, st.Count, st.Bytes, st.Total)
	}
	if names := r.CounterNames(); len(names) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range names {
			fmt.Fprintf(w, "  %-24s %12d\n", name, r.Counter(name))
		}
	}
}
