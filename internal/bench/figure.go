// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: kernel-level studies
// (Figs. 6-8), MPI ping-pong studies (Figs. 9-12), the resource studies
// of §5.3 and §5.4, and the design ablations called out in DESIGN.md.
//
// Each experiment returns a Figure — named series over a shared x axis —
// that the cmd/ddtbench tool prints; bench_test.go wraps the same
// runners as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"sort"
)

// Point is one measurement.
type Point struct {
	X, Y float64
}

// Series is one named curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a measurement.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is the reproduction of one paper figure.
type Figure struct {
	ID     string // e.g. "fig6"
	Title  string
	XLabel string
	YLabel string
	Note   string // paper-vs-measured context for EXPERIMENTS.md
	Series []*Series
}

// NewSeries registers and returns a new series.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// number is what an x axis is swept over.
type number interface{ ~int | ~int64 | ~float64 }

// A cell is one series of a figure: its name and its value at x.
type cell[X number] struct {
	name string
	at   func(x X) float64
}

// sweep measures a figure as a grid: every (x, cell) point is one task
// of pmap, x-major, and each cell becomes a series of f — series in the
// order the cells are given, points in the order of xs.
func sweep[X number](f *Figure, xs []X, cells ...cell[X]) *Figure {
	ys := pmap(len(xs)*len(cells), func(k int) float64 {
		return cells[k%len(cells)].at(xs[k/len(cells)])
	})
	for ci, c := range cells {
		s := f.NewSeries(c.name)
		for xi, x := range xs {
			s.Add(float64(x), ys[xi*len(cells)+ci])
		}
	}
	return f
}

// sortedXs returns the union of the series' x values, ascending.
func (f *Figure) sortedXs() []float64 {
	set := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.X] = true
		}
	}
	xs := make([]float64, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

// Print writes the figure as an aligned table: one row per x value, one
// column per series (missing points print as "-").
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	if f.Note != "" {
		fmt.Fprintf(w, "# %s\n", f.Note)
	}
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %16s", s.Name)
	}
	fmt.Fprintf(w, "   [%s]\n", f.YLabel)
	for _, x := range f.sortedXs() {
		fmt.Fprintf(w, "%-14.6g", x)
		for _, s := range f.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(w, " %16.4f", y)
			} else {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// PrintCSV writes the figure as CSV: header row of series names, one
// row per x value (empty cells for missing points).
func (f *Figure) PrintCSV(w io.Writer) {
	fmt.Fprintf(w, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, ",%s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range f.sortedXs() {
		fmt.Fprintf(w, "%g", x)
		for _, s := range f.Series {
			if y, ok := lookup(s, x); ok {
				fmt.Fprintf(w, ",%g", y)
			} else {
				fmt.Fprint(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
