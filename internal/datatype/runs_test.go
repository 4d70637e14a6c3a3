package datatype

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// runLayouts are the layouts the run-copying Pack/Unpack must agree on
// with the piece walk: the dense ones it moves as one run, ones whose
// pieces merge across element boundaries, and ones where nothing merges.
type runLayout struct {
	name  string
	dt    *Datatype
	count int
	dense bool
}

var runLayouts = []runLayout{
	{"bytes", Byte, 4099, true},
	{"contig-int64", Contiguous(5, Int64), 37, true},
	{"one-block-once", Resized(Contiguous(5, Int64), 0, 64), 1, true},
	{"one-block-gapped", Resized(Contiguous(5, Int64), 0, 64), 6, false},
	{"vector-resized-gap", Resized(Vector(3, 2, 4, Float64), 0, 128), 5, false},
	{"submatrix", Vector(7, 5, 9, Float64), 3, false},
	{"triangular", lowerTriangular(9), 3, false},
	// Blocks at 0, 16, 40, 56 of 8 bytes, extent 64: a two-level
	// canonical form whose last block touches the next element's first.
	{"canon2-adjacent", Hvector(2, 1, 40, Vector(2, 1, 2, Int64)), 4, false},
	{"transpose", transposeLike(6), 2, false},
}

// packPieces and unpackPieces are Pack and Unpack as they were: one copy
// per piece Advance emits. They are the reference of the differential.
func packPieces(c *Converter, dst, src []byte) int64 {
	start := c.packed
	return c.Advance(int64(len(dst)), func(memOff, packOff, n int64) {
		copy(dst[packOff-start:], src[memOff:memOff+n])
	})
}

func unpackPieces(c *Converter, dst, src []byte) int64 {
	start := c.packed
	return c.Advance(int64(len(src)), func(memOff, packOff, n int64) {
		copy(dst[memOff:memOff+n], src[packOff-start:packOff-start+n])
	})
}

type emitted struct{ mem, pack, n int64 }

func collect(c *Converter, max int64) (out []emitted, n int64) {
	n = c.Advance(max, func(m, p, l int64) { out = append(out, emitted{m, p, l}) })
	return out, n
}

// TestPackUnpackRunsMatchPieces drives a converter through random Pack,
// Unpack, Advance and SeekTo steps beside a twin that copies piece by
// piece. After every step the two must have moved the same bytes,
// returned the same count, stand at the same position (Packed and the
// block cursor), and emit the same pieces next — so stopping anywhere,
// mid-block included, and carrying on with any of the four is the same
// walk.
func TestPackUnpackRunsMatchPieces(t *testing.T) {
	for _, tl := range runLayouts {
		t.Run(tl.name, func(t *testing.T) {
			if _, _, ok := tl.dt.Dense(tl.count); ok != tl.dense {
				t.Fatalf("Dense = %v, want %v", ok, tl.dense)
			}
			span := tl.dt.Span(tl.count)
			data := make([]byte, span)
			fillSeq(data)
			rng := rand.New(rand.NewSource(int64(len(tl.name)) + span))
			got, want := NewConverter(tl.dt, tl.count), NewConverter(tl.dt, tl.count)
			total := got.Total()
			gotImg, wantImg := make([]byte, span), make([]byte, span)
			stream := make([]byte, total) // packed bytes fed to Unpack
			rng.Read(stream)

			// size draws a step: often tiny (stops mid-block), sometimes
			// several elements, sometimes past the end.
			size := func() int64 {
				switch rng.Intn(4) {
				case 0:
					return int64(rng.Intn(4))
				case 1:
					return int64(rng.Intn(int(tl.dt.Size()) + 2))
				case 2:
					return int64(rng.Intn(int(3*tl.dt.Size()) + 2))
				default:
					return int64(rng.Intn(int(total) + 8))
				}
			}
			for step := 0; step < 4000; step++ {
				if got.Done() || rng.Intn(8) == 0 {
					pos := int64(rng.Intn(int(total) + 1))
					got.SeekTo(pos)
					want.SeekTo(pos)
				}
				k := size()
				var a, b int64
				op := rng.Intn(3)
				switch op {
				case 0:
					ga, wa := make([]byte, k), make([]byte, k)
					a, b = got.Pack(ga, data), packPieces(want, wa, data)
					if !bytes.Equal(ga, wa) {
						t.Fatalf("step %d: Pack(%d) at %d moved different bytes", step, k, want.Packed()-b)
					}
				case 1:
					at := got.Packed()
					src := stream[at:min(at+k, total)]
					if rng.Intn(2) == 0 { // a source longer than what is left
						src = append(append([]byte(nil), src...), 0xee, 0xee, 0xee)
					}
					a, b = got.Unpack(gotImg, src), unpackPieces(want, wantImg, src)
					if !bytes.Equal(gotImg, wantImg) {
						t.Fatalf("step %d: Unpack(%d) at %d left different images", step, len(src), at)
					}
				case 2:
					var gp, wp []emitted
					gp, a = collect(got, k)
					wp, b = collect(want, k)
					if fmt.Sprint(gp) != fmt.Sprint(wp) {
						t.Fatalf("step %d: Advance(%d) emitted\n%v\nwant\n%v", step, k, gp, wp)
					}
				}
				if a != b || got.Packed() != want.Packed() {
					t.Fatalf("step %d op %d size %d: returned %d, Packed %d; pieces returned %d, Packed %d",
						step, op, k, a, got.Packed(), b, want.Packed())
				}
				if *got != *want {
					t.Fatalf("step %d op %d: cursor rep %d block %d+%d, pieces leave rep %d block %d+%d",
						step, op, got.rep, got.bi, got.bo, want.rep, want.bi, want.bo)
				}
				// What comes next, without disturbing either walk.
				gc, wc := *got, *want
				gp, _ := collect(&gc, 2*tl.dt.Size()+3)
				wp, _ := collect(&wc, 2*tl.dt.Size()+3)
				if fmt.Sprint(gp) != fmt.Sprint(wp) {
					t.Fatalf("step %d op %d: next pieces\n%v\nwant\n%v", step, op, gp, wp)
				}
			}
		})
	}
}

// TestDenseIsOneDefinition: Datatype.Dense, Datatype.Vector's one-block answer
// and a single-piece walk are the same predicate.
func TestDenseIsOneDefinition(t *testing.T) {
	for _, tl := range append(runLayouts,
		runLayout{"zero-count", Byte, 0, false},
		runLayout{"empty-type", Contiguous(0, Float64), 3, false},
		runLayout{"offset-block", Indexed([]int{4}, []int{2}, Int32), 1, true},
	) {
		off, n, ok := tl.dt.Dense(tl.count)
		if ok != tl.dense {
			t.Errorf("%s: Dense = %v, want %v", tl.name, ok, tl.dense)
			continue
		}
		v, isVec := tl.dt.Vector(tl.count)
		if one := isVec && v.Inner == 1; one != ok {
			t.Errorf("%s: Vector = %+v, Dense = %v", tl.name, v, ok)
		}
		c := NewConverter(tl.dt, tl.count)
		pieces, _ := collect(c, c.Total())
		var merged []emitted
		for _, p := range pieces {
			if m := len(merged); m > 0 && merged[m-1].mem+merged[m-1].n == p.mem {
				merged[m-1].n += p.n
				continue
			}
			merged = append(merged, p)
		}
		if ok {
			if v.Off != off || v.BlockLen != n || len(merged) != 1 || merged[0] != (emitted{off, 0, n}) {
				t.Errorf("%s: Dense = (%d, %d), view %+v, walk %v", tl.name, off, n, v, merged)
			}
		} else if len(merged) == 1 && tl.count > 0 {
			t.Errorf("%s: the walk is one run %v but Dense says no", tl.name, merged)
		}
	}
}

// TestSignaturesByRun is the truth table of signature matching, prefix
// cases included, then checks that counts do not set the cost: folded
// and periodic comparisons return without walking, and nothing
// allocates.
func TestSignaturesByRun(t *testing.T) {
	vec := Vector(4, 2, 5, Float64) // 8 doubles, Fig. 11's vector
	contig := Contiguous(8, Float64)
	pair := Struct([]int{1, 1}, []int64{0, 8}, []*Datatype{Int64, Float64})
	pairs16 := Contiguous(16, pair)
	// int32, double, double, int32: an element's last run and the next
	// element's first are the same primitive.
	wrap := Struct([]int{1, 2, 1}, []int64{0, 8, 24}, []*Datatype{Int32, Float64, Int32})
	empty := Contiguous(0, Float64)

	cases := []struct {
		name          string
		a             *Datatype
		na            int
		b             *Datatype
		nb            int
		match, prefix bool
	}{
		{"identical", vec, 3, vec, 3, true, true},
		{"vector as contiguous", vec, 1, contig, 1, true, true},
		{"vector as contiguous, scaled", vec, 3, contig, 3, true, true},
		{"vector as doubles", vec, 5, Float64, 40, true, true},
		{"shorter total", vec, 1, contig, 2, false, true},
		{"longer total", vec, 2, contig, 1, false, false},
		{"other primitive", vec, 1, Contiguous(8, Int64), 1, false, false},
		{"run boundaries differ", Contiguous(2, Float64), 4, Contiguous(4, Float64), 2, true, true},
		{"both empty", vec, 0, contig, 0, true, true},
		{"empty type", empty, 5, vec, 0, true, true},
		{"empty against data", empty, 5, vec, 1, false, true},
		{"data against empty", vec, 1, empty, 5, false, false},
		{"int64+double vs doubles", pair, 1, Contiguous(2, Float64), 1, false, false},
		{"multi-run, grouped", pair, 32, pairs16, 2, true, true},
		{"multi-run, same type", pair, 5, pair, 7, false, true},
		{"multi-run, same type, longer", pair, 7, pair, 5, false, false},
		{"multi-run prefix ends mid-element", pair, 17, pairs16, 2, false, true},
		{"multi-run, remainder mismatches", pair, 33, pairs16, 2, false, false},
		{"runs merge across elements", wrap, 3, Struct([]int{1, 2, 2, 2, 2, 2, 1}, []int64{0, 8, 24, 32, 48, 56, 72},
			[]*Datatype{Int32, Float64, Int32, Float64, Int32, Float64, Int32}), 1, true, true},
		{"prefix stops inside a run", Float64, 3, vec, 1, false, true},
		{"prefix of another primitive", Int64, 1, vec, 1, false, false},
	}
	for _, c := range cases {
		if got := SignaturesMatch(c.a, c.na, c.b, c.nb); got != c.match {
			t.Errorf("%s: SignaturesMatch = %v, want %v", c.name, got, c.match)
		}
		if got := SignaturePrefix(c.a, c.na, c.b, c.nb); got != c.prefix {
			t.Errorf("%s: SignaturePrefix = %v, want %v", c.name, got, c.prefix)
		}
		// Matching is symmetric.
		if got := SignaturesMatch(c.b, c.nb, c.a, c.na); got != c.match {
			t.Errorf("%s: SignaturesMatch reversed = %v, want %v", c.name, got, c.match)
		}
	}

	// A walk by repetition takes 2^30 steps for each of these (seconds);
	// by run it is a handful whatever the counts.
	rows := Contiguous(1<<15, Byte)
	huge := []struct {
		name   string
		a      *Datatype
		na     int
		b      *Datatype
		nb     int
		prefix bool
		want   bool
	}{
		{"bytes vs rows of bytes", Byte, 1 << 30, rows, 1 << 15, false, true},
		{"bytes vs one row fewer", Byte, 1 << 30, rows, 1<<15 - 1, false, false},
		{"bytes prefix of more rows", Byte, 1 << 30, rows, 1<<15 + 1, true, true},
		{"periodic multi-run", pair, 1 << 30, pairs16, 1 << 26, false, true},
		{"periodic multi-run, one short", pair, 1<<30 - 1, pairs16, 1 << 26, false, false},
		{"periodic multi-run, short is a prefix", pair, 1<<30 - 1, pairs16, 1 << 26, true, true},
	}
	for _, c := range huge {
		start := time.Now()
		got := sigCompare(c.a, c.na, c.b, c.nb, c.prefix)
		if el := time.Since(start); el > 250*time.Millisecond {
			t.Errorf("%s: took %v: the comparison walked the repetitions", c.name, el)
		}
		if got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		SignaturesMatch(Byte, 1<<30, rows, 1<<15)
		SignaturesMatch(vec, 3, contig, 3)
		SignaturePrefix(pair, 17, pairs16, 2)
		SignaturesMatch(pair, 1<<30, pairs16, 1<<26)
	})
	if allocs != 0 {
		t.Errorf("signature comparison allocates %v times per run, want 0", allocs)
	}
}

// TestSignaturesByRunMatchExpansion compares the run arithmetic with the
// definition: write both primitive sequences out in full, then match is
// equality and prefix is prefix. Every pairing of a small family of
// single-run, multi-run and boundary-merging types at small counts.
func TestSignaturesByRunMatchExpansion(t *testing.T) {
	pair := Struct([]int{1, 1}, []int64{0, 8}, []*Datatype{Int64, Float64})
	types := []*Datatype{
		Float64, Int64, Contiguous(3, Float64), Vector(2, 2, 3, Float64), Contiguous(0, Int32),
		pair, Contiguous(2, pair), Contiguous(3, pair),
		Struct([]int{1, 2}, []int64{0, 8}, []*Datatype{Int64, Float64}),
		Struct([]int{2, 1, 1}, []int64{0, 16, 24}, []*Datatype{Float64, Int64, Float64}),
		Struct([]int{1, 1, 1}, []int64{0, 8, 16}, []*Datatype{Float64, Int64, Float64}),
	}
	expand := func(d *Datatype, count int) []Primitive {
		var out []Primitive
		for r := 0; r < count; r++ {
			for _, run := range d.Signature() {
				for i := int64(0); i < run.Count; i++ {
					out = append(out, run.Prim)
				}
			}
		}
		return out
	}
	for _, da := range types {
		for _, db := range types {
			for na := 0; na <= 7; na++ {
				for nb := 0; nb <= 7; nb++ {
					a, b := expand(da, na), expand(db, nb)
					prefix := len(a) <= len(b)
					for i := 0; prefix && i < len(a); i++ {
						prefix = a[i] == b[i]
					}
					match := prefix && len(a) == len(b)
					if got := SignaturesMatch(da, na, db, nb); got != match {
						t.Errorf("SignaturesMatch(%s x%d, %s x%d) = %v, want %v", da.Name(), na, db.Name(), nb, got, match)
					}
					if got := SignaturePrefix(da, na, db, nb); got != prefix {
						t.Errorf("SignaturePrefix(%s x%d, %s x%d) = %v, want %v", da.Name(), na, db.Name(), nb, got, prefix)
					}
				}
			}
		}
	}
}

// BenchmarkPackDense is the staging copy of a hierarchical collective:
// (Byte, 64 Ki) through the CPU converter.
func BenchmarkPackDense(b *testing.B) {
	src, dst := make([]byte, 1<<16), make([]byte, 1<<16)
	c := NewConverter(Byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Rewind()
		c.Unpack(dst, src)
	}
}
