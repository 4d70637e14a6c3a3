package gpu

import (
	"bytes"
	"math/rand"
	"testing"

	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// ceilWarp and rawBytesRef are the cost model as it was written before
// Device.cost: a division per rounding and per alignment test, and a
// second walk (Kernel.Bytes) for the useful bytes. They are the
// reference of TestKernelCostMatchesReference.
func ceilWarp(n, warp int64) int64 {
	return (n + warp - 1) / warp * warp
}

func rawBytesRef(d *Device, k *Kernel) int64 {
	warp := d.p.WarpBytes
	var raw int64
	for _, u := range k.Units {
		n := int64(u.Len)
		raw += n + ceilWarp(n, warp)
		if k.Kind == DEVKernel {
			if (k.Src.Addr()+u.SrcOff)%warp != 0 || (k.Dst.Addr()+u.DstOff)%warp != 0 {
				raw += d.p.MisalignPenaltyRaw
			}
			if u.Partial {
				raw += d.p.PartialPenaltyRaw
			}
		}
	}
	return raw
}

// runRef is the copier Kernel.run replaced: two sub-buffers and a
// mem.Copy per unit. It is the reference of
// TestKernelRunMatchesUnitCopier.
func runRef(k *Kernel) {
	for _, u := range k.Units {
		mem.Copy(k.Dst.Slice(u.DstOff, int64(u.Len)), k.Src.Slice(u.SrcOff, int64(u.Len)))
	}
}

// expand is k with every run written out as its single copies, the form
// the references take.
func expand(k *Kernel) *Kernel {
	x := *k
	x.Units = nil
	for _, u := range k.Units {
		ss, ds := k.steps(&u)
		for j := int64(0); j <= int64(u.More); j++ {
			x.Units = append(x.Units, Unit{SrcOff: u.SrcOff + j*ss, DstOff: u.DstOff + j*ds, Len: u.Len, Partial: u.Partial})
		}
	}
	return &x
}

// runStrides are the scattered-side steps the run tests draw from:
// multiples of WarpBytes (256) and not, and backwards.
var runStrides = []int32{0, 8, 24, 100, 128, 256, 264, 512, 1000, 4096, 4104, -8, -256, -264}

// TestKernelCostMatchesReference prices random kernels of single units
// and of runs, packing and unpacking, at every residue of the warp mask
// on the source side, against the per-copy reference over the runs
// written out.
func TestKernelCostMatchesReference(t *testing.T) {
	_, d := newDev(t)
	rng := rand.New(rand.NewSource(18))
	lens := []int32{0, 1, 7, 8, 9, 255, 256, 257, 1000, 1024, 4096, 8192}
	space := d.Mem().Alloc(1<<20, 256)
	for base := int64(0); base < 256; base++ {
		src := space.Slice(base, 256<<10)
		dst := space.Slice(512<<10+(base*7)%256, 256<<10)
		for _, kind := range []KernelKind{VectorKernel, DEVKernel} {
			for _, runs := range []bool{false, true} {
				k := &Kernel{Kind: kind, Src: src, Dst: dst, Unpack: rng.Intn(2) == 0}
				for i := rng.Intn(40); i >= 0; i-- {
					u := Unit{
						SrcOff:  rng.Int63n(128 << 10),
						DstOff:  rng.Int63n(128 << 10),
						Len:     lens[rng.Intn(len(lens))],
						Partial: rng.Intn(2) == 0,
					}
					if rng.Intn(3) == 0 { // aligned units must occur too
						u.SrcOff = (u.SrcOff + base) &^ 255
						u.DstOff = u.SrcOff
					}
					if runs {
						u.More = int32(rng.Intn(600))
						u.Stride = runStrides[rng.Intn(len(runStrides))]
						u.SrcOff += 64 << 10 // room for backward strides
						u.DstOff += 64 << 10
					}
					k.Units = append(k.Units, u)
				}
				useful, raw := d.cost(k)
				x := expand(k)
				if want := x.Bytes(); useful != want || k.Bytes() != want {
					t.Fatalf("base %d %v runs=%v: useful = %d, Bytes = %d, reference %d", base, kind, runs, useful, k.Bytes(), want)
				}
				if want := rawBytesRef(d, x); raw != want {
					t.Fatalf("base %d %v runs=%v: raw = %d, reference %d", base, kind, runs, raw, want)
				}
			}
		}
	}
}

func TestKernelRunMatchesUnitCopier(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	lens := []int32{8, 1024, 8192}
	for l := int32(0); l <= 17; l++ {
		lens = append(lens, l)
	}
	const window = 64 << 10
	// Two spaces with the same contents: the reference runs in one, the
	// kernel in the other. In the overlapping case source and destination
	// windows share most of their bytes.
	for _, overlap := range []bool{false, true} {
		spaces := [2]*mem.Space{
			mem.NewSpace("ref", mem.Device, 1<<20),
			mem.NewSpace("got", mem.Device, 1<<20),
		}
		var ks [2]*Kernel
		var alls [2]mem.Buffer
		for i, sp := range spaces {
			all := sp.Alloc(4*window, 256)
			alls[i] = all
			mem.FillPattern(all, 5)
			dstOff := int64(2 * window)
			if overlap {
				dstOff = 1000
			}
			ks[i] = &Kernel{Kind: DEVKernel, Src: all.Slice(64, window), Dst: all.Slice(64+dstOff, window)}
		}
		for i := 0; i < 400; i++ {
			n := lens[rng.Intn(len(lens))]
			u := Unit{SrcOff: rng.Int63n(window - int64(n) + 1), DstOff: rng.Int63n(window - int64(n) + 1), Len: n}
			if overlap && i%4 == 0 { // a unit that overlaps itself
				u.DstOff = max(u.SrcOff-int64(n)/2, 0)
			}
			ks[0].Units = append(ks[0].Units, u)
			ks[1].Units = append(ks[1].Units, u)
		}
		// Runs, packing and unpacking: each stays inside the windows on
		// both sides, whichever way it steps.
		for _, unpack := range []bool{false, true} {
			for i := 0; i < 200; i++ {
				n := lens[rng.Intn(len(lens))]
				u := Unit{Len: n, More: int32(rng.Intn(8)), Stride: runStrides[rng.Intn(len(runStrides))]}
				ss, ds := int64(u.Stride), int64(n)
				if unpack {
					ss, ds = ds, ss
				}
				u.SrcOff = place(rng, int64(n), int64(u.More), ss, window)
				u.DstOff = place(rng, int64(n), int64(u.More), ds, window)
				for j := range ks {
					ks[j].Units = append(ks[j].Units, u)
				}
			}
			ks[0].Unpack, ks[1].Unpack = unpack, unpack
			runRef(expand(ks[0]))
			ks[1].run()
			if !bytes.Equal(alls[1].Bytes(), alls[0].Bytes()) {
				t.Fatalf("overlap=%v unpack=%v: kernel and per-unit copier left different bytes", overlap, unpack)
			}
			ks[0].Units, ks[1].Units = nil, nil
		}
	}
}

// place returns a random first offset for more+1 copies of n bytes,
// step apart, that keeps all of them inside a window of the given size.
func place(rng *rand.Rand, n, more, step, window int64) int64 {
	lo, hi := int64(0), window-n-more*step
	if step < 0 {
		lo, hi = -more*step, window-n
	}
	return lo + rng.Int63n(hi-lo+1)
}

// A unit that ends one byte past its buffer's window must panic, not
// touch the neighbouring allocation: the space has bytes on both sides
// of each window.
func TestKernelRunStaysInsideItsWindows(t *testing.T) {
	for _, n := range []int32{8, 9, 1024} {
		for _, side := range []string{"src", "dst"} {
			sp := mem.NewSpace("s", mem.Device, 1<<20)
			all := sp.Alloc(16<<10, 256)
			k := &Kernel{Kind: DEVKernel, Src: all.Slice(256, 4096), Dst: all.Slice(8192, 4096)}
			u := Unit{Len: n}
			if side == "src" {
				u.SrcOff = 4096 - int64(n) + 1
			} else {
				u.DstOff = 4096 - int64(n) + 1
			}
			k.Units = []Unit{u}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("len %d: unit one byte past the %s window did not panic", n, side)
					}
				}()
				k.run()
			}()
		}
	}
}

func TestNewDeviceRejectsNonPowerOfTwoWarp(t *testing.T) {
	for _, warp := range []int64{0, 96, 255} {
		p := KeplerK40()
		p.WarpBytes = warp
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WarpBytes %d accepted", warp)
				}
			}()
			NewDevice(sim.NewEngine(), 0, p)
		}()
	}
}

// BenchmarkKernelRun8B is the functional half of a transpose kernel: one
// 8-byte unit per matrix element, scattered on the source side.
func BenchmarkKernelRun8B(b *testing.B) {
	const n = 256 // matrix edge: 65 536 units
	sp := mem.NewSpace("gpu0", mem.Device, 4<<20)
	src, dst := sp.Alloc(n*n*8, 256), sp.Alloc(n*n*8, 256)
	units := make([]Unit, 0, n*n)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			units = append(units, Unit{SrcOff: (j*n + i) * 8, DstOff: (i*n + j) * 8, Len: 8, Partial: true})
		}
	}
	b.SetBytes(n * n * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := &Kernel{Kind: DEVKernel, Src: src, Dst: dst, Units: GetUnits(len(units))}
		copy(k.Units, units)
		b.StartTimer()
		k.run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(units)), "ns/unit")
}
