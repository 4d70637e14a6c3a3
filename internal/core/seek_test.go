package core

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// packFrags drains pk through frag-sized pieces into out.
func packFrags(p *sim.Proc, pk *Packer, frag mem.Buffer, out *[]byte) {
	for !pk.Done() {
		n := frag.Len()
		if r := pk.Remaining(); r < n {
			n = r
		}
		piece := frag.Slice(0, n)
		_, fut := pk.PackWith(p, piece, nil)
		fut.Await(p)
		*out = append(*out, piece.Bytes()...)
	}
}

// TestPackerSeekToReplay is the idempotent-replay contract the PML's
// fault recovery leans on: after a partial pack, SeekTo(0) must replay
// the message from the start and produce byte-identical output — the
// DEV translation cache must not be corrupted by the abandoned attempt.
func TestPackerSeekToReplay(t *testing.T) {
	for _, dt := range []*datatype.Datatype{
		shapes.SubMatrix(40, 30, 64), // vector path
		shapes.LowerTriangular(50),   // DEV path (converted units)
	} {
		r := newRig(t, Options{})
		count := 2
		rdt := datatype.Resized(dt, 0, dt.Extent())
		data := r.ctx.Malloc(0, rdt.Span(count))
		mem.FillPattern(data, 9)
		want := cpuPack(rdt, count, data.Bytes())
		frag := r.ctx.Malloc(0, 2048)

		var aborted, replayed []byte
		r.eng.Spawn("seek", func(p *sim.Proc) {
			pk := new(Packer)
			r.e.InitPacker(pk, data, rdt, count)
			// First attempt: pack a few fragments, then abandon it.
			for i := 0; i < 3 && !pk.Done(); i++ {
				_, fut := pk.PackWith(p, frag, nil)
				fut.Await(p)
			}
			aborted = append(aborted, frag.Bytes()...)
			// Replay from the start through the same packer.
			pk.SeekTo(0)
			packFrags(p, pk, frag, &replayed)
		})
		r.eng.Run()
		if !bytes.Equal(replayed, want) {
			t.Fatalf("%s: replay after SeekTo(0) diverges from reference", dt.Name())
		}
		_ = aborted
	}
}

// TestPackerSeekToMidstream rewinds to a fragment boundary in the
// middle of the stream and checks the tail re-packs identically.
func TestPackerSeekToMidstream(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.LowerTriangular(64)
	data := r.ctx.Malloc(0, dt.Span(1))
	mem.FillPattern(data, 4)
	want := cpuPack(dt, 1, data.Bytes())
	frag := r.ctx.Malloc(0, 4096)

	var tail1, tail2 []byte
	var mark int64
	r.eng.Spawn("seek", func(p *sim.Proc) {
		pk := new(Packer)
		r.e.InitPacker(pk, data, dt, 1)
		_, fut := pk.PackWith(p, frag, nil)
		fut.Await(p)
		mark = pk.Total() - pk.Remaining()
		packFrags(p, pk, frag, &tail1)
		pk.SeekTo(mark)
		packFrags(p, pk, frag, &tail2)
	})
	r.eng.Run()
	if !bytes.Equal(tail1, want[mark:]) {
		t.Fatal("first tail diverges from reference")
	}
	if !bytes.Equal(tail2, tail1) {
		t.Fatal("re-packed tail diverges after SeekTo to a mid-stream offset")
	}
}

// TestPackerSeekToDropsList: SeekTo drops the list a converting packer
// was building, the replay — which converts through per-chunk scratch —
// caches nothing, and a later transfer of the same (dt, count) fills the
// cache.
func TestPackerSeekToDropsList(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.LowerTriangular(64)
	data := r.ctx.Malloc(0, dt.Span(1))
	frag := r.ctx.Malloc(0, 4096)
	var replayed, later int
	r.eng.Spawn("seek", func(p *sim.Proc) {
		pk := new(Packer)
		r.e.InitPacker(pk, data, dt, 1)
		_, fut := pk.PackWith(p, frag, nil)
		fut.Await(p)
		if pk.building == nil {
			t.Error("a converting packer holds no list before SeekTo")
			return
		}
		pk.SeekTo(0)
		if pk.building != nil {
			t.Error("SeekTo kept the list it abandoned")
			return
		}
		var out []byte
		packFrags(p, pk, frag, &out)
		if pk.building != nil {
			t.Error("the replay kept its scratch")
		}
		replayed = len(r.e.cache)
		packNow(p, r.ctx, r.e, dt, 1)
		later = len(r.e.cache)
	})
	r.eng.Run()
	if replayed != 0 {
		t.Fatalf("a rewound first pass populated the cache (%d lists)", replayed)
	}
	if later != 1 {
		t.Fatalf("a later whole pack cached %d lists, want 1", later)
	}
}
