package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

const (
	bcastCount  = 8    // blocks broadcast by the root
	reduceElems = 4096 // Int64 vector length the reduce combines
)

var collNames = []string{"bcast", "allgather", "alltoall", "reduce"}

// collShape is the fixed part of the coll_real workload.
type collShape struct {
	spec  cluster.Spec
	size  int
	root  int                // a non-leader root exercises the leader election
	block *datatype.Datatype // 1 KiB packed, non-contiguous
	vec   *datatype.Datatype // reduce operand
}

// collRealDriver runs every collective twice on a fresh fat-tree world,
// once with default tuning (hierarchical) and once forced flat. One arm
// is one verified operation: every rank's packed result must equal the
// image computed here from the payload seeds, and the flat arm's digest
// must equal the hierarchical arm's.
func collRealDriver(toy bool) func(r *run) {
	spec := cluster.Scale(16, 4, 4, 2)
	if toy {
		spec = cluster.Scale(2, 4, 4, 2)
	}
	cs := &collShape{
		spec:  spec,
		size:  spec.Size(),
		root:  spec.Size() - 1,
		block: shapes.SubMatrix(16, 8, 12),
		vec:   datatype.Contiguous(reduceElems, datatype.Int64),
	}
	tunings := []struct {
		name string
		tun  *mpi.Tuning
	}{{"hier", nil}, {"flat", &mpi.Tuning{Collectives: mpi.CollFlat}}}

	// The expected images are a pure function of the seed, which is
	// fixed for a process: build them once, in the warm-up repetition.
	var oracle map[string][][]byte
	var oracleSeed uint64
	scratch := make([]byte, max(int64(cs.size)*cs.block.Size(), bcastCount*cs.block.Size(), cs.vec.Size()))

	return func(r *run) {
		if oracle == nil || oracleSeed != r.seed {
			r.owned(phVerify, func() {
				oracle = make(map[string][][]byte)
				for ci, coll := range collNames {
					oracle[coll] = cs.expected(coll, r.seedFor(ci<<16))
				}
				oracleSeed = r.seed
			})
		}
		for ci, coll := range collNames {
			var first uint32
			for ai, arm := range tunings {
				elapsed, digest, ok := r.collArm(cs, coll, arm.tun, r.seedFor(ci<<16), oracle[coll], scratch, r.tamper && ci == 0 && ai == 0)
				if r.tamper && ci == 1 && ai == 1 {
					digest ^= 1
				}
				if ai == 0 {
					first = digest
				}
				name := coll + "." + arm.name
				r.check(ok && digest == first, "%s: payload differs (images ok=%v, digest %08x vs %08x)", name, ok, digest, first)
				r.point(name, elapsed.Micros())
			}
			r.foldWord(uint64(first))
		}
	}
}

// expected computes every rank's packed result image of coll from the
// payload seeds alone (rank s fills from seed+s).
func (cs *collShape) expected(coll string, seed uint64) [][]byte {
	want := make([][]byte, cs.size)
	switch coll {
	case "bcast":
		img := cpuPack(cs.block, bcastCount, synth(seed+uint64(cs.root), layoutSpan(cs.block, bcastCount)))
		for r := range want {
			want[r] = img
		}
	case "allgather":
		var img []byte
		for s := 0; s < cs.size; s++ {
			img = append(img, cpuPack(cs.block, 1, synth(seed+uint64(s), layoutSpan(cs.block, 1)))...)
		}
		for r := range want {
			want[r] = img
		}
	case "alltoall":
		b := cs.block.Size()
		for s := 0; s < cs.size; s++ {
			sent := cpuPack(cs.block, cs.size, synth(seed+uint64(s), layoutSpan(cs.block, cs.size)))
			for r := range want {
				want[r] = append(want[r], sent[int64(r)*b:int64(r+1)*b]...)
			}
		}
	case "reduce":
		sum := make([]uint64, reduceElems)
		for s := 0; s < cs.size; s++ {
			v := synth(seed+uint64(s), reduceElems*8)
			for i := range sum {
				sum[i] += binary.LittleEndian.Uint64(v[8*i:])
			}
		}
		img := make([]byte, reduceElems*8)
		for i, x := range sum {
			binary.LittleEndian.PutUint64(img[8*i:], x)
		}
		want[cs.root] = img
	}
	return want
}

// collArm runs one collective under one tuning and returns its virtual
// completion time (first entry to last exit), the digest of every
// rank's packed result, and whether every image matched want.
func (r *run) collArm(cs *collShape, coll string, tun *mpi.Tuning, seed uint64, want [][]byte, scratch []byte, tamper bool) (sim.Time, uint32, bool) {
	w, rec := r.newWorld(cs.spec.Tuned(tun).Config())
	size := cs.size
	results := make([]mem.Buffer, size) // the buffer holding each rank's result
	starts := make([]sim.Time, size)
	ends := make([]sim.Time, size)
	resDt, resCount := cs.block, size
	r.runWorld(w, func(m *mpi.Rank) {
		me := m.Rank()
		fill := func(b mem.Buffer) {
			r.owned(phFill, func() { mem.FillSynthetic(b, seed+uint64(me)) })
		}
		var op func()
		switch coll {
		case "bcast":
			resCount = bcastCount
			buf := m.Malloc(layoutSpan(cs.block, bcastCount))
			if me == cs.root {
				fill(buf)
			}
			results[me] = buf
			op = func() { m.Bcast(buf, cs.block, bcastCount, cs.root) }
		case "allgather":
			buf := m.Malloc(layoutSpan(cs.block, size))
			fill(buf.Slice(int64(me)*cs.block.Extent(), layoutSpan(cs.block, 1)))
			results[me] = buf
			op = func() { m.Allgather(buf, cs.block, 1) }
		case "alltoall":
			sendBuf := m.Malloc(layoutSpan(cs.block, size))
			recvBuf := m.Malloc(layoutSpan(cs.block, size))
			fill(sendBuf)
			results[me] = recvBuf
			op = func() { m.Alltoall(sendBuf, cs.block, 1, recvBuf, cs.block, 1) }
		case "reduce":
			resDt, resCount = cs.vec, 1
			sendBuf := m.Malloc(cs.vec.Size())
			recvBuf := m.Malloc(cs.vec.Size())
			fill(sendBuf)
			if me == cs.root {
				results[me] = recvBuf
			}
			op = func() { m.Reduce(sendBuf, recvBuf, cs.vec, 1, mpi.OpSum, cs.root) }
		}
		m.Barrier()
		starts[me] = m.Now()
		op()
		ends[me] = m.Now()
	})

	t0, t1 := starts[0], ends[0]
	for i := 1; i < size; i++ {
		if starts[i] < t0 {
			t0 = starts[i]
		}
		if ends[i] > t1 {
			t1 = ends[i]
		}
	}

	ok := true
	var digest uint32
	r.owned(phVerify, func() {
		conv := datatype.NewConverter(resDt, resCount)
		got := scratch[:conv.Total()]
		for rank, buf := range results {
			if !buf.IsValid() {
				continue
			}
			conv.Rewind()
			conv.Pack(got, buf.Bytes())
			digest = crc32.Update(digest, castagnoli, got)
			if tamper {
				got[0] ^= 1
				tamper = false
			}
			if !bytes.Equal(got, want[rank]) {
				ok = false
			}
		}
	})
	r.closeWorld(w, rec)
	return t1 - t0, digest, ok
}
