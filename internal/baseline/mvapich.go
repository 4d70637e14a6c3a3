// Package baseline implements the comparison systems of the paper's
// evaluation: an MVAPICH2-GDR-style datatype strategy (§2.2) built on
// the vectorization algorithm of the paper's reference [15] — every
// datatype is converted into a set of vectors, each moved by its own
// cudaMemcpy2D through host memory, with no pipelining between the
// conversion, wire and unpack stages — and the three naive solutions of
// Fig. 1 (copy-with-gaps, per-block D2H memcpy, per-block D2D memcpy).
package baseline

import (
	"fmt"
	"sync"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// VecSeg is one vector segment produced by the vectorization algorithm:
// Count equally spaced blocks of Len bytes starting at Off, Stride bytes
// apart. A single contiguous block is the degenerate Count == 1 case.
type VecSeg struct {
	Off    int64
	Len    int64
	Stride int64
	Count  int64
}

// Vectorize converts (dt, count) into vector segments by scanning the
// flattened blocks and greedily extending runs of equal length and
// uniform stride, exactly the conversion MVAPICH applies. Ragged
// layouts such as triangular matrices degenerate into one segment per
// block, which is what makes the approach collapse on indexed types.
func Vectorize(dt *datatype.Datatype, count int) []VecSeg {
	var segs []VecSeg
	var cur *VecSeg
	c := datatype.NewConverter(dt, count)
	c.Advance(c.Total(), func(memOff, packOff, n int64) {
		if cur != nil {
			// Exactly adjacent single blocks merge into one block.
			if cur.Count == 1 && memOff == cur.Off+cur.Len {
				cur.Len += n
				cur.Stride = cur.Len
				return
			}
			if n == cur.Len {
				stride := memOff - (cur.Off + (cur.Count-1)*cur.Stride)
				if cur.Count == 1 && stride > 0 {
					cur.Stride = stride
					cur.Count = 2
					return
				}
				if cur.Count > 1 && stride == cur.Stride {
					cur.Count++
					return
				}
			}
		}
		segs = append(segs, VecSeg{Off: memOff, Len: n, Stride: n, Count: 1})
		cur = &segs[len(segs)-1]
	})
	return segs
}

// PackedLen returns the packed bytes covered by the segment.
func (s VecSeg) PackedLen() int64 { return s.Len * s.Count }

// MVAPICHStrategy is the mpi.Strategy modeling MVAPICH2-GDR's
// non-contiguous GPU datatype path: sender-side cudaMemcpy2D per vector
// segment into host staging, a whole-message wire transfer, and
// receiver-side cudaMemcpy2D per segment out of host staging. The three
// stages run sequentially (the paper: "no pipelining or overlap between
// the different stages of the datatype conversion is provided").
//
// A strategy value vectorizes each (datatype, count) once and keeps the
// segments for every later message: a value may serve every rank of a
// world and concurrent worlds, so the table is guarded. The zero value
// is ready to use.
type MVAPICHStrategy struct {
	mu   sync.Mutex
	segs map[segKey][]VecSeg
}

// segKey names a (datatype, count) the strategy has vectorized.
type segKey struct {
	dt    *datatype.Datatype
	count int
}

// vectorized returns Vectorize(dt, count), computing it on first use.
// The segments are shared: callers only read them.
func (s *MVAPICHStrategy) vectorized(dt *datatype.Datatype, count int) []VecSeg {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := segKey{dt, count}
	segs, ok := s.segs[key]
	if !ok {
		if s.segs == nil {
			s.segs = make(map[segKey][]VecSeg)
		}
		segs = Vectorize(dt, count)
		s.segs[key] = segs
	}
	return segs
}

// Name implements mpi.Strategy.
func (s *MVAPICHStrategy) Name() string { return "mvapich" }

// mvSend is the sender's half of a message: the RTS payload, and the
// queue its sender process waits on for the receiver's go-ahead.
type mvSend struct {
	op   *mpi.SendOp
	cmds sim.Mailbox[*mvRecv]
}

// mvRecv is the receiver's half: the host staging the sender Puts into,
// and the queue the receiver waits on until the bytes are there.
type mvRecv struct {
	send    *mvSend
	staging mem.Buffer
	done    sim.Mailbox[int]
}

// The protocol's two active messages name the receiver's record; their
// integer says which step they are.
const (
	mvGo   = iota // receiver -> sender: staging is ready
	mvDone        // sender -> receiver: the staged bytes have landed
)

// Handle runs a step on the progress process of the rank it reached.
func (r *mvRecv) Handle(_ *sim.Proc, step int) {
	if step == mvGo {
		r.send.cmds.Put(r)
		return
	}
	r.done.Put(0)
}

// StartSend implements mpi.Strategy.
func (s *MVAPICHStrategy) StartSend(op *mpi.SendOp) any {
	info := &mvSend{op: op}
	info.cmds.Init(op.M.World().Engine(), "mv.cmds")
	op.M.World().Engine().Spawn(fmt.Sprintf("rank%d.mvsend", op.M.Rank()), func(p *sim.Proc) {
		r := info.cmds.Get(p)
		// Stage 1: convert to host staging, one cudaMemcpy2D per vector
		// segment (GPU data) or a CPU pack (host data).
		local := op.M.ScratchHost(op.Packed)
		s.stageOut(p, op, local.Slice(0, op.Packed))
		// Stage 2: whole-message wire transfer (no fragmentation).
		op.Ch.Put(p, r.staging.Slice(0, op.Packed), local.Slice(0, op.Packed))
		op.M.FreeScratchHost(local)
		op.Ch.AM(p, 64, r, mvDone)
		op.Req.Complete()
	})
	return info
}

// stageOut moves packed data from the send buffer into host staging.
func (s *MVAPICHStrategy) stageOut(p *sim.Proc, op *mpi.SendOp, dst mem.Buffer) {
	m := op.M
	if op.Buf.Kind() != mem.Device {
		m.EngineFor(op.Buf).Pack(p, op.Buf, op.Dt, op.Count, dst)
		return
	}
	var packOff int64
	for _, seg := range s.vectorized(op.Dt, op.Count) {
		src := op.Buf.Slice(seg.Off, (seg.Count-1)*seg.Stride+seg.Len)
		m.Ctx().Memcpy2D(p, dst.Slice(packOff, seg.PackedLen()), seg.Len, src, seg.Stride, seg.Len, seg.Count)
		packOff += seg.PackedLen()
	}
}

// stageIn scatters packed data from host staging into the receive buffer.
func (s *MVAPICHStrategy) stageIn(p *sim.Proc, op *mpi.RecvOp, src mem.Buffer) {
	m := op.M
	if op.Buf.Kind() != mem.Device {
		m.EngineFor(op.Buf).UnpackPrefix(p, op.Buf, op.Dt, op.Count, src)
		return
	}
	var packOff int64
	for _, seg := range s.vectorized(op.Dt, op.Count) {
		rem := src.Len() - packOff
		if rem <= 0 {
			break
		}
		n := seg.PackedLen()
		if n > rem {
			// A partial message ends mid-segment: scatter only the whole
			// blocks that arrived, then the trailing fraction of a block.
			whole := rem / seg.Len
			if whole > 0 {
				dst := op.Buf.Slice(seg.Off, (whole-1)*seg.Stride+seg.Len)
				m.Ctx().Memcpy2D(p, dst, seg.Stride, src.Slice(packOff, whole*seg.Len), seg.Len, seg.Len, whole)
			}
			if frac := rem - whole*seg.Len; frac > 0 {
				off := seg.Off + whole*seg.Stride
				m.Ctx().Memcpy2D(p, op.Buf.Slice(off, frac), frac, src.Slice(packOff+whole*seg.Len, frac), frac, frac, 1)
			}
			break
		}
		dst := op.Buf.Slice(seg.Off, (seg.Count-1)*seg.Stride+seg.Len)
		m.Ctx().Memcpy2D(p, dst, seg.Stride, src.Slice(packOff, n), seg.Len, seg.Len, seg.Count)
		packOff += n
	}
}

// RunRecv implements mpi.Strategy.
func (s *MVAPICHStrategy) RunRecv(p *sim.Proc, op *mpi.RecvOp, info any) {
	m := op.M
	r := &mvRecv{send: info.(*mvSend), staging: m.ScratchHost(op.Packed)}
	r.done.Init(m.World().Engine(), "mv.done")
	op.Ch.AM(p, 64, r, mvGo)
	r.done.Get(p)
	// Stage 3: unpack from host staging, one cudaMemcpy2D per segment.
	s.stageIn(p, op, r.staging.Slice(0, op.Packed))
	m.FreeScratchHost(r.staging)
	op.Req.Complete()
}
