package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
)

// Reduce combines count primitives of dt from every rank's sendBuf into
// root's recvBuf. dt must be a contiguous layout of a single primitive
// type (Float64 or Int64). The combine runs as a memory-bound GPU
// kernel when the buffers live in device memory, and on the CPU
// (charging the host bus) otherwise. Topology-aware worlds reduce
// within each node first and then over one leader per node on the IB
// tier — note the different combine association order; exact for Int64
// and OpMax, and for Float64 values whose partial sums are exactly
// representable.
func (m *Rank) Reduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	m.reduce(&m.proc, m.tagBlock(m.reduceTags()), sendBuf, recvBuf, dt, count, op, root)
}

func (m *Rank) reduce(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	if count > 0 && m.switchOn(dt, op, false) {
		m.switchReduce(p, tag, sendBuf, recvBuf, dt, count, op, root, -1)
		return
	}
	if m.hierOn() && count > 0 {
		m.hierReduce(p, tag, sendBuf, recvBuf, dt, count, op, root)
		return
	}
	// Topology-blind: one binomial tree over the whole world.
	prim := reducePrim(dt)
	acc := m.accumulator(p, sendBuf, recvBuf, dt, count, m.rank == root)
	m.reduceTree(p, "Reduce", m.worldComm(), root, acc, dt, count, prim, op, tag)
	if m.rank != root {
		m.give(acc)
	}
}

// accumulator returns the buffer this rank reduces into, already
// holding its own contribution: recvBuf when the rank keeps the result,
// otherwise staging in its send buffer's memory, which the caller gives
// back.
func (m *Rank) accumulator(p *sim.Proc, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, keep bool) mem.Buffer {
	n := int64(count) * dt.Size()
	var acc mem.Buffer
	if keep {
		acc = recvBuf.Slice(0, n)
	} else {
		acc = m.take(sendBuf.Space(), n)
	}
	m.localCopy(p, sendBuf, dt, count, acc, dt, count)
	return acc
}

// Allreduce is Reduce to rank 0 followed by Bcast, over a Reduce tag
// block followed by a Bcast one.
func (m *Rank) Allreduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op) {
	tag := m.tagBlock(m.reduceTags() + m.bcastTags())
	tagB := tag + m.reduceTags()
	if count > 0 && m.switchOn(dt, op, true) {
		// The switch multicasts the result to every node's leader on the
		// way down, so only the intra-node broadcast remains.
		m.switchReduce(&m.proc, tag, sendBuf, recvBuf, dt, count, op, 0, tagB)
		return
	}
	m.reduce(&m.proc, tag, sendBuf, recvBuf, dt, count, op, 0)
	m.bcast(&m.proc, tagB, recvBuf, dt, count, 0)
}

// reducePrim validates the datatype for reduction and returns its
// primitive kind.
func reducePrim(dt *datatype.Datatype) datatype.Primitive {
	if !dt.IsContiguous() {
		panic("mpi: Reduce requires a contiguous datatype")
	}
	sig := dt.Signature()
	if len(sig) != 1 {
		panic("mpi: Reduce requires a single primitive type")
	}
	switch sig[0].Prim {
	case datatype.PrimFloat64, datatype.PrimInt64:
		return sig[0].Prim
	default:
		panic(fmt.Sprintf("mpi: Reduce does not support %v", sig[0].Prim))
	}
}

// combine executes acc = acc (op) other, charging a memory-bound kernel
// on the GPU (2 reads + 1 write per element) or the host bus.
func (m *Rank) combine(p *sim.Proc, acc, other mem.Buffer, prim datatype.Primitive, op Op) {
	n := acc.Len()
	if acc.Kind() == mem.Device {
		eng := m.EngineFor(acc)
		eng.Device().Compute(eng.Stream(), 3*n, 0).Await(p)
	} else {
		m.ctx.Node().HostBus().Transfer(p, 3*n)
	}
	combineBytes(acc.Bytes(), other.Bytes(), prim, op)
}

// combineBytes is the pure byte math of combine: a = a (op) b over
// packed little-endian primitives. Shared with the in-network switch
// reduction, which folds contributions without a Rank in sight.
func combineBytes(a, b []byte, prim datatype.Primitive, op Op) {
	n := int64(len(a))
	for off := int64(0); off+8 <= n; off += 8 {
		switch prim {
		case datatype.PrimFloat64:
			x := math.Float64frombits(binary.LittleEndian.Uint64(a[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			binary.LittleEndian.PutUint64(a[off:], math.Float64bits(apply(x, y, op)))
		case datatype.PrimInt64:
			x := int64(binary.LittleEndian.Uint64(a[off:]))
			y := int64(binary.LittleEndian.Uint64(b[off:]))
			r := x + y
			if op == OpMax && y <= x {
				r = x
			} else if op == OpMax {
				r = y
			}
			binary.LittleEndian.PutUint64(a[off:], uint64(r))
		}
	}
}

func apply(x, y float64, op Op) float64 {
	switch op {
	case OpSum:
		return x + y
	case OpMax:
		return math.Max(x, y)
	default:
		panic("mpi: unknown op")
	}
}
