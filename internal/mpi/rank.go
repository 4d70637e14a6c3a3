package mpi

import (
	"gpuddt/internal/core"
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Rank is one MPI process. The function passed to World.Run receives its
// Rank and calls the communication API on it; all API methods must be
// invoked from that function's process.
type Rank struct {
	w     *World
	rank  int
	place Placement
	ctx   cuda.Ctx
	eng   core.Engine    // the datatype engine of the rank's own GPU
	engs  []*core.Engine // by GPU: eng, and a peer GPU's once used
	proc  sim.Proc       // the rank's main process, started by World.Run
	main  rankMain       // its body

	inbox  sim.Server[ib.Msg] // active messages, executed in order
	*arena                    // pinned staging, its pools and the matching lists (arena.go)
	staged int64              // staging buffers taken, not yet given back

	collSeq    int
	winSeq     int
	barrierBox amQueue

	collOut  int // nonblocking collectives in flight (see World.Quiescent)
	icollSeq int // nonblocking collectives started, for process names

	names procNames
}

// procNames holds the names of the rank's processes and mailboxes — its
// main process, its daemons and the helpers it creates per message or
// per fragment — from the process-wide name table.
type procNames struct {
	main, barrier, progress                    string
	ack, sendpipe, sendcmds, ibpack, eagerRecv string
}

// The names of a rank's processes and mailboxes, by rank, and of the
// process receiving a rendezvous message, by rank and source.
var (
	rankNames = sim.NewNameSet([]string{"rank"}, "", ".barrier", ".progress",
		".ack", ".sendpipe", ".sendcmds", ".ibpack", ".eagerRecv")
	recvNames = sim.NewNameSet([]string{"rank", ".recv."}, "")
)

// recvName returns the name of the process receiving a rendezvous
// message from src.
func (m *Rank) recvName(src int) string { return recvNames.Of(m.rank, src)[0] }

// init makes rk rank r of w at pl, with engs (one slot per GPU of its
// node) for its datatype engines.
func (rk *Rank) init(w *World, r int, pl Placement, engs []*core.Engine) {
	n := rankNames.Of(r)
	*rk = Rank{
		w:     w,
		rank:  r,
		place: pl,
		engs:  engs,
		arena: takeArena(),
		names: procNames{
			main: n[0], barrier: n[1], progress: n[2],
			ack: n[3], sendpipe: n[4], sendcmds: n[5], ibpack: n[6], eagerRecv: n[7],
		},
	}
	// Room for an unexpected arrival from every rank; an arena off the
	// shelf has it already.
	if size := len(w.cfg.Ranks); cap(rk.unexp) < size {
		rk.unexp = make([]*rtsMsg, 0, size)
	}
	rk.ctx.Init(&w.nodes[pl.Node])
	w.hcas[pl.Node].Pin(rk.arena.space)
	rk.barrierBox.Init(w.eng, rk.names.barrier)
	rk.eng.Init(&rk.ctx, pl.GPU, w.cfg.Engine)
	rk.engs[pl.GPU] = &rk.eng
	// The progress server executes incoming active messages in order.
	rk.inbox.Init(w.eng, rk.names.progress, runAM)
}

// rankMain is a rank's main process body: the function World.Run was
// given, called with the rank.
type rankMain struct {
	m  *Rank
	fn func(m *Rank)
}

func (b *rankMain) Run(*sim.Proc) { b.fn(b.m) }

// runAM executes one active message on the progress server.
func runAM(p *sim.Proc, am ib.Msg) { am.To.Handle(p, am.Arg) }

// Rank returns the process's rank.
func (m *Rank) Rank() int { return m.rank }

// World returns the world this rank belongs to.
func (m *Rank) World() *World { return m.w }

// ScratchHost hands out n bytes of the rank's pinned host staging (for
// alternative strategies' staging).
func (m *Rank) ScratchHost(n int64) mem.Buffer { return m.take(m.space, n) }

// FreeScratchHost gives a ScratchHost buffer back.
func (m *Rank) FreeScratchHost(b mem.Buffer) { m.give(b) }

// Staging returns the rank's pinned staging arena (arena.go), for
// inspection: what its host staging is carved from.
func (m *Rank) Staging() *mem.Space { return m.space }

// Size returns the world size.
func (m *Rank) Size() int { return len(m.w.ranks) }

// Proc returns the rank's main simulated process.
func (m *Rank) Proc() *sim.Proc { return &m.proc }

// Now returns the current virtual time.
func (m *Rank) Now() sim.Time { return m.proc.Now() }

// Ctx returns the rank's CUDA context.
func (m *Rank) Ctx() *cuda.Ctx { return &m.ctx }

// EngineFor returns the datatype engine that moves the bytes of buf.
// For device memory it is the engine of the GPU that owns buf: the
// rank's own GPU's is built with the rank, a peer GPU's on first use,
// since most ranks never touch one. For host memory it is the engine of
// the rank's own GPU, which moves host data on the CPU.
func (m *Rank) EngineFor(buf mem.Buffer) *core.Engine {
	if buf.Kind() == mem.Host {
		return m.Engine()
	}
	dev := m.ctx.Node().DeviceOf(buf.Space())
	if m.engs[dev] == nil {
		m.engs[dev] = core.New(&m.ctx, dev, m.w.cfg.Engine)
	}
	return m.engs[dev]
}

// Engine returns the datatype engine of the rank's default GPU.
func (m *Rank) Engine() *core.Engine { return m.engs[m.place.GPU] }

// Malloc allocates device memory on the rank's default GPU.
func (m *Rank) Malloc(n int64) mem.Buffer { return m.ctx.Malloc(m.place.GPU, n) }

// MallocHost allocates host memory on the rank's node.
func (m *Rank) MallocHost(n int64) mem.Buffer { return m.ctx.MallocHost(n) }

// channel returns the outgoing channel to peer.
func (m *Rank) channel(peer int) Channel { return Channel{src: m, dst: m.w.ranks[peer]} }

// Send performs a blocking standard-mode send of count elements of dt
// from buf (whose byte 0 is the datatype origin; device or host memory).
func (m *Rank) Send(buf mem.Buffer, dt *datatype.Datatype, count, dest, tag int) {
	m.sendOn(&m.proc, buf, dt, count, dest, tag)
}

// Recv performs a blocking receive into buf.
func (m *Rank) Recv(buf mem.Buffer, dt *datatype.Datatype, count, source, tag int) {
	m.recvOn(&m.proc, buf, dt, count, source, tag)
}

// sendOn / recvOn are Send/Recv driven from an explicit process, for
// collective schedules that may run on a spawned progress process
// instead of the rank's main one.
func (m *Rank) sendOn(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count, dest, tag int) {
	await(p, m.isendOn(p, buf, dt, count, dest, tag))
}

func (m *Rank) recvOn(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count, source, tag int) {
	await(p, m.irecv(buf, dt, count, source, tag))
}

// SendRecv exchanges messages with the two peers without deadlocking.
func (m *Rank) SendRecv(
	sendBuf mem.Buffer, sendType *datatype.Datatype, sendCount, dest, sendTag int,
	recvBuf mem.Buffer, recvType *datatype.Datatype, recvCount, source, recvTag int,
) {
	s := m.isendOn(&m.proc, sendBuf, sendType, sendCount, dest, sendTag)
	r := m.irecv(recvBuf, recvType, recvCount, source, recvTag)
	await(&m.proc, s)
	await(&m.proc, r)
}

// Barrier blocks until every rank has entered it (linear gather/release
// through rank 0; adequate for the benchmark harness).
func (m *Rank) Barrier() {
	if m.Size() == 1 {
		return
	}
	if m.rank == 0 {
		for i := 1; i < m.Size(); i++ {
			m.barrierBox.Get(&m.proc)
		}
		for i := 1; i < m.Size(); i++ {
			m.channel(i).AM(&m.proc, amHeaderBytes, &m.w.ranks[i].barrierBox, 0)
		}
	} else {
		m.channel(0).AM(&m.proc, amHeaderBytes, &m.w.ranks[0].barrierBox, 0)
		m.barrierBox.Get(&m.proc)
	}
}
