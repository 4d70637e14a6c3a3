package conformance

import (
	"fmt"

	"gpuddt/internal/baseline"
	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// RTConfig selects one end-to-end round-trip configuration: the channel
// (smcuda within a node, openib across nodes), the protocol regime
// (eager vs rendezvous), the rendezvous strategy (the paper's pipelined
// protocols or the MVAPICH baseline), data placement, and the
// receive-side layout.
type RTConfig struct {
	// Topo is "1gpu" (both ranks one GPU, CUDA IPC), "2gpu" (two GPUs,
	// P2P over PCIe) or "ib" (two nodes over InfiniBand).
	Topo string

	// MVAPICH swaps the rendezvous strategy for the baseline.
	MVAPICH bool

	// OnHost places both buffers in host memory (CPU datatype engine).
	OnHost bool

	// ForceEager drives the message through the eager bounce-buffer
	// protocol regardless of size; otherwise the eager limit is dropped
	// to force the rendezvous pipeline.
	ForceEager bool

	// RecvContig receives into a contiguous byte buffer instead of the
	// mirrored non-contiguous layout (pack-side-only check).
	RecvContig bool

	// DirectRemoteUnpack enables the §5.2.1 ablation: unpack kernels
	// read straight from the peer GPU's memory.
	DirectRemoteUnpack bool

	// FragBytes overrides the pipeline fragment size (0 = default);
	// small values force many fragments through the ring.
	FragBytes int64

	// Traced attaches a span recorder to the run and asserts the
	// timeline is well-formed: every span ended in nesting order with a
	// non-negative duration, and the top-level receive spans account for
	// exactly the oracle's packed byte count.
	Traced bool

	// FaultRate, with FaultSeed, installs a deterministic fault plan
	// injecting transient faults at the given per-operation rate on
	// every site (chaos mode). The pack∘unpack identity must hold
	// regardless: recovery may change the timeline but never the bytes.
	FaultRate float64
	FaultSeed uint64

	// PersistentP2P marks the CUDA IPC peer-mapping site permanently
	// faulted, forcing every SM zero-copy protocol to degrade to the
	// staged copy-in/out fallback.
	PersistentP2P bool
}

// chaotic reports whether the configuration installs a fault plan.
func (c RTConfig) chaotic() bool { return c.FaultRate > 0 || c.PersistentP2P }

func (c RTConfig) String() string {
	proto := "rendezvous"
	if c.ForceEager {
		proto = "eager"
	}
	impl := "pipelined"
	if c.MVAPICH {
		impl = "mvapich"
	}
	place := "gpu"
	if c.OnHost {
		place = "host"
	}
	recv := "mirror"
	if c.RecvContig {
		recv = "contig"
	}
	s := fmt.Sprintf("%s/%s/%s/%s/%s", c.Topo, proto, impl, place, recv)
	if c.Traced {
		s += "/traced"
	}
	if c.FaultRate > 0 {
		s += fmt.Sprintf("/chaos@%g#%d", c.FaultRate, c.FaultSeed)
	}
	if c.PersistentP2P {
		s += "/nop2p"
	}
	return s
}

// RoundTrip sends (tree, count) from rank 0 to rank 1 over the selected
// channel and verifies the receiver's memory byte-for-byte against the
// reference walker: scattered bytes must match the sender's data, gap
// bytes must be untouched. It returns nil when the transfer conforms.
//
// Overlapping layouts are rejected by the caller (unpack into an
// overlapped layout is undefined); zero-size layouts are skipped.
func RoundTrip(tr *Tree, cfg RTConfig) error {
	total := tr.Total()
	if total == 0 {
		return nil
	}
	if !cfg.RecvContig && HasOverlap(tr.Map) {
		return fmt.Errorf("seed %d: RoundTrip on overlapping layout", tr.Seed)
	}

	tun := &mpi.Tuning{
		FragBytes:          cfg.FragBytes,
		DirectRemoteUnpack: cfg.DirectRemoteUnpack,
	}
	if cfg.ForceEager {
		tun.Eager = mpi.Eager(total + 1)
	} else {
		tun.Eager = mpi.Eager(1)
		if total <= 1 {
			return nil // cannot force rendezvous below the minimum limit
		}
	}
	if cfg.MVAPICH {
		tun.Strategy = &baseline.MVAPICHStrategy{}
	}
	var plan *fault.Plan
	if cfg.chaotic() {
		plan = fault.NewPlan(cfg.FaultSeed, cfg.FaultRate)
		if cfg.PersistentP2P {
			plan.Persistent[fault.IPCOpen] = true
		}
	}

	wcfg := cluster.ByName(cfg.Topo).Tuned(tun).Config()
	wcfg.Faults = plan
	w := mpi.NewWorld(wcfg)
	var rec *sim.Recorder
	if cfg.Traced {
		rec = sim.NewRecorder(w.Engine())
	}

	srcData := pattern(tr.Span, tr.Seed)
	want := ReferencePack(tr.Map, srcData)
	recvBase := pattern(tr.Span, tr.Seed+1313)

	alloc := func(m *mpi.Rank, n int64) mem.Buffer {
		if cfg.OnHost {
			return m.MallocHost(n)
		}
		return m.Malloc(n)
	}

	var got []byte
	w.Run(func(m *mpi.Rank) {
		switch m.Rank() {
		case 0:
			buf := alloc(m, tr.Span)
			copy(buf.Bytes(), srcData)
			m.Send(buf, tr.Dt, tr.Count, 1, 7)
		case 1:
			if cfg.RecvContig {
				buf := alloc(m, total)
				m.Recv(buf, datatype.Contiguous(int(total), datatype.Byte), 1, 0, 7)
				got = append([]byte(nil), buf.Bytes()...)
			} else {
				buf := alloc(m, tr.Span)
				copy(buf.Bytes(), recvBase)
				m.Recv(buf, tr.Dt, tr.Count, 0, 7)
				got = append([]byte(nil), buf.Bytes()...)
			}
		}
	})

	// Staging pools must be quiescent after every transfer completed:
	// an abandoned protocol attempt that kept a staging buffer,
	// or a message record some party never released, would show up here
	// as a leak.
	if err := w.Quiescent(); err != nil {
		return tr.errf("channel "+cfg.String(), "%v", err)
	}

	if rec != nil {
		if err := checkTimeline(rec, tr, cfg, total); err != nil {
			return err
		}
	}

	if cfg.RecvContig {
		if i := firstDiff(want, got); i >= 0 {
			return tr.errf("channel "+cfg.String(), "packed byte %d differs: got %#x want %#x", i, got[i], want[i])
		}
		return nil
	}
	wantImg := append([]byte(nil), recvBase...)
	ReferenceUnpack(tr.Map, wantImg, want)
	if i := firstDiff(wantImg, got); i >= 0 {
		inGap := true
		for _, off := range tr.Map {
			if off == int64(i) {
				inGap = false
				break
			}
		}
		where := "data"
		if inGap {
			where = "gap"
		}
		return tr.errf("channel "+cfg.String(), "%s byte %d differs: got %#x want %#x", where, i, got[i], wantImg[i])
	}
	return nil
}

// checkTimeline asserts the recorded span timeline is well-formed and
// that its top-level receive spans account for exactly the oracle's
// packed byte count.
func checkTimeline(rec *sim.Recorder, tr *Tree, cfg RTConfig, total int64) error {
	if err := rec.Validate(); err != nil {
		return tr.errf("channel "+cfg.String(), "trace: %v", err)
	}
	var recvBytes int64
	var recvSpans int
	for _, tk := range rec.Tracks() {
		for _, sp := range tk.Spans {
			if sp.Duration() < 0 {
				return tr.errf("channel "+cfg.String(), "trace: span %q has negative duration %v", sp.Name, sp.Duration())
			}
			if sp.Name == "mpi.recv" && sp.Depth == 0 {
				recvSpans++
				recvBytes += sp.Bytes
			}
		}
	}
	if recvSpans == 0 {
		return tr.errf("channel "+cfg.String(), "trace: no top-level mpi.recv span recorded")
	}
	if recvBytes != total {
		return tr.errf("channel "+cfg.String(), "trace: mpi.recv spans carry %d bytes, oracle packed %d", recvBytes, total)
	}
	// A permanently faulted P2P path must provably demote the SM
	// zero-copy protocols: a rendezvous transfer whose chosen protocol
	// would map peer memory has to record the downgrade span/counter.
	if cfg.PersistentP2P && !cfg.ForceEager && !cfg.MVAPICH && !cfg.OnHost && cfg.Topo != "ib" {
		if rec.Counter("mpi.fallback") == 0 {
			return tr.errf("channel "+cfg.String(), "trace: persistent P2P fault did not trigger a zero-copy downgrade")
		}
	}
	return nil
}
